#!/bin/sh
# Observability round trip: traced replays of both bundled workloads
# (whole and streamed) write JSONL that scripts/check_trace_schema.py
# and `swf_tool trace-summary` both accept, a campaign with
# `telemetry =` writes per-cell traces that validate too, and the Chrome
# trace-event profile (CI uploads it for ui.perfetto.dev) is well-formed
# JSON.
. "$(dirname "$0")/lib/common.sh"
need_python

"$tool" simulate "$src/data/tiny.swf" easy \
  --trace tiny_easy.trace.jsonl \
  --timeseries tiny_easy.ts.csv --sample-every 60 \
  --profile tiny_easy.perfetto.json
"$tool" simulate "$src/data/contention.swf" conservative \
  --trace contention_conservative.trace.jsonl
"$tool" stream-simulate "$src/data/tiny.swf" easy \
  --trace tiny_easy_stream.trace.jsonl
python3 "$src/scripts/check_trace_schema.py" ./*.trace.jsonl
"$tool" trace-summary tiny_easy.trace.jsonl
"$tool" trace-summary contention_conservative.trace.jsonl 5
printf '%s\n' "workload = trace:$src/data/contention.swf" \
  'scheduler = easy' 'scheduler = conservative' 'seed = 7' \
  'nodes = auto' 'telemetry = telemetry' > telemetry.spec
"$tool" campaign telemetry.spec --quiet --out telemetry
python3 "$src/scripts/check_trace_schema.py" telemetry/cell_*.trace.jsonl
python3 -c "import json, sys; json.load(open(sys.argv[1]))" tiny_easy.perfetto.json
