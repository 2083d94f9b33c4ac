#!/bin/sh
# Fault injection end to end: crashes, checkpoint restores, retry-limit
# drops and overrun kills in traced replays write schema-v2 crash,
# resubmit, restore and drop records that scripts/check_trace_schema.py
# accepts, and stream-simulate refuses fault injection outright.
. "$(dirname "$0")/lib/common.sh"
need_python

"$tool" simulate "$src/data/contention.swf" easy \
  --faults 7 --mtbf 20000 --repair 600 \
  --checkpoint 600 --dump 30 --read 60 --retry-limit 2 --backoff 120 \
  --trace checkpointed.trace.jsonl
"$tool" simulate "$src/data/contention.swf" conservative \
  --faults 3 --mtbf 15000 --repair 900 --overrun kill \
  --trace overrun.trace.jsonl
python3 "$src/scripts/check_trace_schema.py" checkpointed.trace.jsonl overrun.trace.jsonl
expect_exit 2 "$tool" stream-simulate "$src/data/tiny.swf" easy --faults 1
expect_output '--faults needs the workload horizon up front'
