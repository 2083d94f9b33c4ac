#!/bin/sh
# The daemon's determinism contract through the real binaries: a daemon
# serving the contention spec, a client live-submitting the trace in
# arrival order with what-if and query traffic interleaved, and the
# decision stream it writes must equal the committed golden the offline
# replay is held to, byte for byte. After the drain, QUERY answers a
# finished job from the terminated-job index, and a 4-connection what-if
# barrage gets answers (under TSan, it races the engine thread's tier
# publishing).
. "$(dirname "$0")/lib/common.sh"

start_daemon serve.sock "scheduler=conservative nodes=32" --decisions serve.decisions
"$tool" client replay "$src/data/contention.swf" \
  --whatif-every 5 --query-every 7 --drain --socket serve.sock
expect_exit 0 "$tool" client cmd "QUERY 1" --socket serve.sock
expect_output 'state=finished'
"$tool" client barrage 4 100 --socket serve.sock
"$tool" client status --socket serve.sock
stop_daemon
cmp serve.decisions "$src/data/golden/contention_conservative.decisions"
