#!/bin/sh
# The scheduler fuzzer at fixed seeds: every registry spec runs
# randomized workloads and outages with every invariant checker
# attached. The 1000-job run queues deep enough that a pass which
# compresses only a prefix of the queue breaks a promised start. A
# failure prints the (spec, variant, seed) triple to rerun with the same
# `swf_tool fuzz` command.
. "$(dirname "$0")/lib/common.sh"

"$tool" fuzz 1 2 80
"$tool" fuzz 20260730 2 80
"$tool" fuzz 1 2 1000
