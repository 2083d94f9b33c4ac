#!/bin/sh
# 20 seeds of the fuzzer's fault variant over every registry spec:
# random crash schedules, checkpoint restores, retry limits, backoff and
# overrun policies, with the recovery invariants attached. A violation
# prints the (spec, variant, seed) triple to rerun.
. "$(dirname "$0")/lib/common.sh"

seed=1
while [ "$seed" -le 20 ]; do
  "$tool" fuzz "$seed" 1 60
  seed=$((seed + 1))
done
