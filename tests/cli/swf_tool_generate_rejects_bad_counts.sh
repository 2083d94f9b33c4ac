#!/bin/sh
# Job and node counts that are not positive integers, and loads or
# interarrivals that are not finite non-negative numbers, are usage
# errors (exit 2) for `swf_tool generate`, never a trace that validate
# rejects afterwards or a silently defaulted rate.
. "$(dirname "$0")/lib/common.sh"

for args in '10 0 0.5' '-5 64 0.5' '12abc 64 0.5' '0 64 0.5' '8 2x 0.5' \
    '10 64 abc' '10 64 0.7xyz' '10 64 -5' '10 64 nan' '10 64 inf'; do
  expect_exit 2 "$tool" generate lublin99 $args out.swf
done
