#!/bin/sh
# The demos check their numbers too: malformed, out-of-range and surplus
# arguments exit 2, naming the argument, before anything is generated or
# read (t.swf does not exist, so a read would exit 1).
. "$(dirname "$0")/lib/common.sh"

quickstart=$build/examples/quickstart
site=$build/examples/site_comparison
for args in 'abc' '-5' '0' '12abc' '100 64 0.7x' '100 0' '100 -64' \
    '100 4194305' '100 64x' '100 64 0' '100 64 -1' '100 64 nan' \
    '100 64 inf' '100 64 0.7 extra'; do
  expect_exit 2 "$quickstart" $args
done
for args in 't.swf abc' 't.swf 0.5x' 't.swf -0.1' 't.swf 1.5' 't.swf nan' \
    't.swf 0.5 extra'; do
  expect_exit 2 "$site" $args
done
expect_exit 2 "$quickstart" abc
expect_output 'jobs must be'
expect_exit 2 "$quickstart" 100 64 0.7x
expect_output 'load must be'
expect_exit 2 "$quickstart" 100 0
expect_output 'nodes must be'
expect_exit 2 "$site" t.swf 1.5
expect_output 'lambda must be'
