#!/bin/sh
# A trace's MaxNodes header is bounded like nodes=: simulate fails and
# names the bound instead of sizing per-node state from it.
. "$(dirname "$0")/lib/common.sh"

for n in -4 100000000000 100000000; do
  printf '; MaxNodes: %s\n1 0 -1 10 1 -1 -1 1 10 -1 1 -1 -1 -1 -1 -1 -1 -1\n' "$n" > machine.swf
  expect_exit 1 "$tool" simulate machine.swf easy
  expect_output '[1, 4194304]'
done
