#!/bin/sh
# A repeated job number (job 1 twice, on 2 nodes) is refused at
# admission, naming the job, whether the trace is loaded whole or
# streamed: admitted, it would re-queue job 1 while it runs, leak its
# node and starve job 2.
. "$(dirname "$0")/lib/common.sh"

printf '%s\n' '; MaxNodes: 2' \
  '1 0 -1 100 1 -1 -1 1 100 -1 1 -1 -1 -1 -1 -1 -1 -1' \
  '1 10 -1 100 1 -1 -1 1 100 -1 1 -1 -1 -1 -1 -1 -1 -1' \
  '2 20 -1 50 2 -1 -1 2 50 -1 1 -1 -1 -1 -1 -1 -1 -1' > repeated.swf
for cmd in simulate stream-simulate; do
  expect_exit 1 "$tool" "$cmd" repeated.swf fcfs
  expect_output 'job 1: job number repeats or descends'
done
