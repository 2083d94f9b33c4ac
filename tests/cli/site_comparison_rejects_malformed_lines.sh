#!/bin/sh
# site_comparison refuses a trace with a malformed line, naming the line
# as `path:line: message` (as swf_tool does), instead of ranking the
# schedulers on the records that did parse.
. "$(dirname "$0")/lib/common.sh"

# data/tiny.swf (50 lines) and a 17-field record.
cp "$src/data/tiny.swf" short.swf
echo '41 25200 -1 10 1 -1 100 1 10 100 -1 1 1 1 0 -1 -1' >> short.swf
expect_exit 1 "$build/examples/site_comparison" short.swf
expect_output 'short.swf:51: '
expect_output 'error: 1 malformed line(s) in short.swf'
