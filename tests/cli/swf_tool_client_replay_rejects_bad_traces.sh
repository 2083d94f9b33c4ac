#!/bin/sh
# swf_tool client replay reads its trace before it connects and refuses
# one it cannot open or with a malformed line as simulate does: each
# problem as `path:line: message`, exit 1. No daemon listens on the
# socket; a trace that reached the connect would fail differently.
. "$(dirname "$0")/lib/common.sh"

expect_exit 1 "$tool" client replay missing.swf --socket none.sock
expect_output 'missing.swf:0: cannot open file: missing.swf'
expect_output 'error: 1 malformed line(s) in missing.swf'

# data/tiny.swf (50 lines) and a 17-field record.
cp "$src/data/tiny.swf" short.swf
echo '41 25200 -1 10 1 -1 100 1 10 100 -1 1 1 1 0 -1 -1' >> short.swf
expect_exit 1 "$tool" client replay short.swf --socket none.sock
expect_output 'short.swf:51: '
expect_output 'error: 1 malformed line(s) in short.swf'
