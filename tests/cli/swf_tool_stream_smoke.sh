#!/bin/sh
# The streaming pipeline end to end: a generated 5000-job trace written
# record by record, then replayed through the windowed reader.
. "$(dirname "$0")/lib/common.sh"

"$tool" generate-stream lublin99 5000 128 900 stream.swf
"$tool" stream-simulate stream.swf easy
