#!/bin/sh
# A time scale that is not a finite number >= 0 is a usage error, not a
# daemon quietly running in logical time (the timeout stops a daemon
# that starts anyway).
. "$(dirname "$0")/lib/common.sh"

expect_exit 2 timeout 10 "$tool" serve scheduler=easy --socket serve.sock --time-scale nan
