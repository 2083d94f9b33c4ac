#!/bin/sh
# What-if queries off a frozen state, in predict and simulate modes.
# (Each golden's freeze-and-resume round trip is a ctest of its own.)
. "$(dirname "$0")/lib/common.sh"

"$tool" snapshot "$src/data/contention.swf" conservative 26000 contention.snap
"$tool" whatif contention.snap 4 3600
"$tool" whatif contention.snap 4 3600 --offset 120 --simulate
