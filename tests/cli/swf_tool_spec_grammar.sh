#!/bin/sh
# Spec strings end to end on the bundled tiny trace: parameterized
# registry specs through simulate and stream-simulate, and the smoke
# campaign (scheduler specs, config lines, a named ranking metric), so a
# grammar regression fails here and not only in unit tests.
. "$(dirname "$0")/lib/common.sh"

tiny=$src/data/tiny.swf
"$tool" schedulers
"$tool" simulate "$tiny" "easy reserve_depth=2" mean-wait
"$tool" simulate "$tiny" "sjf tie=widest"
"$tool" stream-simulate "$tiny" "conservative reserve_depth=4"
"$tool" stream-simulate "$tiny" gang2
# The spec names its trace relative to the source tree.
(cd "$src" && "$tool" campaign data/smoke_campaign.spec --quiet --out "$work/smoke")
(cd "$src" && "$tool" campaign data/smoke_campaign.spec --quiet --rank makespan --out "$work/rank")
