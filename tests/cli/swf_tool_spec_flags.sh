#!/bin/sh
# Run flags are SimulationSpec keys and nothing else: the removed
# --parser and --retry spellings, a misspelled key and a key carrying
# its own '=' are usage errors (exit 2) naming the flag as typed; spec
# keys such as --threads and --retry-limit run.
. "$(dirname "$0")/lib/common.sh"

for bad in '--parser fast' '--retry 3' '--retry-limt 3' '--trace=x y'; do
  expect_exit 2 "$tool" simulate "$src/data/tiny.swf" easy $bad
  expect_output "unknown flag ${bad%% *}"
done
expect_exit 0 "$tool" simulate "$src/data/tiny.swf" easy --threads 8 --retry-limit 2
