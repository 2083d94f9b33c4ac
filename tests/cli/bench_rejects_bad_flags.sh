#!/bin/sh
# Bench flags: an unknown flag (--dump-csv included) and a flag missing
# its value exit 2, naming the flag, before any work is done. Skipped in
# a build without the benches (PJSB_BUILD_BENCH=OFF).
. "$(dirname "$0")/lib/common.sh"

profile=$build/bench/bench_profile
swf=$build/bench/bench_swf
if [ ! -x "$profile" ] || [ ! -x "$swf" ]; then
  echo "benches not built: skipped"
  exit 77
fi
for args in '--qiuck' '--quick --json' '--dump-csv' '--dump-csv x.csv' 'quick'; do
  expect_exit 2 timeout 10 "$profile" $args
done
for args in '--qiuck' '--json' '--dump-csv x.csv'; do
  expect_exit 2 timeout 10 "$swf" $args
done
expect_exit 2 "$profile" --qiuck
expect_output 'unknown flag --qiuck'
expect_exit 2 "$profile" --quick --json
expect_output '--json needs a value'
expect_exit 2 "$swf" --dump-csv x.csv
expect_output 'unknown flag --dump-csv'
