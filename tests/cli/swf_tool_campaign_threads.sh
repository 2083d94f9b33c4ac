#!/bin/sh
# Campaign config lines are SimulationSpec keys plus label=, outages=
# and validate=. The fault (checkpoint, retry limit, invariant checkers)
# and outage configs run at 1 and 4 worker threads and must write
# byte-identical cell CSVs; a line in the removed '+' grammar fails with
# the key=value hint, and announce= (campaign outages are never
# announced) fails naming the key.
. "$(dirname "$0")/lib/common.sh"

printf '%s\n' \
  "workload = trace:$src/data/contention.swf" \
  'workload = lublin99 jobs=200' \
  'scheduler = easy' \
  'scheduler = conservative' \
  'config = faults=1 mtbf=9000 repair=600 checkpoint=300 dump=20 read=40 retry_limit=3 validate=1' \
  'config = outages=1' \
  'replications = 2' \
  'seed = 11' \
  'nodes = auto' > faults.spec
"$tool" campaign faults.spec --quiet --threads 1 --out t1
"$tool" campaign faults.spec --quiet --threads 4 --out t4
cmp t1_cells.csv t4_cells.csv

printf '%s\n' 'workload = lublin99 jobs=50' 'scheduler = fcfs' \
  'config = open+faults' > plus.spec
expect_exit 1 "$tool" campaign plus.spec --quiet --out plus
expect_output 'key=value'
printf '%s\n' 'workload = lublin99 jobs=50' 'scheduler = fcfs' \
  'config = outages=1 announce=0' > announce.spec
expect_exit 1 "$tool" campaign announce.spec --quiet --out announce
expect_output 'announce='
