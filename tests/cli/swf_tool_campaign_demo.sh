#!/bin/sh
# The built-in demo campaign runs end to end and writes its outputs.
. "$(dirname "$0")/lib/common.sh"

"$tool" campaign --demo --quiet --out demo
for file in demo_cells.csv demo_summary.csv demo.json; do
  [ -s "$file" ] || { echo "campaign --demo wrote no $file"; exit 1; }
done
