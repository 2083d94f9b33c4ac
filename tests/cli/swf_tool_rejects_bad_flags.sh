#!/bin/sh
# One flag reader serves every subcommand: a missing or doubled
# endpoint, out-of-range or malformed numbers, repeated, value-less and
# unknown flags are usage errors (exit 2) raised before any file is read
# or socket touched. None of the named files exist, so a read would exit
# 1; serve runs under timeout in case it starts. Messages name the flag
# as typed ('-', not '_'). serve also refuses a spec key only a replay
# applies, and a spec beside --resume. An unknown subcommand names
# itself and prints the catalogue.
. "$(dirname "$0")/lib/common.sh"

s=serve.sock
while read -r args; do
  expect_exit 2 timeout 10 "$tool" $args
done <<LIST
client status
client status --socket s --port 5
client status --port 70000
client replay t.swf --socket s --whatif-every abc
client replay t.swf --socket s --query-every -3
client barrage 4x 1e3 --socket s
client status --socket s --socket t
serve scheduler=easy --socket $s --port 5
serve scheduler=easy --socket $s --decisions a --decisions b
serve faults=7 --socket $s
serve trace=t.jsonl --socket $s
serve timeseries=ts.csv --socket $s
serve profile=p.json --socket $s
serve lookahead=5 --socket $s
serve max_jobs=3 --socket $s
serve threads=8 --socket $s
serve closed_loop=1 --socket $s
serve announce=0 --socket $s
serve scheduler=fcfs --socket $s --resume c.snap
campaign spec --threads 4x
campaign --demo spec
campaign
campaign spec --rank nope
campaign spec --out a --out b
whatif snap 4 3600 --offset 1x
whatif snap 4 3600 --offset 9223372036854775000
whatif snap 4 1099511627777
simulate t.swf easy --faults 7 --backoff 9223372036854775000
simulate t.swf easy --overrun grace --grace 9223372036854775000
resume snap --golden
validate t.swf --bogus 1
validate t.swf easy g --bogus 1
fuzz 1 --bogus 1
stats t.swf --bogus 1
anonymize a b --bogus 1
generate lublin99 10 64 0.5 o.swf --bogus 1
generate-stream lublin99 10 64 0 o.swf --bogus 1
convert-iacct r o.swf site --bogus 1
convert-nqs r o.swf site --bogus 1
simulate t.swf easy --bogus 1
stream-simulate t.swf easy --bogus 1
trace-summary t.jsonl --bogus 1
snapshot t.swf easy 10 o.snap --bogus 1
resume snap --bogus 1
whatif snap 4 3600 --bogus 1
serve scheduler=easy --socket $s --bogus 1
client status --socket s --bogus 1
campaign spec --bogus 1
schedulers --bogus 1
LIST

expect_exit 2 "$tool" client status --socket s --socket t
expect_output '--socket given twice'
expect_exit 2 "$tool" client replay t.swf --socket s --whatif-every abc
expect_output '--whatif-every must be'
expect_exit 2 "$tool" whatif snap 4 3600 --offset 9223372036854775000
expect_output '--offset must be an integer <= 1099511627776'
expect_exit 2 "$tool" simulate t.swf easy --overrun grace --grace 9223372036854775000
expect_output 'grace=9223372036854775000 is above the time bound'
expect_exit 2 "$tool" serve faults=7 --socket "$s"
expect_output 'faults= has no effect on a served engine'
expect_exit 2 "$tool" frobnicate
expect_output "unknown or malformed command 'frobnicate'"
expect_output 'serve <sim-spec>'
