#!/bin/sh
# The differential parser fuzzer: randomized SWF documents (valid lines,
# mutations, truncations, junk bytes, CR/CRLF, comment soup) through the
# reference and production readers at randomized thread counts, chunk
# sizes, window sizes and reader options. Any divergence in records,
# header, errors or stop point fails with the (seed, case) pair printed.
# Under a sanitizer build this also covers the in-place field scanner
# (ASan/UBSan) and the parallel parse's fan-out and stitch (TSan).
. "$(dirname "$0")/lib/common.sh"

"$tool" fuzz parse 1 400
"$tool" fuzz parse 20260730 400
