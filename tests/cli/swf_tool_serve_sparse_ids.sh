#!/bin/sh
# Eleven client-chosen ids, each just within the dense table's gap limit
# (4096 ids past twice the jobs held) of the table the previous one grew:
# a rule that doubled the table at every one of them took a fresh
# daemon to about 1 GB peak RSS. The daemon's VmHWM must stay at or
# under 64 MB (Linux only: it is read from /proc).
. "$(dirname "$0")/lib/common.sh"

start_daemon sparse.sock "scheduler=fcfs nodes=4"
for id in 4095 8191 12287 20479 36863 69631 135167 266239 528383 1052671 2101247; do
  expect_exit 0 "$tool" client cmd "SUBMIT 1 100 id=$id" --socket sparse.sock
  expect_output "OK id=$id "
done
hwm_kb=$(awk '/^VmHWM:/ {print $2}' "/proc/$daemon/status")
echo "sparse-id daemon VmHWM: $hwm_kb kB"
stop_daemon
if [ "$hwm_kb" -gt 65536 ]; then
  echo "VmHWM $hwm_kb kB is above the 65536 kB bound"
  exit 1
fi
