# Sourced by every tests/cli/*.sh check. CMake registers each check as
# the ctest of its file name, run as
#
#   sh tests/cli/<check>.sh <build-dir> <source-dir>
#
# with a timeout; exit 77 marks it skipped (a tool it needs is missing).
# This file sets $build, $src and $tool (swf_tool), and moves into an
# empty work directory of the check's own, <build-dir>/cli/<check>,
# which keeps its files after a failure.
set -eu
build=$1
src=$2
tool=$build/examples/swf_tool
work=$build/cli/$(basename "$0" .sh)
rm -rf "$work"
mkdir -p "$work"
cd "$work"

# expect_exit <status> <command...>: run the command with its output in
# out.txt, and fail the check unless it exits with <status>.
expect_exit() {
  want=$1
  shift
  got=0
  "$@" < /dev/null > out.txt 2>&1 || got=$?
  if [ "$got" -ne "$want" ]; then
    echo "exit $got, want $want: $*"
    cat out.txt
    exit 1
  fi
}

# expect_output <text>: fail the check unless the last expect_exit's
# output holds <text>.
expect_output() {
  if ! grep -qF -- "$1" out.txt; then
    echo "output lacks '$1':"
    cat out.txt
    exit 1
  fi
}

# need_python: skip the check when python3 is not on PATH.
need_python() {
  if ! command -v python3 > /dev/null 2>&1; then
    echo "python3 not found: skipped"
    exit 77
  fi
}

# start_daemon <socket> <serve arguments...>: start `swf_tool serve` in
# the background on a Unix socket in the work directory, its output in
# daemon.log, and wait until it listens. $daemon is its pid until
# stop_daemon reaps it; on any other way out of the check the EXIT trap
# kills and reaps it.
daemon=
stop_leftover_daemon() {
  code=$?
  if [ -n "$daemon" ]; then
    kill -KILL "$daemon" 2> /dev/null || true
    wait "$daemon" 2> /dev/null || true
  fi
  exit "$code"
}
trap stop_leftover_daemon EXIT
trap 'exit 1' HUP INT TERM
start_daemon() {
  socket=$1
  shift
  "$tool" serve "$@" --socket "$socket" > daemon.log 2>&1 &
  daemon=$!
  tries=0
  until [ -S "$socket" ]; do
    tries=$((tries + 1))
    if [ "$tries" -gt 100 ] || ! kill -0 "$daemon" 2> /dev/null; then
      echo "swf_tool serve $* did not listen on $socket:"
      cat daemon.log
      exit 1
    fi
    sleep 0.1
  done
}

# stop_daemon: SHUTDOWN the daemon, reap it, and fail the check unless
# it exited 0.
stop_daemon() {
  "$tool" client shutdown --socket "$socket" > /dev/null
  status=0
  wait "$daemon" || status=$?
  daemon=
  if [ "$status" -ne 0 ]; then
    echo "swf_tool serve exited $status:"
    cat daemon.log
    exit 1
  fi
}
