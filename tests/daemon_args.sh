#!/bin/sh
# adscoped's option check: an option the usage text does not list is a
# usage error (exit 2, "unknown option" and the usage on stderr),
# rejected before the world is built or any socket is bound. --help
# prints the usage and exits 0.
#
# Usage: daemon_args.sh path/to/adscoped
set -eu

# expect STATUS PATTERN COMMAND...: run COMMAND, check its exit status
# and that stderr contains PATTERN.
expect() {
  want=$1
  pattern=$2
  shift 2
  status=0
  "$@" > /dev/null 2> daemon_args.err || status=$?
  if [ "$status" -ne "$want" ] || ! grep -q -- "$pattern" daemon_args.err; then
    echo "$* exited $status, expected $want with '$pattern':" >&2
    cat daemon_args.err >&2
    exit 1
  fi
}

work=$(mktemp -d "${TMPDIR:-/tmp}/adscope_daemon_args.XXXXXX")
trap 'rm -rf "$work"' EXIT INT TERM
cd "$work"
adscoped=$1
expect 0 "usage:" "$adscoped" --help
expect 2 "unknown option --thread$" "$adscoped" --thread 4
expect 2 "unknown option --window$" "$adscoped" --port 0 --window 60
expect 2 "unknown option --public-x$" "$adscoped" --public-x
expect 2 "usage:" "$adscoped" --bogus=1
echo "daemon args: ok"
