#!/bin/sh
# The examples' --threads parsing: a malformed count is a usage error
# (exit 2, usage line on stderr), a count above the thread ceiling exits
# 1 with the ceiling message. Both are rejected before any work starts.
#
# Usage: example_args.sh path/to/classify_trace path/to/adblock_detector
set -eu

# expect STATUS PATTERN COMMAND...: run COMMAND, check its exit status
# and that stderr contains PATTERN.
expect() {
  want=$1
  pattern=$2
  shift 2
  status=0
  "$@" > /dev/null 2> example_args.err || status=$?
  if [ "$status" -ne "$want" ] || ! grep -q -- "$pattern" example_args.err; then
    echo "$* exited $status, expected $want with '$pattern':" >&2
    cat example_args.err >&2
    exit 1
  fi
}

work=$(mktemp -d "${TMPDIR:-/tmp}/adscope_example_args.XXXXXX")
trap 'rm -rf "$work"' EXIT INT TERM
cd "$work"
for example in "$1" "$2"; do
  for bad in abc -1 3x ''; do
    expect 2 "usage:" "$example" --threads "$bad"
  done
  expect 2 "usage:" "$example" --threads
  expect 1 "exceeds the maximum of 256" "$example" --threads 257
done
echo "example args: ok"
