#!/bin/sh
# adscope study through the CLI: the report (everything after the first
# blank line; the line above it names the io mode and thread count) must
# be byte-identical across thread counts, io modes and the --log tee,
# and a pcap export of the same trace must report identically at every
# thread count. A malformed --threads value must be a usage error.
#
# Usage: cli_report_identity.sh path/to/adscope
set -eu

adscope=$1
work=$(mktemp -d "${TMPDIR:-/tmp}/adscope_cli_identity.XXXXXX")
trap 'rm -rf "$work"' EXIT INT TERM
cd "$work"

"$adscope" gen --out t.adst --households 40 --hours 1 > /dev/null
"$adscope" export-pcap --trace t.adst --out t.pcap > /dev/null

# report NAME ARGS...: run `adscope study ARGS...` and keep its report
# (minus the --log summary line) in NAME.
report() {
  name=$1
  shift
  "$adscope" study "$@" > "$name.out" 2> "$name.err"
  sed '1,/^$/d' "$name.out" | sed '/^http\.log: [0-9]* lines -> /d' > "$name"
}

# same REFERENCE NAME: fail with a diff unless the two reports match.
same() {
  if ! cmp -s "$1" "$2"; then
    echo "report $2 differs from $1:" >&2
    diff "$1" "$2" >&2 || true
    exit 1
  fi
}

report serial --trace t.adst --threads 1 --io mmap
test -s serial || { echo "empty serial report" >&2; exit 1; }
report serial_stream --trace t.adst --threads 1 --io stream
same serial serial_stream
for io in mmap stream; do
  report "sharded_${io}" --trace t.adst --threads 3 --io "$io"
  same serial "sharded_${io}"
done
report log --trace t.adst --threads 3 --log http.log
same serial log
test -s http.log || { echo "--log wrote no http.log" >&2; exit 1; }

report pcap1 --pcap t.pcap --threads 1
test -s pcap1 || { echo "empty pcap report" >&2; exit 1; }
report pcap3 --pcap t.pcap --threads 3
same pcap1 pcap3
# A negative or non-numeric count is a usage error (exit 2), not a
# wrapped 2^64-1 or a silent serial run.
for bad in -1 abc; do
  status=0
  "$adscope" study --trace t.adst --threads "$bad" > /dev/null 2>&1 || status=$?
  if [ "$status" -ne 2 ]; then
    echo "--threads $bad exited $status, expected 2" >&2
    exit 1
  fi
done
echo "cli report identity: ok"
