#!/bin/sh
# adscope study and adscope query against checked-in golden bytes. The
# identity suite (cli_report_identity.sh) compares a build with itself
# across thread counts and io modes; this test compares it with the
# bytes an earlier build wrote, so a change that moves every thread
# count the same way still fails. Both goldens come from the
# `adscope gen --households 40 --hours 1` trace (seed 42):
#   study.txt  the study report (everything after the first blank line)
#   query.txt  the /query/{summary,users,traffic,infra}/* bodies
# and must match byte for byte, every field, at --threads 1 and
# --threads 3.
#
# Usage: cli_golden.sh path/to/adscope path/to/golden-dir [--update]
# --update rewrites the goldens from this build (--threads 1); use it
# only for an intended output change (tests/golden/regenerate.sh).
set -eu

adscope=$1
golden=$(cd "$2" && pwd)
update=${3:-}
work=$(mktemp -d "${TMPDIR:-/tmp}/adscope_cli_golden.XXXXXX")
trap 'rm -rf "$work"' EXIT INT TERM
cd "$work"

"$adscope" gen --out t.adst --households 40 --hours 1 > /dev/null

# outputs THREADS: write study.THREADS and query.THREADS.
outputs() {
  "$adscope" study --trace t.adst --threads "$1" > "study.raw.$1" \
      2> "study.err.$1"
  sed '1,/^$/d' "study.raw.$1" > "study.$1"
  "$adscope" query --trace t.adst --threads "$1" '/query/summary/*' \
      '/query/users/*' '/query/traffic/*' '/query/infra/*' \
      > "query.$1" 2> /dev/null
}

if [ "$update" = "--update" ]; then
  outputs 1
  cp study.1 "$golden/study.txt"
  cp query.1 "$golden/query.txt"
  echo "cli golden: rewrote $golden/study.txt and $golden/query.txt"
  exit 0
fi

# same GOLDEN ACTUAL THREADS: fail with a diff unless the files match.
same() {
  if ! cmp -s "$1" "$2"; then
    echo "$2 at --threads $3 differs from $1:" >&2
    diff "$1" "$2" >&2 || true
    exit 1
  fi
}

outputs 1
same "$golden/study.txt" study.1 1
same "$golden/query.txt" query.1 1
outputs 3
same "$golden/study.txt" study.3 3
same "$golden/query.txt" query.3 3
echo "cli golden: ok"
