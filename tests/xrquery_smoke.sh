#!/bin/sh
# End-to-end smoke test of the xrquery example: generates a small Department
# database, runs one path query three times and checks that every run
# prints the same match count and that querying leaves the file size
# unchanged. A query naming a tag the database lacks must answer 0 matches
# and exit 0.
#
#   usage: xrquery_smoke.sh <path to xrquery>
set -eu
xrquery=$1
dir=$(mktemp -d "${TMPDIR:-/tmp}/xrquery_smoke.XXXXXX")
trap 'rm -rf "$dir"' EXIT
db=$dir/smoke.db

fail() {
  echo "FAIL: $*" >&2
  exit 1
}

# Prints the match count of `xrquery query <db> <path>`; fails on a
# non-zero exit.
matches() {
  out=$("$xrquery" query "$db" "$1") || fail "query '$1' exited $?"
  printf '%s\n' "$out" | sed -n '1s/.*-> \([0-9][0-9]*\) matches.*/\1/p'
}

"$xrquery" gen "$db" department 3000 >/dev/null
size=$(wc -c <"$db")
first=$(matches "//employee//name")
[ -n "$first" ] && [ "$first" -gt 0 ] || fail "no match count: '$first'"
for run in 2 3; do
  count=$(matches "//employee//name")
  [ "$count" = "$first" ] || fail "run $run: $count matches, run 1: $first"
  now=$(wc -c <"$db")
  [ "$now" = "$size" ] || fail "run $run: file grew from $size to $now B"
done
unknown=$(matches "//nothing//name")
[ "$unknown" = "0" ] || fail "unknown tag: '$unknown' matches"
echo "ok: $first matches on every run, file stays $size B"
