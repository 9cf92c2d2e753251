#!/bin/sh
# Golden-output test of a deterministic bench: runs it at XR_SCALE=30000
# with the default pool size and miss latency and diffs its stdout against
# a recorded file. A changed count (scans, page misses) shows as a diff.
#
#   usage: bench_golden.sh <bench binary> <golden file>
set -eu
out=$(mktemp "${TMPDIR:-/tmp}/bench_golden.XXXXXX")
trap 'rm -f "$out"' EXIT
env -u XR_BUFFER_PAGES -u XR_MISS_LATENCY_US XR_SCALE=30000 "$1" >"$out"
diff -u "$2" "$out"
