#!/usr/bin/env bash
# Out-of-core scale smoke test: prove the sharded wide-table build handles a
# population far beyond the unit-test scale inside a declared memory budget.
#
# Two separate processes on purpose: the generator's RSS high-water mark
# (it simulates whole months in memory) must not pollute the build
# process's peak-RSS gate — VmHWM is per process from exec.
#
# Overrides:
#   SCALE_CUSTOMERS  population per month            (default 50000)
#   SCALE_SHARDS     hash shards                     (default 8)
#   SCALE_MONTHS     recorded months                 (default 2)
#   SCALE_RSS_MB     build peak-RSS ceiling in MB    (default 900)
#
# Calibration at the default scale (50k customers, 8 shards): the sharded
# build peaks at ~620 MB with 4 concurrent shards, while the in-memory
# whole-month build peaks at ~1270 MB. The 900 MB default sits between the
# two, so the gate fails if the build ever falls back to materializing
# whole months (the regression it exists to catch) while leaving ~45%
# headroom over the healthy path for allocator noise.
set -euo pipefail

cd "$(dirname "$0")/.."

CUSTOMERS="${SCALE_CUSTOMERS:-50000}"
SHARDS="${SCALE_SHARDS:-8}"
MONTHS="${SCALE_MONTHS:-2}"
RSS_MB="${SCALE_RSS_MB:-900}"

WORK="$(mktemp -d)"
trap 'rm -rf "$WORK"' EXIT

echo "== scale-smoke: ${CUSTOMERS} customers x ${MONTHS} months, ${SHARDS} shards, RSS ceiling ${RSS_MB} MB"

go build -o "$WORK/churnctl" ./cmd/churnctl

gen_start=$(date +%s%N)
"$WORK/churnctl" generate -out "$WORK/wh" \
  -customers "$CUSTOMERS" -months "$MONTHS" -seed 42 -shards "$SHARDS" -burnin 1
gen_ms=$(( ($(date +%s%N) - gen_start) / 1000000 ))
echo "== scale-smoke: generate wall ${gen_ms} ms (${CUSTOMERS} customers x ${MONTHS} months, ${SHARDS} shards)"

"$WORK/churnctl" inspect -warehouse "$WORK/wh" | tee "$WORK/inspect.txt"
grep -q "shards=${SHARDS}" "$WORK/inspect.txt" || {
  echo "scale-smoke: inspect does not report shards=${SHARDS}" >&2
  exit 1
}

"$WORK/churnctl" build -warehouse "$WORK/wh" -rss-limit-mb "$RSS_MB"

echo "== scale-smoke: OK"
