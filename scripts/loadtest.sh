#!/usr/bin/env bash
# Serving load smoke: train a tiny artifact with an embedded feature-vector
# snapshot, start churnd, and drive an open-loop churnload run against it.
# The run self-gates — non-zero exit when p99 exceeds LOAD_MAX_P99 or any
# request comes back non-2xx — so `make loadtest` doubles as CI's serving
# latency regression guard. The JSON report lands in LOAD.json.
#
# A second, mixed read/write pass (-ingest-mix) interleaves event posts to
# /v1/events with the scores under the same gates, so the latency cost of
# ingest-while-scoring is regression-guarded too. Set LOAD_INGEST_MIX=0 to
# skip it.
#
# Tunables: LOAD_PORT, LOAD_RPS, LOAD_DURATION, LOAD_CONNS, LOAD_MAX_P99,
# LOAD_OUT, LOAD_INGEST_MIX, LOAD_MIX_OUT.
set -euo pipefail

PORT="${LOAD_PORT:-18090}"
RPS="${LOAD_RPS:-300}"
DURATION="${LOAD_DURATION:-10s}"
CONNS="${LOAD_CONNS:-16}"
MAX_P99="${LOAD_MAX_P99:-250ms}"
OUT="${LOAD_OUT:-LOAD.json}"
INGEST_MIX="${LOAD_INGEST_MIX:-0.1}"
MIX_OUT="${LOAD_MIX_OUT:-LOAD_MIX.json}"
WORK="$(mktemp -d)"
CHURND_PID=""
cleanup() {
    if [ -n "$CHURND_PID" ]; then
        kill "$CHURND_PID" 2>/dev/null || true
        wait "$CHURND_PID" 2>/dev/null || true
    fi
    rm -rf "$WORK"
}
trap cleanup EXIT INT TERM

echo "== build =="
go build -o "$WORK/churnctl" ./cmd/churnctl
go build -o "$WORK/churnd" ./cmd/churnd
go build -o "$WORK/churnload" ./cmd/churnload

echo "== generate + train (with vector snapshot) =="
"$WORK/churnctl" generate -out "$WORK/wh" -customers 500 -months 4
"$WORK/churnctl" train -warehouse "$WORK/wh" -out "$WORK/model.tcpa" -trees 25 -precompute

echo "== start churnd on :$PORT =="
"$WORK/churnd" -artifact "$WORK/model.tcpa" -warehouse "$WORK/wh" -addr "127.0.0.1:$PORT" &
CHURND_PID=$!
i=0
until curl -sf "http://127.0.0.1:$PORT/readyz" > /dev/null 2>&1; do
    i=$((i + 1))
    [ "$i" -le 50 ] || { echo "loadtest: churnd never became ready"; exit 1; }
    kill -0 "$CHURND_PID" 2>/dev/null || { echo "loadtest: churnd exited early"; exit 1; }
    sleep 0.2
done

echo "== open-loop load: $RPS rps for $DURATION (gates: p99 <= $MAX_P99, zero non-2xx) =="
"$WORK/churnload" -addr "127.0.0.1:$PORT" -rps "$RPS" -duration "$DURATION" \
    -conns "$CONNS" -out "$OUT" -max-p99 "$MAX_P99" -max-non2xx 0

if [ "$INGEST_MIX" != "0" ]; then
    echo "== mixed load: $RPS rps, ingest mix $INGEST_MIX (same gates) =="
    "$WORK/churnload" -addr "127.0.0.1:$PORT" -rps "$RPS" -duration "$DURATION" \
        -conns "$CONNS" -ingest-mix "$INGEST_MIX" -name BenchmarkChurnloadMixed \
        -out "$MIX_OUT" -max-p99 "$MAX_P99" -max-non2xx 0
fi

echo "loadtest: OK (report in $OUT)"
