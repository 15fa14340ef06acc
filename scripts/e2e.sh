#!/usr/bin/env bash
# End-to-end serving smoke test: train a tiny artifact on synthetic data,
# start churnd, score one batch over HTTP and assert exact score parity with
# the batch path (`churnctl score -full`), then knock out a raw table and
# assert degraded-mode scoring still serves with the mask reported. The
# final section exercises the streaming path: ingest a recharge event into a
# live churnd serving a -precompute artifact and assert the served score
# moves on the very next request, survives POST /v1/refresh and a restart
# over the unmerged log unchanged AND lands bit-identical to a full rebuild
# over the merged warehouse. Run via
# `make e2e`; CI runs the same script. Needs the go toolchain, bash and
# standard POSIX tools.
set -euo pipefail

PORT="${E2E_PORT:-18080}"
WORK="$(mktemp -d)"
CHURND_PID=""
cleanup() {
    # Always reap the background daemon, whatever path exited the script.
    if [ -n "$CHURND_PID" ]; then
        kill "$CHURND_PID" 2>/dev/null || true
        wait "$CHURND_PID" 2>/dev/null || true
    fi
    rm -rf "$WORK"
}
trap cleanup EXIT INT TERM

wait_healthy() {
    local i=0
    until curl -sf "http://127.0.0.1:$PORT/readyz" > /dev/null 2>&1; do
        i=$((i + 1))
        [ "$i" -le 50 ] || { echo "e2e: churnd never became ready"; exit 1; }
        kill -0 "$CHURND_PID" 2>/dev/null || { echo "e2e: churnd exited early"; exit 1; }
        sleep 0.2
    done
}

echo "== build =="
go build -o "$WORK/churnctl" ./cmd/churnctl
go build -o "$WORK/churnd" ./cmd/churnd

echo "== generate + train =="
"$WORK/churnctl" generate -out "$WORK/wh" -customers 500 -months 4
"$WORK/churnctl" train -warehouse "$WORK/wh" -out "$WORK/model.tcpa" -trees 20

echo "== batch scores (churnctl score) =="
# rank,imsi,score at full precision; strip the header.
"$WORK/churnctl" score -warehouse "$WORK/wh" -model "$WORK/model.tcpa" -top 0 -full \
    | tail -n +2 > "$WORK/batch.csv"
N="$(wc -l < "$WORK/batch.csv")"
[ "$N" -gt 0 ] || { echo "e2e: batch score produced no rows"; exit 1; }
echo "   $N customers scored in batch"

echo "== start churnd on :$PORT =="
"$WORK/churnd" -artifact "$WORK/model.tcpa" -warehouse "$WORK/wh" -addr "127.0.0.1:$PORT" &
CHURND_PID=$!
wait_healthy
curl -sf "http://127.0.0.1:$PORT/healthz"; echo

echo "== served scores (POST /v1/score) =="
# One batch request over every scored customer, in batch.csv order.
IDS="$(cut -d, -f2 "$WORK/batch.csv" | paste -sd, -)"
curl -sf -X POST -d "{\"ids\":[$IDS]}" "http://127.0.0.1:$PORT/v1/score" > "$WORK/served.json"

echo "== parity check =="
# Pull the scores array back out and compare string-for-string against the
# batch CSV: Go's JSON float encoding round-trips float64 exactly, and
# churnctl -full prints the same shortest representation, so bit-identical
# scores compare equal as text.
tr -d ' \n' < "$WORK/served.json" \
    | sed -n 's/.*"scores":\[\([^]]*\)\].*/\1/p' \
    | tr ',' '\n' > "$WORK/served.txt"
printf '\n' >> "$WORK/served.txt" # tr leaves the last line unterminated
cut -d, -f3 "$WORK/batch.csv" > "$WORK/batch.txt"
if ! cmp -s "$WORK/batch.txt" "$WORK/served.txt"; then
    echo "e2e: served scores differ from batch scores"
    diff "$WORK/batch.txt" "$WORK/served.txt" | head -10
    exit 1
fi
echo "   $N served scores bit-identical to churnctl score"

curl -sf "http://127.0.0.1:$PORT/metrics"; echo

echo "== degraded mode (web feed knocked out) =="
kill "$CHURND_PID"
wait "$CHURND_PID" 2>/dev/null || true
CHURND_PID=""
rm -rf "$WORK/wh/web"

# Strict scoring must refuse the broken warehouse...
if "$WORK/churnctl" score -warehouse "$WORK/wh" -model "$WORK/model.tcpa" -top 5 > /dev/null 2>&1; then
    echo "e2e: strict score survived a missing raw table"
    exit 1
fi
# ...degraded scoring serves it and names the imputed groups on stderr.
DEG_ERR="$("$WORK/churnctl" score -degraded -warehouse "$WORK/wh" -model "$WORK/model.tcpa" -top 5 2>&1 >/dev/null)"
echo "$DEG_ERR" | grep -q "degraded groups: F1,F3" \
    || { echo "e2e: churnctl score -degraded did not report mask: $DEG_ERR"; exit 1; }

"$WORK/churnd" -degraded -artifact "$WORK/model.tcpa" -warehouse "$WORK/wh" -addr "127.0.0.1:$PORT" &
CHURND_PID=$!
wait_healthy
READY="$(curl -sf "http://127.0.0.1:$PORT/readyz")"
echo "$READY" | grep -q '"degraded":"F1,F3"' \
    || { echo "e2e: degraded churnd readyz missing mask: $READY"; exit 1; }
curl -sf "http://127.0.0.1:$PORT/metrics" | grep -q '"degraded_groups":"F1,F3"' \
    || { echo "e2e: degraded_groups missing from /metrics"; exit 1; }
ONE_ID="$(cut -d, -f2 "$WORK/batch.csv" | head -1)"
curl -sf -X POST -d "{\"id\":$ONE_ID}" "http://127.0.0.1:$PORT/v1/score" \
    | grep -q '"degraded":"F1,F3"' \
    || { echo "e2e: degraded score response missing mask"; exit 1; }
echo "   degraded window served with mask F1,F3 via churnctl, /readyz, /metrics and /v1/score"

echo "== sharded warehouse layout =="
# The same world landed plain and hash-sharded must be interchangeable:
# month discovery, inspect, train/score and the out-of-core build all work
# on either layout, and the built frame is bit-identical across shard
# counts (asserted via the frame checksum).
"$WORK/churnctl" generate -out "$WORK/wh1" -customers 500 -months 4 -shards 1
"$WORK/churnctl" generate -out "$WORK/wh4" -customers 500 -months 4 -shards 4

"$WORK/churnctl" inspect -warehouse "$WORK/wh4" | tee "$WORK/inspect4.txt"
grep -q "shards=4" "$WORK/inspect4.txt" \
    || { echo "e2e: inspect does not report sharded layout"; exit 1; }
# Row counts must agree between layouts (shards= annotation aside).
"$WORK/churnctl" inspect -warehouse "$WORK/wh1" | sort > "$WORK/inspect1.txt"
sed 's/ shards=4$//' "$WORK/inspect4.txt" | sort > "$WORK/inspect4n.txt"
cmp -s "$WORK/inspect1.txt" "$WORK/inspect4n.txt" \
    || { echo "e2e: plain and sharded inspect disagree"; diff "$WORK/inspect1.txt" "$WORK/inspect4n.txt"; exit 1; }

# The daily landing (one event-log batch per day, merged at month end) holds
# the same tables and row counts and leaves no pending "events" line, and
# the feature build reads it. Its checksum is not compared: it stores calls
# in day order, so per-customer call sums run in another order (DESIGN.md §12).
"$WORK/churnctl" generate -out "$WORK/whd" -customers 500 -months 4 -daily
"$WORK/churnctl" inspect -warehouse "$WORK/whd" | sort > "$WORK/inspectd.txt"
cmp -s "$WORK/inspect1.txt" "$WORK/inspectd.txt" \
    || { echo "e2e: plain and daily inspect disagree"; diff "$WORK/inspect1.txt" "$WORK/inspectd.txt"; exit 1; }
SUMD="$("$WORK/churnctl" build -warehouse "$WORK/whd" -checksum | sed -n 's/^frame_checksum=//p')"
[ -n "$SUMD" ] || { echo "e2e: build over the daily landing printed no checksum"; exit 1; }
echo "   daily landing: inspect identical to shards=1, frame checksum $SUMD"

SUM1="$("$WORK/churnctl" build -warehouse "$WORK/wh1" -checksum | sed -n 's/^frame_checksum=//p')"
SUM4="$("$WORK/churnctl" build -warehouse "$WORK/wh4" -checksum | sed -n 's/^frame_checksum=//p')"
[ -n "$SUM1" ] && [ "$SUM1" = "$SUM4" ] \
    || { echo "e2e: frame checksum differs across shard counts: $SUM1 vs $SUM4"; exit 1; }
echo "   frame checksum $SUM1 identical for shards=1 and shards=4"

# Training and batch scoring read the sharded layout through the same
# month-discovery path as the plain one.
"$WORK/churnctl" train -warehouse "$WORK/wh4" -out "$WORK/model4.tcpa" -trees 20
"$WORK/churnctl" score -warehouse "$WORK/wh4" -model "$WORK/model4.tcpa" -top 0 -full \
    | tail -n +2 > "$WORK/batch4.csv"
N4="$(wc -l < "$WORK/batch4.csv")"
[ "$N4" -gt 0 ] || { echo "e2e: sharded batch score produced no rows"; exit 1; }
echo "   trained and scored $N4 customers from the sharded layout"

# One model, two landings of the same world: the ranked lists must be the
# same bytes (the graph fold and its seeds never see the layout's row order).
"$WORK/churnctl" score -warehouse "$WORK/wh1" -model "$WORK/model4.tcpa" -top 0 -full \
    | tail -n +2 > "$WORK/batch1.csv"
cmp -s "$WORK/batch1.csv" "$WORK/batch4.csv" \
    || { echo "e2e: plain and sharded landings score differently:"; diff "$WORK/batch1.csv" "$WORK/batch4.csv" | head; exit 1; }
echo "   plain and 4-shard landings score byte-identically"

# Degraded assembly is the same shard-by-shard build: with the web feed
# knocked out of both landings, the imputed scores and the mask must not
# depend on the layout either, and the build reports what it streamed.
cp -r "$WORK/wh1" "$WORK/wh1d"
cp -r "$WORK/wh4" "$WORK/wh4d"
rm -rf "$WORK/wh1d/web" "$WORK/wh4d/web"
for L in 1 4; do
    "$WORK/churnctl" score -degraded -warehouse "$WORK/wh${L}d" -model "$WORK/model4.tcpa" -top 0 -full \
        > "$WORK/deg$L.csv" 2> "$WORK/deg$L.err"
    grep -q "degraded groups: F1,F3" "$WORK/deg$L.err" \
        || { echo "e2e: score -degraded on the $L-shard landing did not report F1,F3:"; cat "$WORK/deg$L.err"; exit 1; }
done
cmp -s "$WORK/deg1.csv" "$WORK/deg4.csv" \
    || { echo "e2e: degraded scores differ between landings:"; diff "$WORK/deg1.csv" "$WORK/deg4.csv" | head; exit 1; }
DEG_BUILD="$("$WORK/churnctl" build -degraded -warehouse "$WORK/wh4d" 2>/dev/null)"
echo "$DEG_BUILD" | grep -q "shards=4 raw_rows=[1-9]" \
    || { echo "e2e: build -degraded did not report its shards and rows: $DEG_BUILD"; exit 1; }
echo "   degraded scores byte-identical across landings; build -degraded streamed 4 shards"

echo "== precomputed vectors (train -precompute) =="
# The same training config with -precompute must not change a single score:
# the embedded snapshot is the strict serving frame, persisted.
TRAIN_OUT="$("$WORK/churnctl" train -warehouse "$WORK/wh4" -out "$WORK/model4p.tcpa" -trees 20 -precompute)"
echo "$TRAIN_OUT" | grep -q "precomputed" \
    || { echo "e2e: train -precompute did not report a snapshot"; exit 1; }
"$WORK/churnctl" score -warehouse "$WORK/wh4" -model "$WORK/model4p.tcpa" -top 0 -full \
    | tail -n +2 > "$WORK/batch4p.csv"
cmp -s "$WORK/batch4.csv" "$WORK/batch4p.csv" \
    || { echo "e2e: precomputed scores differ from frame scores"; diff "$WORK/batch4.csv" "$WORK/batch4p.csv" | head -5; exit 1; }
echo "   precomputed-vector scores bit-identical to the frame path"

# The snapshot serves with no warehouse at all — churnctl and churnd both —
# while the plain artifact still refuses.
rm -rf "$WORK/wh4"
"$WORK/churnctl" score -warehouse "$WORK/wh4" -model "$WORK/model4p.tcpa" -top 0 -full \
    | tail -n +2 > "$WORK/nowh.csv"
cmp -s "$WORK/batch4.csv" "$WORK/nowh.csv" \
    || { echo "e2e: warehouse-free scores differ from frame scores"; exit 1; }
if "$WORK/churnctl" score -warehouse "$WORK/wh4" -model "$WORK/model4.tcpa" -top 5 > /dev/null 2>&1; then
    echo "e2e: plain artifact scored without a warehouse"
    exit 1
fi
kill "$CHURND_PID"
wait "$CHURND_PID" 2>/dev/null || true
CHURND_PID=""
"$WORK/churnd" -artifact "$WORK/model4p.tcpa" -warehouse "$WORK/wh4" -addr "127.0.0.1:$PORT" &
CHURND_PID=$!
wait_healthy
curl -sf "http://127.0.0.1:$PORT/readyz" | grep -q '"provider":"vectors"' \
    || { echo "e2e: churnd did not serve from the vector snapshot"; exit 1; }
VID="$(head -1 "$WORK/batch4.csv" | cut -d, -f2)"
VSCORE="$(head -1 "$WORK/batch4.csv" | cut -d, -f3)"
curl -sf -X POST -d "{\"id\":$VID}" "http://127.0.0.1:$PORT/v1/score" | grep -q "$VSCORE" \
    || { echo "e2e: warehouse-free served score mismatch"; exit 1; }
echo "   snapshot served without a warehouse, scores unchanged"

echo "== streaming ingest freshness =="
# A fresh world with an empty event log: ingest one recharge into a live
# churnd and the very next score request must already reflect it (the fold
# is synchronous with the ingest response) — and must be bit-identical to
# what a from-scratch rebuild computes once the log is merged into the
# monthly partitions.
kill "$CHURND_PID"
wait "$CHURND_PID" 2>/dev/null || true
CHURND_PID=""
"$WORK/churnctl" generate -out "$WORK/whs" -customers 400 -months 4
# churnd serves the -precompute artifact — the vectors+frame chain loadtest
# and the benchmark run. The same training run without -precompute (shown
# above to score identically) is the batch reference further down:
# `churnctl score` prefers the snapshot when the month matches, so after a
# merge the precomputed artifact cannot be its own oracle.
"$WORK/churnctl" train -warehouse "$WORK/whs" -out "$WORK/models.tcpa" -trees 20
"$WORK/churnctl" train -warehouse "$WORK/whs" -out "$WORK/modelsp.tcpa" -trees 20 -precompute
"$WORK/churnd" -artifact "$WORK/modelsp.tcpa" -warehouse "$WORK/whs" -addr "127.0.0.1:$PORT" &
CHURND_PID=$!
wait_healthy
READY="$(curl -sf "http://127.0.0.1:$PORT/readyz")"
echo "$READY" | grep -q '"ingest":true' \
    || { echo "e2e: churnd did not enable ingest over the warehouse"; exit 1; }
echo "$READY" | grep -q '"provider":"vectors+frame"' \
    || { echo "e2e: churnd did not serve the vectors+frame chain: $READY"; exit 1; }

CUST="$(curl -sf "http://127.0.0.1:$PORT/v1/customers?limit=10")"
CAND="$(echo "$CUST" | sed -n 's/.*"ids":\[\([0-9,]*\)\].*/\1/p' | tr ',' ' ')"
FMONTH="$(echo "$CUST" | sed -n 's/.*"month":\([0-9]*\).*/\1/p')"
[ -n "$CAND" ] && [ -n "$FMONTH" ] || { echo "e2e: customer discovery failed: $CUST"; exit 1; }

# Score, ingest a burst of raw events, score again: the served score must
# move on the very next request. The burst is a recharge plus a run of
# heavy web sessions — web usage drives the forest's top features
# (flux/throughput), while staying off the graph groups so the incremental
# fold and the full rebuild agree on every column. A burst may still not
# cross any split threshold for a given customer, so each candidate gets
# one and we accept the first customer whose score moves.
score_one() {
    curl -sf -X POST -d "{\"ids\":[$1]}" "http://127.0.0.1:$PORT/v1/score" \
        | tr -d ' ' | sed -n 's/.*"scores":\[\([^]]*\)\].*/\1/p'
}
FID=""
for ID in $CAND; do
    BEFORE="$(score_one "$ID")"
    EVS="{\"table\":\"recharges\",\"imsi\":$ID,\"month\":$FMONTH,\"day\":7,\"fields\":{\"amount\":250}},"
    for D in 2 5 9 14 20; do
        EVS="$EVS{\"table\":\"web\",\"imsi\":$ID,\"month\":$FMONTH,\"day\":$D,\"fields\":{\"page_req\":40,\"page_succ\":38,\"resp_delay\":0.8,\"browse_succ\":35,\"browse_delay\":1.1,\"dl_tp\":900,\"ul_tp\":250,\"flux\":600,\"tcp_rtt\":90}},"
    done
    INGEST="$(curl -sf -X POST -d "{\"events\":[${EVS%,}]}" "http://127.0.0.1:$PORT/v1/events")"
    echo "$INGEST" | grep -q '"applied":6' \
        || { echo "e2e: ingest did not apply the burst: $INGEST"; exit 1; }
    AFTER="$(score_one "$ID")"
    [ -n "$BEFORE" ] && [ -n "$AFTER" ] || { echo "e2e: score extraction failed"; exit 1; }
    if [ "$BEFORE" != "$AFTER" ]; then
        FID="$ID"
        break
    fi
done
[ -n "$FID" ] || { echo "e2e: no served score moved after ingest bursts"; exit 1; }
echo "   score for customer $FID moved $BEFORE -> $AFTER on the next request"

# A full refresh rebuilds the frame over the logged events and must serve
# it: the score may not snap back to the artifact's train-time snapshot.
REFRESH="$(curl -sf -X POST "http://127.0.0.1:$PORT/v1/refresh")"
echo "$REFRESH" | grep -q '"stale_vectors":0' \
    || { echo "e2e: refresh left overrides behind: $REFRESH"; exit 1; }
REFRESHED="$(score_one "$FID")"
[ "$REFRESHED" = "$AFTER" ] \
    || { echo "e2e: score $AFTER became $REFRESHED after /v1/refresh"; exit 1; }
echo "   score unchanged by /v1/refresh (the rebuilt frame answers)"

# A restart over the still-unmerged log must serve the same bits: boot folds
# the log into the served month before building the frame, and the logged
# customer is served the frame's row ahead of the train-time snapshot.
kill "$CHURND_PID"
wait "$CHURND_PID" 2>/dev/null || true
"$WORK/churnd" -artifact "$WORK/modelsp.tcpa" -warehouse "$WORK/whs" -addr "127.0.0.1:$PORT" &
CHURND_PID=$!
wait_healthy
RESTARTED="$(score_one "$FID")"
[ "$RESTARTED" = "$AFTER" ] \
    || { echo "e2e: score $AFTER became $RESTARTED after a restart over the unmerged log"; exit 1; }
echo "   score unchanged by a restart over the unmerged log"

# Bit-equality with the batch path: quiesce churnd, fold the log into the
# monthly partitions, and rebuild from scratch. Same rows, same order —
# the incremental fold and the full rebuild must print the same bits.
kill "$CHURND_PID"
wait "$CHURND_PID" 2>/dev/null || true
CHURND_PID=""
"$WORK/churnctl" ingest -warehouse "$WORK/whs" -merge | grep -q "merged [1-9]" \
    || { echo "e2e: merge did not fold the logged events"; exit 1; }
FULL="$("$WORK/churnctl" score -warehouse "$WORK/whs" -model "$WORK/models.tcpa" -top 0 -full \
    | awk -F, -v id="$FID" '$2 == id { print $3 }')"
[ "$AFTER" = "$FULL" ] \
    || { echo "e2e: incremental score $AFTER != full-rebuild score $FULL"; exit 1; }
echo "   incremental and refreshed scores bit-identical to the full rebuild after merge"

echo "e2e: OK"
