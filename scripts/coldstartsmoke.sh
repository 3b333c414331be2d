#!/usr/bin/env sh
# coldstartsmoke.sh — end-to-end proof of the epoch store's restart
# contract. Run 1 boots a live staleserve on the simulated feed with
# -store, waits until at least one epoch snapshot has been committed, and
# kills the process. Run 2 starts against the same store and must:
#
#   1. answer /readyz 200 within BOOT_BUDGET_MS (no retraining),
#   2. report recovery outcome "latest" with a millisecond-scale load in
#      the wikistale_epochstore_* metrics,
#   3. resume the feed from the persisted checkpoint without losing or
#      double-applying events: once its feed settles, the staged change
#      count equals an uninterrupted run's.
#
# A batch leg then proves the same restart contract without a feed:
# wikigen writes a small corpus file, a batch staleserve with -store
# trains on it and commits one epoch, and its restart on the same store
# must boot with recovery outcome "latest" and serve a byte-identical
# /v1/stale body.
#
# CI runs this as the "cold-start smoke" step; locally: `make coldsmoke`.
#
# Environment knobs:
#   ADDR            listen address (default :8098)
#   BOOT_BUDGET_MS  readiness budget for the restarted process (default 2000;
#                   generous against CI scheduling noise — the load itself
#                   is tens of milliseconds and asserted separately)
set -eu

ADDR=${ADDR:-:8098}
BOOT_BUDGET_MS=${BOOT_BUDGET_MS:-2000}
PORT=${ADDR##*:}
STORE=$(mktemp -d coldsmoke.store.XXXXXX)
BATCH=$(mktemp -d coldsmoke.store.XXXXXX) # corpus.snap + store/ of the batch leg

go build -o staleserve.bin ./cmd/staleserve
go build -o wikigen.bin ./cmd/wikigen

SRV=""
cleanup() {
  [ -n "$SRV" ] && kill "$SRV" 2>/dev/null || true
  rm -rf staleserve.bin wikigen.bin "$STORE" "$BATCH"
}
trap cleanup EXIT

mon() { # mon <path> — quiet curl against the server under test
  curl -sf "localhost:$PORT$1" 2>/dev/null
}

# ---- Run 1: cold start, train, snapshot at least one epoch, die. -------
./staleserve.bin -live -source sim -store "$STORE" \
  -retrain-every 1s -addr "$ADDR" -log-format json 2>server1.log &
SRV=$!

i=0
until [ "$(mon /metrics?format=json |
           jq -r '(.wikistale_epochstore_snapshots_total.series[0].value // 0) >= 1' 2>/dev/null)" = true ]; do
  i=$((i + 1))
  [ "$i" -le 300 ] || { echo "FAIL: run 1 never committed an epoch snapshot"; cat server1.log; exit 1; }
  kill -0 "$SRV" 2>/dev/null || { echo "FAIL: run 1 died early"; cat server1.log; exit 1; }
  sleep 1
done

# Let the feed settle so the uninterrupted staged-change count is the
# full corpus — the resume-equivalence reference for run 2. The raw
# staging count is used (not the detector's filtered count) because it is
# exact the moment pending hits zero, while the detector only reflects
# the final events after one more retrain swap.
i=0
until [ "$(mon /v1/ingest/stats | jq -r '.source_done and .pending_changes == 0' 2>/dev/null)" = true ]; do
  i=$((i + 1))
  [ "$i" -le 300 ] || { echo "FAIL: run 1 feed never settled"; exit 1; }
  sleep 1
done
FULL_CHANGES=$(mon /v1/ingest/stats | jq -r '.staging.changes')
[ -n "$FULL_CHANGES" ] && [ "$FULL_CHANGES" -gt 0 ] || { echo "FAIL: no staged-change count from run 1"; exit 1; }

kill "$SRV"
wait "$SRV" 2>/dev/null || true
SRV=""

# ---- Run 2: boot from the store; must be ready without retraining. -----
start_ms=$(date +%s%3N)
./staleserve.bin -live -source sim -store "$STORE" \
  -retrain-every 1s -addr "$ADDR" -log-format json 2>server2.log &
SRV=$!

# String comparison, not `jq -e`: jq 1.6's -e exits 0 on empty input,
# so a refused connection would read as "ready" (same caveat as
# loadsmoke.sh).
until [ "$(mon /readyz | jq -r '.ready' 2>/dev/null)" = true ]; do
  now_ms=$(date +%s%3N)
  [ $((now_ms - start_ms)) -le "$BOOT_BUDGET_MS" ] || {
    echo "FAIL: restart not ready within ${BOOT_BUDGET_MS}ms"; cat server2.log; exit 1; }
  kill -0 "$SRV" 2>/dev/null || { echo "FAIL: run 2 died early"; cat server2.log; exit 1; }
  sleep 0.05
done
ready_ms=$(($(date +%s%3N) - start_ms))

METRICS=$(mon /metrics?format=json)
echo "$METRICS" | jq -e '
  ([.wikistale_epochstore_recovery_total.series[]?
    | select(.labels.outcome == "latest") | .value] | add // 0) >= 1
' > /dev/null || {
  echo "FAIL: restart did not recover from the latest epoch:"
  echo "$METRICS" | jq 'with_entries(select(.key | startswith("wikistale_epochstore")))'
  exit 1
}
LOAD_S=$(echo "$METRICS" | jq -r '.wikistale_epochstore_last_load_seconds.series[0].value // 0')
awk -v s="$LOAD_S" 'BEGIN { exit !(s > 0 && s < 1) }' || {
  echo "FAIL: epoch load took ${LOAD_S}s, want sub-second"; exit 1; }

# No retraining before readiness: the detector serving right now is the
# persisted epoch (swap count is exactly the boot swap at this point or
# includes post-resume retrains later — what matters is that readiness did
# not wait on one, which the budget above already proves). Also assert the
# feed resumed mid-stream rather than replaying from zero: the resumed
# batch index is in the store's checkpoint.
mon /statusz | grep -q '"recovery_outcome": "latest"' || {
  echo "FAIL: /statusz missing the store recovery outcome"; exit 1; }

# ---- Resume equivalence: no event lost, none double-applied. ----------
i=0
until [ "$(mon /v1/ingest/stats | jq -r '.source_done and .pending_changes == 0' 2>/dev/null)" = true ]; do
  i=$((i + 1))
  [ "$i" -le 300 ] || { echo "FAIL: run 2 feed never settled"; exit 1; }
  sleep 1
done
RESUMED_CHANGES=$(mon /v1/ingest/stats | jq -r '.staging.changes')
[ "$RESUMED_CHANGES" = "$FULL_CHANGES" ] || {
  echo "FAIL: resumed run staged $RESUMED_CHANGES changes, uninterrupted run staged $FULL_CHANGES (events lost or double-applied)"
  exit 1
}

kill "$SRV"
wait "$SRV" 2>/dev/null || true
SRV=""
echo "live leg OK: ready in ${ready_ms}ms, epoch load ${LOAD_S}s, ${RESUMED_CHANGES} changes after resume (= full run)"

# ---- Batch leg: train on a corpus file, commit, restart from the store. --
recovered() { # recovered <outcome> — the boot outcome counter is set
  mon /metrics?format=json | jq -e --arg o "$1" '
    ([.wikistale_epochstore_recovery_total.series[]?
      | select(.labels.outcome == $o) | .value] | add // 0) >= 1
  ' > /dev/null
}
batch_boot() { # batch_boot <log> — start a batch server, wait until ready
  ./staleserve.bin -i "$BATCH/corpus.snap" -store "$BATCH/store" \
    -addr "$ADDR" -log-format json 2>"$1" &
  SRV=$!
  i=0
  until [ "$(mon /readyz | jq -r '.ready' 2>/dev/null)" = true ]; do
    i=$((i + 1))
    [ "$i" -le 600 ] || { echo "FAIL: batch server never ready"; cat "$1"; exit 1; }
    kill -0 "$SRV" 2>/dev/null || { echo "FAIL: batch server died early"; cat "$1"; exit 1; }
    sleep 0.1
  done
}

./wikigen.bin -scale small -o "$BATCH/corpus.snap" > /dev/null
batch_boot server3.log
recovered cold || { echo "FAIL: first batch boot did not start cold"; cat server3.log; exit 1; }
[ "$(ls "$BATCH"/store/ep-*.snap | wc -l)" -eq 1 ] || {
  echo "FAIL: first batch boot did not commit exactly one epoch"; ls -l "$BATCH/store"; exit 1; }
mon "/v1/stale?window=7" > "$BATCH/stale1.json" || { echo "FAIL: /v1/stale on the first batch boot"; exit 1; }
kill "$SRV"
wait "$SRV" 2>/dev/null || true
SRV=""

batch_boot server4.log
recovered latest || { echo "FAIL: batch restart did not boot the latest epoch"; cat server4.log; exit 1; }
mon "/v1/stale?window=7" > "$BATCH/stale2.json" || { echo "FAIL: /v1/stale on the batch restart"; exit 1; }
jq -e '.alerts | length > 0' "$BATCH/stale1.json" > /dev/null || {
  echo "FAIL: first batch boot served no alerts"; cat "$BATCH/stale1.json"; exit 1; }
cmp -s "$BATCH/stale1.json" "$BATCH/stale2.json" || {
  echo "FAIL: batch restart serves a different /v1/stale body"; exit 1; }

echo "cold-start smoke OK: live restart ready in ${ready_ms}ms (epoch load ${LOAD_S}s, exact resume); batch restart booted the latest epoch and served $(jq '.alerts | length' "$BATCH/stale2.json") identical alerts"
