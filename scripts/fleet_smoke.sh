#!/usr/bin/env bash
# Fleet smoke test: boots three ringsim_serve workers behind a
# ringsim_fleetd coordinator and checks the fleet acceptance
# properties end to end:
#
#   * eight concurrent clients routed through the fleet all get bytes
#     identical to a direct (library) run — the sweep was split into
#     per-block subjobs, fanned out, reassembled, and duplicate
#     parts coalesced on the worker that owns their shard,
#   * a worker SIGKILL'd mid-sweep is detected by its broken socket
#     and its parts requeue onto the failover shard, byte-identically,
#   * a repeated ringsim_submit through the coordinator lands on the
#     same worker and is answered from its warm cache,
#   * a cold daemon started on a warm daemon's --cache-dir answers
#     from that shared cache instead of recomputing.
#
# The final aggregated /statsz snapshot is written to $STATSZ_OUT
# (default FLEET_statsz.json) so CI can upload it as an artifact.
#
# usage: scripts/fleet_smoke.sh [build-dir]
set -euo pipefail
cd "$(dirname "$0")/.."

BUILD_DIR="${1:-build}"
REFS="${SMOKE_REFS:-12000}"
KILL_REFS="${SMOKE_KILL_REFS:-24000}"
STATSZ_OUT="${STATSZ_OUT:-FLEET_statsz.json}"

FLEETD="$BUILD_DIR/src/fleet/ringsim_fleetd"
SERVE="$BUILD_DIR/src/service/ringsim_serve"
SUBMIT="$BUILD_DIR/src/service/ringsim_submit"
FIG3="$BUILD_DIR/bench/fig3_snoop_vs_dir"
for bin in "$FLEETD" "$SERVE" "$SUBMIT" "$FIG3"; do
    [ -x "$bin" ] || { echo "missing binary: $bin" >&2; exit 1; }
done

WORK="$(mktemp -d)"
FLEET_SOCK="$WORK/fleet.sock"
WORKER_PIDS=()
FLEET_PID=""
SHARED_PIDS=()

cleanup() {
    if [ -n "$FLEET_PID" ]; then
        "$SUBMIT" --endpoint "$FLEET_SOCK" shutdown \
            >/dev/null 2>&1 || true
        wait "$FLEET_PID" 2>/dev/null || true
    fi
    for i in 0 1 2; do
        "$SUBMIT" --endpoint "$WORK/worker$i.sock" shutdown \
            >/dev/null 2>&1 || true
    done
    for p in "${WORKER_PIDS[@]}" "${SHARED_PIDS[@]}"; do
        wait "$p" 2>/dev/null || true
    done
    rm -rf "$WORK"
}
trap cleanup EXIT

wait_ready() { # endpoint
    for _ in $(seq 1 100); do
        if "$SUBMIT" --endpoint "$1" ping >/dev/null 2>&1; then
            return 0
        fi
        sleep 0.1
    done
    echo "daemon at $1 never became ready" >&2
    return 1
}

echo "== boot three workers and the coordinator =="
for i in 0 1 2; do
    "$SERVE" --endpoint "$WORK/worker$i.sock" --workers 2 \
        --queue-depth 64 --cache-dir "$WORK/cache$i" &
    WORKER_PIDS+=("$!")
done
for i in 0 1 2; do
    wait_ready "$WORK/worker$i.sock"
done
"$FLEETD" --endpoint "$FLEET_SOCK" \
    --workers "$WORK/worker0.sock,$WORK/worker1.sock,$WORK/worker2.sock" &
FLEET_PID=$!
wait_ready "$FLEET_SOCK"

echo "== direct fig3 sweep (the byte-identity reference) =="
"$FIG3" --fast --refs "$REFS" > "$WORK/direct.txt"

echo "== eight concurrent clients through the fleet =="
pids=()
for i in 1 2 3 4 5 6 7 8; do
    "$FIG3" --fast --refs "$REFS" --service "$FLEET_SOCK" \
        > "$WORK/routed_$i.txt" &
    pids+=("$!")
done
for p in "${pids[@]}"; do
    wait "$p"
done
for i in 1 2 3 4 5 6 7 8; do
    cmp "$WORK/direct.txt" "$WORK/routed_$i.txt"
done
echo "ok: 8 concurrent fleet clients byte-identical to direct run"

echo "== warm resubmission (every part cached on its shard) =="
t0=$(date +%s%N)
"$FIG3" --fast --refs "$REFS" --service "$FLEET_SOCK" \
    > "$WORK/routed_warm.txt"
t1=$(date +%s%N)
cmp "$WORK/direct.txt" "$WORK/routed_warm.txt"
echo "ok: warm fleet sweep in $(( (t1 - t0) / 1000000 )) ms"

echo "== the coordinator routes a repeat to the same warm shard =="
JOB='{"type":"model","benchmark":"mp3d","procs":8,"refs":2000,"fast":true}'
"$SUBMIT" --endpoint "$FLEET_SOCK" submit --wait "$JOB" \
    > "$WORK/route1.json"
"$SUBMIT" --endpoint "$FLEET_SOCK" submit --wait "$JOB" \
    > "$WORK/route2.json"
python3 - "$WORK/route1.json" "$WORK/route2.json" <<'EOF'
import json
import sys

first = json.load(open(sys.argv[1]))
second = json.load(open(sys.argv[2]))
assert first["ok"] and second["ok"], (first, second)
# Deterministic sharding: the repeat lands on the same worker and is
# answered from that worker's (now warm) cache.
assert first["worker"] == second["worker"], (first, second)
assert second["cached"] is True, second
assert first["result"] == second["result"]
print(f"ok: both submits routed to {first['worker']}, repeat cached")
EOF

echo "== SIGKILL a worker mid-sweep: parts requeue =="
"$FIG3" --fast --refs "$KILL_REFS" > "$WORK/direct_kill.txt"
"$FIG3" --fast --refs "$KILL_REFS" --service "$FLEET_SOCK" \
    > "$WORK/routed_kill.txt" &
CLIENT_PID=$!
sleep 0.2
kill -9 "${WORKER_PIDS[1]}"
wait "$CLIENT_PID"
cmp "$WORK/direct_kill.txt" "$WORK/routed_kill.txt"
echo "ok: sweep survived the SIGKILL byte-identically"

"$SUBMIT" --endpoint "$FLEET_SOCK" statsz | tee "$STATSZ_OUT"
python3 - "$STATSZ_OUT" <<'EOF'
import json
import sys

with open(sys.argv[1]) as f:
    sz = json.load(f)
assert sz["ok"] is True and sz["role"] == "fleet", sz
fleet = sz["fleet"]
# 8 identical concurrent sweeps: each part's duplicates met on the
# worker owning its shard, which ran them once.
assert fleet["sweep_splits"] >= 2, fleet
assert fleet["coalesced"] >= 1, fleet
assert fleet["parts_forwarded"] >= 36, fleet
# The SIGKILL'd worker's in-flight parts failed over.
assert fleet["requeues"] >= 1, fleet
assert fleet["failures"] == 0, fleet
workers = sz["workers"]
assert len(workers) == 3, workers
dead = [w for w in workers if not w["alive"]]
assert len(dead) == 1 and dead[0]["statsz"] is None, workers
for w in workers:
    if w["alive"]:
        ws = w["statsz"]
        assert ws["completed"] > 0, (w["endpoint"], ws)
        assert ws["failed"] == 0 and ws["timed_out"] == 0, ws
assert sz["totals"]["completed"] > 0, sz["totals"]
print(f"ok: {fleet['coalesced']} coalesced, "
      f"{fleet['requeues']} requeue(s), "
      f"{fleet['parts_forwarded']} parts over "
      f"{fleet['sweep_splits']} splits, 1 dead worker detected")
EOF

echo "== a shared --cache-dir serves a cold daemon =="
"$SERVE" --endpoint "$WORK/shared_warm.sock" --workers 2 \
    --cache-dir "$WORK/shared_cache" &
SHARED_PIDS+=("$!")
wait_ready "$WORK/shared_warm.sock"
t0=$(date +%s%N)
"$FIG3" --fast --refs "$REFS" --service "$WORK/shared_warm.sock" \
    > "$WORK/shared_cold_run.txt"
t1=$(date +%s%N)
COLD_MS=$(( (t1 - t0) / 1000000 ))
cmp "$WORK/direct.txt" "$WORK/shared_cold_run.txt"

"$SERVE" --endpoint "$WORK/shared_cold.sock" --workers 2 \
    --cache-dir "$WORK/shared_cache" &
SHARED_PIDS+=("$!")
wait_ready "$WORK/shared_cold.sock"
t0=$(date +%s%N)
"$FIG3" --fast --refs "$REFS" --service "$WORK/shared_cold.sock" \
    > "$WORK/shared_hit_run.txt"
t1=$(date +%s%N)
SHARED_MS=$(( (t1 - t0) / 1000000 ))
[ "$SHARED_MS" -lt 1 ] && SHARED_MS=1
cmp "$WORK/direct.txt" "$WORK/shared_hit_run.txt"
if [ "$COLD_MS" -lt $(( SHARED_MS * 5 )) ]; then
    echo "FAIL: shared-cache sweep (${SHARED_MS} ms) not >=5x faster" \
        "than the cold compute (${COLD_MS} ms)" >&2
    exit 1
fi
"$SUBMIT" --endpoint "$WORK/shared_cold.sock" statsz \
    > "$WORK/shared_statsz.json"
python3 - "$WORK/shared_statsz.json" <<'EOF'
import json
import sys

with open(sys.argv[1]) as f:
    sz = json.load(f)
assert sz["cache"]["disk_hits"] >= 1, sz["cache"]
assert sz["cache_answers"] == 1, sz
print("ok: cold daemon answered from the shared cache directory")
EOF
echo "ok: shared-cache answer ${SHARED_MS} ms vs ${COLD_MS} ms cold compute"

"$SUBMIT" --endpoint "$WORK/shared_warm.sock" shutdown >/dev/null
"$SUBMIT" --endpoint "$WORK/shared_cold.sock" shutdown >/dev/null

echo "fleet smoke: all checks passed"
