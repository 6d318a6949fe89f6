#!/usr/bin/env bash
# Service smoke test: boots a ringsim_serve daemon, routes fig3 sweeps
# through it from four concurrent bench clients (faults off and on),
# plus one table artifact, and checks the acceptance properties end to
# end:
#
#   * every routed client's bytes equal a direct (library) run,
#   * a warm resubmission is answered from the result cache,
#   * nothing was shed or timed out along the way.
#
# The final /statsz snapshot is written to $STATSZ_OUT (default
# SERVICE_statsz.json) so CI can upload it as an artifact.
#
# usage: scripts/service_smoke.sh [build-dir]
set -euo pipefail
cd "$(dirname "$0")/.."

BUILD_DIR="${1:-build}"
REFS="${SMOKE_REFS:-12000}"
STATSZ_OUT="${STATSZ_OUT:-SERVICE_statsz.json}"

SERVE="$BUILD_DIR/src/service/ringsim_serve"
SUBMIT="$BUILD_DIR/src/service/ringsim_submit"
FIG3="$BUILD_DIR/bench/fig3_snoop_vs_dir"
TABLE2="$BUILD_DIR/bench/table2_traces"
for bin in "$SERVE" "$SUBMIT" "$FIG3" "$TABLE2"; do
    [ -x "$bin" ] || { echo "missing binary: $bin" >&2; exit 1; }
done

WORK="$(mktemp -d)"
SOCK="$WORK/ringsim.sock"
SERVE_PID=""

cleanup() {
    if [ -n "$SERVE_PID" ]; then
        "$SUBMIT" --endpoint "$SOCK" shutdown >/dev/null 2>&1 || true
        wait "$SERVE_PID" 2>/dev/null || true
    fi
    rm -rf "$WORK"
}
trap cleanup EXIT

"$SERVE" --endpoint "$SOCK" --workers 4 --queue-depth 16 \
    --cache-dir "$WORK/cache" &
SERVE_PID=$!

ready=0
for _ in $(seq 1 100); do
    if "$SUBMIT" --endpoint "$SOCK" ping >/dev/null 2>&1; then
        ready=1
        break
    fi
    sleep 0.1
done
[ "$ready" = 1 ] || { echo "daemon never became ready" >&2; exit 1; }

echo "== direct fig3 sweeps (faults off / on) =="
"$FIG3" --fast --refs "$REFS" > "$WORK/direct.txt"
"$FIG3" --fast --refs "$REFS" --fault-rate 0.001 --fault-seed 7 \
    > "$WORK/direct_faults.txt"

echo "== four concurrent routed clients =="
pids=()
for i in 1 2 3 4; do
    "$FIG3" --fast --refs "$REFS" --service "$SOCK" \
        > "$WORK/routed_$i.txt" &
    pids+=("$!")
done
for p in "${pids[@]}"; do
    wait "$p"
done
for i in 1 2 3 4; do
    cmp "$WORK/direct.txt" "$WORK/routed_$i.txt"
done
echo "ok: 4 concurrent clients byte-identical to direct run"

echo "== routed faulted sweep matches direct (cold, timed) =="
t0=$(date +%s%N)
"$FIG3" --fast --refs "$REFS" --fault-rate 0.001 --fault-seed 7 \
    --service "$SOCK" > "$WORK/routed_faults.txt"
t1=$(date +%s%N)
cmp "$WORK/direct_faults.txt" "$WORK/routed_faults.txt"
COLD_MS=$(( (t1 - t0) / 1000000 ))
echo "ok: faulted sweep byte-identical to direct run (${COLD_MS} ms)"

echo "== warm resubmission answers from cache (timed) =="
t0=$(date +%s%N)
"$FIG3" --fast --refs "$REFS" --fault-rate 0.001 --fault-seed 7 \
    --service "$SOCK" > "$WORK/routed_faults_warm.txt"
t1=$(date +%s%N)
cmp "$WORK/direct_faults.txt" "$WORK/routed_faults_warm.txt"
WARM_MS=$(( (t1 - t0) / 1000000 ))
[ "$WARM_MS" -lt 1 ] && WARM_MS=1
echo "warm resubmission: ${WARM_MS} ms (cold: ${COLD_MS} ms)"
if [ "$COLD_MS" -lt $(( WARM_MS * 50 )) ]; then
    echo "FAIL: warm resubmission not >=50x faster than cold" >&2
    exit 1
fi
echo "ok: warm resubmission $(( COLD_MS / WARM_MS ))x faster"

"$FIG3" --fast --refs "$REFS" --service "$SOCK" \
    > "$WORK/routed_warm.txt"
cmp "$WORK/direct.txt" "$WORK/routed_warm.txt"

echo "== a table artifact routes like a figure =="
"$TABLE2" --fast --refs "$REFS" > "$WORK/table2_direct.txt"
"$TABLE2" --fast --refs "$REFS" --service "$SOCK" \
    > "$WORK/table2_routed.txt"
cmp "$WORK/table2_direct.txt" "$WORK/table2_routed.txt"
echo "ok: table2_traces through the daemon byte-identical to direct run"

"$SUBMIT" --endpoint "$SOCK" statsz | tee "$STATSZ_OUT"
python3 - "$STATSZ_OUT" <<'EOF'
import json
import sys

with open(sys.argv[1]) as f:
    sz = json.load(f)
assert sz["ok"] is True, sz
assert sz["cache_answers"] > 0, f"no warm cache hits: {sz}"
hits = sz["cache"]["mem_hits"] + sz["cache"]["disk_hits"]
assert hits > 0, f"cache tiers report no hits: {sz}"
assert sz["shed"] == 0, f"smoke load should never shed: {sz}"
assert sz["timed_out"] == 0, f"smoke jobs timed out: {sz}"
assert sz["failed"] == 0, f"smoke jobs failed: {sz}"
print(f"ok: {sz['cache_answers']} cache answer(s), "
      f"{sz['completed']} completed, 0 shed/failed/timed out")
EOF

echo "== a new code-version/operator salt invalidates the cache =="
"$SUBMIT" --endpoint "$SOCK" shutdown >/dev/null
wait "$SERVE_PID" 2>/dev/null || true
SERVE_PID=""
RINGSIM_CACHE_SALT=smoke-salt-v2 "$SERVE" --endpoint "$SOCK" \
    --workers 4 --queue-depth 16 --cache-dir "$WORK/cache" &
SERVE_PID=$!
ready=0
for _ in $(seq 1 100); do
    if "$SUBMIT" --endpoint "$SOCK" ping >/dev/null 2>&1; then
        ready=1
        break
    fi
    sleep 0.1
done
[ "$ready" = 1 ] || { echo "resalted daemon never ready" >&2; exit 1; }

"$FIG3" --fast --refs "$REFS" --service "$SOCK" \
    > "$WORK/routed_resalted.txt"
cmp "$WORK/direct.txt" "$WORK/routed_resalted.txt"
"$SUBMIT" --endpoint "$SOCK" statsz > "$WORK/statsz_resalted.json"
python3 - "$WORK/statsz_resalted.json" <<'EOF'
import json
import sys

with open(sys.argv[1]) as f:
    sz = json.load(f)
# The old entries are unreachable under the new salt: the sweep must
# have recomputed (a miss), never answered from cache.
assert sz["cache_answers"] == 0, f"resalted daemon hit stale cache: {sz}"
assert sz["cache"]["misses"] > 0, sz
assert sz["cache"]["mem_hits"] + sz["cache"]["disk_hits"] == 0, sz
print("ok: new salt misses every old entry (and bytes still match)")
EOF

echo "service smoke: all checks passed"
