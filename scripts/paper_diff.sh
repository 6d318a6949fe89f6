#!/usr/bin/env bash
# Paper-output diff between two builds: runs every paper artifact (the
# registered sweeps and the bespoke fault-tolerance ablation) from
# BASE_BUILD and from HEAD_BUILD at --fast --refs 20000 --jobs 4, as
# text and as --csv, and cmps each pair (stdout and exit status). Every
# artifact whose output differs is listed, once as a GitHub
# `::warning` annotation, and the exit status is then 1.
#
# A refactor should leave every artifact identical. A model or
# simulator fix changes outputs on purpose, which is why CI runs this
# step with continue-on-error: a difference warns, it does not fail.
#
# usage: scripts/paper_diff.sh BASE_BUILD HEAD_BUILD
set -euo pipefail

if [ $# -ne 2 ]; then
    echo "usage: $0 BASE_BUILD HEAD_BUILD" >&2
    exit 2
fi
BASE="$1"
HEAD="$2"

ARTIFACTS=(table1_traversals table2_traces table3_snoop_rate
           table4_bus_match fig3_snoop_vs_dir fig4_snoop_vs_dir_64
           fig5_miss_breakdown fig6_ring_vs_bus ablation_ring
           ablation_latency_tolerance ablation_insertion_ring
           ablation_fault_tolerance)
FLAGS=(--fast --refs 20000 --jobs 4)

WORK="$(mktemp -d)"
trap 'rm -rf "$WORK"' EXIT

# run BUILD ARTIFACT OUT [extra flags...]: stdout to OUT, then the
# exit status as its last line (ablation_fault_tolerance exits 1 when
# a row fails, and that must match too).
run() {
    local bin="$1/bench/$2" out="$3"
    shift 3
    if [ ! -x "$bin" ]; then
        echo "missing binary: $bin" > "$out"
        return
    fi
    local status=0
    "$bin" "${FLAGS[@]}" "$@" > "$out" 2>/dev/null || status=$?
    echo "exit $status" >> "$out"
}

differ=()
for a in "${ARTIFACTS[@]}"; do
    same=1
    for mode in text csv; do
        extra=()
        [ "$mode" = csv ] && extra=(--csv)
        run "$BASE" "$a" "$WORK/$a.$mode.base" "${extra[@]}"
        run "$HEAD" "$a" "$WORK/$a.$mode.head" "${extra[@]}"
        cmp -s "$WORK/$a.$mode.base" "$WORK/$a.$mode.head" || same=0
    done
    if [ "$same" = 1 ]; then
        echo "same    $a"
    else
        echo "DIFFERS $a"
        differ+=("$a")
    fi
done

if [ "${#differ[@]}" -eq 0 ]; then
    echo "all ${#ARTIFACTS[@]} artifacts identical (text and --csv)"
    exit 0
fi
for a in "${differ[@]}"; do
    echo "::warning title=paper output changed::$a differs from the base build"
done
echo "${#differ[@]} of ${#ARTIFACTS[@]} artifacts differ: ${differ[*]}"
exit 1
