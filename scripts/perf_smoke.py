#!/usr/bin/env python3
"""Compare a freshly generated BENCH_ring.json against the committed one.

The guarded set is the saturated schedule-driven ring-tick configs
(BM_RingTick at occ:50/occ:100 with ref:0) — the rows the
data-oriented tick rewrite is accountable for. A fresh rate more than
THRESHOLD (default 20%) below the committed rate prints a GitHub
`::warning` annotation per offending config; with --strict the script
also exits 1. Everything else in the file is reported informationally.

Warn-only is the CI default on purpose: shared runners are noisy
enough that a hard gate on absolute throughput would flake. --strict
is for local runs on a quiet machine.

Usage:
  perf_smoke.py [--fresh BENCH_ring.json] [--committed PATH]
                [--threshold 0.20] [--strict]

Without --committed, the committed copy is read from `git show
HEAD:BENCH_ring.json`.
"""

import argparse
import json
import re
import subprocess
import sys
from pathlib import Path

SATURATED_RE = re.compile(
    r"^BM_RingTick/nodes:\d+/occ:(?:50|100)/ref:0$")

ROOT = Path(__file__).resolve().parent.parent


def load_rates(text, label):
    """name -> rate map from a BENCH_ring.json body; any non-numeric
    entry is metadata, not a rate."""
    try:
        data = json.loads(text)
    except json.JSONDecodeError as e:
        print(f"error: {label} is not valid JSON: {e}", file=sys.stderr)
        return None
    return {k: v for k, v in data.items() if isinstance(v, (int, float))}


def committed_text(path):
    if path is not None:
        return Path(path).read_text()
    proc = subprocess.run(
        ["git", "show", "HEAD:BENCH_ring.json"],
        cwd=ROOT, capture_output=True, text=True)
    if proc.returncode != 0:
        return None
    return proc.stdout


def main():
    ap = argparse.ArgumentParser(
        description="ring-tick perf smoke: fresh vs committed")
    ap.add_argument("--fresh", default="BENCH_ring.json",
                    help="freshly generated rates (default: %(default)s)")
    ap.add_argument("--committed", default=None,
                    help="committed rates; default reads "
                         "HEAD:BENCH_ring.json via git")
    ap.add_argument("--threshold", type=float, default=0.20,
                    help="fractional regression that triggers a "
                         "warning (default: %(default)s)")
    ap.add_argument("--strict", action="store_true",
                    help="exit 1 on any saturated regression")
    args = ap.parse_args()

    fresh_path = Path(args.fresh)
    if not fresh_path.exists():
        print(f"error: {fresh_path} not found (run ring_bench_json "
              f"first)", file=sys.stderr)
        return 2
    fresh = load_rates(fresh_path.read_text(), str(fresh_path))
    if fresh is None:
        return 2

    base_text = committed_text(args.committed)
    if base_text is None:
        print("no committed BENCH_ring.json to compare against; "
              "skipping (first trajectory point?)")
        return 0
    committed = load_rates(base_text, "committed BENCH_ring.json")
    if committed is None:
        return 2

    regressions = []
    print(f"{'benchmark':<44} {'committed':>12} {'fresh':>12} "
          f"{'ratio':>7}")
    for name in sorted(fresh):
        if name not in committed or committed[name] <= 0:
            continue
        ratio = fresh[name] / committed[name]
        guarded = bool(SATURATED_RE.match(name))
        marker = ""
        if guarded and ratio < 1.0 - args.threshold:
            regressions.append((name, ratio))
            marker = "  <-- REGRESSION"
        elif guarded:
            marker = "  (guarded)"
        print(f"{name:<44} {committed[name]:>12.4g} "
              f"{fresh[name]:>12.4g} {ratio:>6.2f}x{marker}")

    if not regressions:
        print("perf smoke: no saturated regression beyond "
              f"{args.threshold:.0%}")
        return 0

    for name, ratio in regressions:
        print(f"::warning ::saturated ring-tick config {name} at "
              f"{ratio:.2f}x of committed rate "
              f"(threshold {1 - args.threshold:.2f}x)")
    print(f"perf smoke: {len(regressions)} saturated regression(s) "
          f"beyond {args.threshold:.0%}", file=sys.stderr)
    return 1 if args.strict else 0


if __name__ == "__main__":
    sys.exit(main())
