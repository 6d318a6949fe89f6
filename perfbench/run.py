#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of ringsim.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. Builds the ringsim libraries, daemons
and perfbench_harness from source (CMake, into $CARGO_TARGET_DIR or
.bench_build), runs one workload, checks its outputs and prints every
metric by name, unit and sample count. The last line of standard
output is one JSON object: {"correct", "attempted", "failed", "metrics"}.
With --trace 0 the metrics are the end-to-end ones of BENCHMARK.json;
with --trace 1 they are the per-layer ones, from a separate traced run.

Workloads (see perfbench/WORKLOADS.md for why each was chosen):
  fig4_64p       Figure 4 sweep, 64 processors, in-process service
  fig6_ring_bus  Figure 6 sweep, 8-32 processors, ring and bus
"""

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import metrics as m  # noqa: E402

# Sweep / executor thread budget: fixed, never more than the machine has.
THREADS = min(4, os.cpu_count() or 1)

# Seeds whose rendered-figure digests are recorded in expected.json: the
# bench default and one held out. An even --seed renders the first,
# an odd --seed the second, as the first sweep of the run.
DEFAULT_SEED = 12345
HELD_OUT_SEED = 4242

WORKLOADS = {
    "fig4_64p": {"figure": "fig4", "refs": 60000},
    "fig6_ring_bus": {"figure": "fig6", "refs": 120000},
}

# name -> unit of every end-to-end metric (BENCHMARK.json end_to_end).
END_TO_END = {
    "sweep_wall_s": "s",
    "sweep_cpu_s": "s",
    "model_err_pct": "%",
    "ok_frac": "frac",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
}

# name -> unit of every per-layer metric (BENCHMARK.json per_layer).
PER_LAYER = {
    "trace.gen_s": "s",
    "trace.refs": "count",
    "trace.ns_per_ref": "ns",
    "coherence.census_s": "s",
    "coherence.accesses": "count",
    "coherence.ns_per_access": "ns",
    "coherence.hit_ratio": "ratio",
    "coherence.misses": "count",
    "coherence.upgrades": "count",
    "coherence.writebacks": "count",
    "model.solve_s": "s",
    "model.solves": "count",
    "model.us_per_solve": "us",
    "core.run_s": "s",
    "core.ring_runs": "count",
    "core.bus_runs": "count",
    "core.ns_per_ref": "ns",
    "core.window_ticks": "ticks",
    "core.remote_misses": "count",
    "core.upgrades": "count",
    "runner.jobs": "count",
    "runner.busy_s": "s",
    "runner.queue_wait_s": "s",
    "runner.parallel_eff": "ratio",
    "runner.critical_path_s": "s",
    "figures.blocks": "count",
    "service.repeat_hit_ratio": "ratio",
    "service.mem_hits": "count",
    "service.disk_hits": "count",
    "service.cache_misses": "count",
    "service.stores": "count",
    "service.evictions": "count",
    "service.coalesced": "count",
    "service.admitted": "count",
    "service.exec_mean_ms": "ms",
    "fleet.forwarded": "count",
    "fleet.parts_forwarded": "count",
    "fleet.sweep_splits": "count",
    "fleet.coalesced": "count",
    "fleet.hop_p50_ms": "ms",
    "bench.trace_overhead_pct": "%",
}

HARNESS_TIMEOUT_S = 165


def build(build_dir):
    """Configure and build the harness and daemons; returns the bin dir."""
    cmake_dir = os.path.join(build_dir, "perfbench")
    jobs = str(os.cpu_count() or 1)
    steps = [["cmake", "--build", cmake_dir, "-j", jobs, "--target",
              "perfbench_harness", "ringsim_serve", "ringsim_fleetd"]]
    # Once configured, the build step re-runs CMake itself when a
    # CMakeLists.txt changes.
    if not os.path.exists(os.path.join(cmake_dir, "CMakeCache.txt")):
        steps.insert(0, ["cmake", "-S", HERE, "-B", cmake_dir,
                         "-DCMAKE_BUILD_TYPE=Release"])
    for cmd in steps:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                              text=True)
        if proc.returncode != 0:
            print(proc.stdout[-4000:], file=sys.stderr)
            raise SystemExit("perfbench: build failed: " + " ".join(cmd))
    return os.path.join(cmake_dir, "bin")


def run_harness(bin_dir, work_dir, out_path, name, spec, seed, seconds, trace):
    cmd = [os.path.join(bin_dir, "perfbench_harness"),
           "--name", name, "--figure", spec["figure"], "--refs", str(spec["refs"]),
           "--seed", str(seed), "--recorded-seed", str(recorded_seed(seed)),
           "--seconds", str(seconds), "--trace", str(trace),
           "--bin-dir", bin_dir, "--work-dir", work_dir, "--out", out_path,
           "--threads", str(THREADS)]
    # Own process group: on a timeout the daemons the harness spawned
    # are stopped with it.
    proc = subprocess.Popen(cmd, stdout=sys.stderr, stderr=sys.stderr,
                            start_new_session=True)
    try:
        code = proc.wait(timeout=HARNESS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise SystemExit("perfbench: harness exceeded %d s" % HARNESS_TIMEOUT_S)
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    if code != 0:
        raise SystemExit("perfbench: harness exited with %d" % code)
    with open(out_path) as f:
        return json.load(f)


def recorded_seed(seed):
    return DEFAULT_SEED if seed % 2 == 0 else HELD_OUT_SEED


def digest(text):
    return hashlib.sha256(text.encode()).hexdigest()


def ledger_check(build_dir, key, counts, problems):
    """Exact-repeat check: counts recorded for key must not change."""
    path = os.path.join(build_dir, "perfbench-ledger.json")
    ledger = {}
    if os.path.exists(path):
        with open(path) as f:
            ledger = json.load(f)
    seen = ledger.get(key)
    if seen is not None:
        for name, value in counts.items():
            if name in seen and seen[name] != value:
                problems.append("exact-repeat: %s %s = %s, earlier run %s"
                                % (key, name, value, seen[name]))
    ledger[key] = dict(seen or {}, **counts)
    with open(path + ".tmp", "w") as f:
        json.dump(ledger, f, indent=1, sort_keys=True)
    os.replace(path + ".tmp", path)


def end_to_end(doc, problems):
    """End-to-end metrics of an untraced run: (value, sample count)."""
    sweeps = doc.get("sweeps", [])
    errs = []
    for s in sweeps:
        e = m.model_error_pct(s["text"])
        if e is None:
            problems.append("sweep seed %s: no model/sim pair in figure" % s["seed"])
        else:
            errs.append(e)
    out = {}
    for metric, values in (("sweep_wall_s", [s["wall_s"] for s in sweeps]),
                           ("sweep_cpu_s", [s["cpu_s"] for s in sweeps]),
                           ("model_err_pct", errs), ("setup_s", doc["setup_s"])):
        if values:
            out[metric] = (statistics.median(values), len(values))
    out["peak_rss_mb"] = (doc["peak_rss_mb"], 1)
    return out


def describe_timing(samples):
    """Median plus the highest supported tail percentile, in seconds, with n."""
    s = m.summarize(samples)
    tail = m.highest_supported(s["n"])
    if tail is None:
        return "p50 %.6f s (n=%d; no tail percentile: a p90 needs n >= %d)" % (
            s["p50"], s["n"], round(m.TAIL_SAMPLES / 0.1))
    return "p50 %.6f s, p%g %.6f s (n=%d)" % (s["p50"], tail, s["tail"], s["n"])


def delta(after, before, key):
    return after.get(key, 0) - before.get(key, 0)


def per_layer(doc):
    """Per-layer metrics of a traced run."""
    spans = doc.get("spans", [])
    selfs = m.layer_self_times(spans)
    L = doc["layers"]
    r = doc["runner"]
    out = {}
    out["trace.gen_s"] = selfs.get("trace.gen", 0.0)
    out["trace.refs"] = L["trace.refs"]
    out["trace.ns_per_ref"] = 1e9 * out["trace.gen_s"] / max(1, L["trace.refs"])
    out["coherence.census_s"] = selfs.get("coherence.census", 0.0)
    out["coherence.accesses"] = L["coherence.accesses"]
    out["coherence.ns_per_access"] = (1e9 * out["coherence.census_s"]
                                      / max(1, L["coherence.accesses"]))
    out["coherence.hit_ratio"] = L["coherence.hits"] / max(1, L["coherence.data_refs"])
    for k in ("misses", "upgrades", "writebacks"):
        out["coherence." + k] = L["coherence." + k]
    out["model.solve_s"] = selfs.get("model.solve", 0.0)
    out["model.solves"] = L["model.solves"]
    out["model.us_per_solve"] = 1e6 * out["model.solve_s"] / max(1, L["model.solves"])
    out["core.run_s"] = selfs.get("core.run", 0.0)
    out["core.ring_runs"] = L["core.ring_runs"]
    out["core.bus_runs"] = L["core.bus_runs"]
    out["core.ns_per_ref"] = 1e9 * out["core.run_s"] / max(1, L["core.sim_refs"])
    for k in ("window_ticks", "remote_misses", "upgrades"):
        out["core." + k] = L["core." + k]
    out["runner.jobs"] = r["jobs"]
    out["runner.busy_s"] = r["busy_s"]
    out["runner.queue_wait_s"] = r["queue_wait_s"]
    out["runner.parallel_eff"] = r["busy_s"] / max(1e-12, r["threads"] * r["wall_s"])
    out["runner.critical_path_s"] = r["critical_path_s"]
    out["figures.blocks"] = L["figures.blocks"]

    # service.* and fleet.*: statsz deltas over the serving probe.
    probe = doc.get("probe", {})
    before, after = probe.get("before", {}), probe.get("after", {})
    svc_b, svc_a = before.get("service", {}), after.get("service", {})
    fl_b, fl_a = before.get("fleet", {}), after.get("fleet", {})
    hits = delta(svc_a, svc_b, "mem_hits") + delta(svc_a, svc_b, "disk_hits")
    out["service.repeat_hit_ratio"] = min(1.0, hits / max(1, probe.get("repeats", 0)))
    out["service.mem_hits"] = delta(svc_a, svc_b, "mem_hits")
    out["service.disk_hits"] = delta(svc_a, svc_b, "disk_hits")
    out["service.cache_misses"] = delta(svc_a, svc_b, "misses")
    for k in ("stores", "evictions", "coalesced", "admitted"):
        out["service." + k] = delta(svc_a, svc_b, k)
    out["service.exec_mean_ms"] = (delta(svc_a, svc_b, "exec_total_ms")
                                   / max(1, delta(svc_a, svc_b, "exec_count")))
    for k in ("forwarded", "parts_forwarded", "sweep_splits", "coalesced"):
        out["fleet." + k] = delta(fl_a, fl_b, k)
    out["fleet.hop_p50_ms"] = probe.get("hop_ms", 0.0)
    out["bench.trace_overhead_pct"] = 100.0 * (r["wall_s"] / doc["untraced_wall_s"] - 1.0)
    return out


def deterministic_counts(doc, trace):
    counts = dict(doc.get("counts", {}))
    if trace:
        counts.update(doc["layers"])
    return counts


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seed < 0 or args.seconds < 1:
        raise SystemExit("perfbench: --seed must be >= 0 and --seconds >= 1")

    root = os.getcwd()
    build_dir = os.path.join(root, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    os.makedirs(build_dir, exist_ok=True)
    bin_dir = build(build_dir)

    spec = WORKLOADS[args.workload]
    work_dir = os.path.join(build_dir, "work-%d" % os.getpid())
    shutil.rmtree(work_dir, ignore_errors=True)
    os.makedirs(work_dir)
    try:
        doc = run_harness(bin_dir, work_dir, os.path.join(work_dir, "out.json"),
                          args.workload, spec, args.seed, args.seconds, args.trace)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    problems = list(doc.get("failures", []))
    attempted = max(1, int(doc.get("attempted", 0)))
    if "window_s" not in doc:
        # The harness stopped before its timed window: nothing to
        # measure.
        for p in problems:
            print("  problem: " + p)
        print(json.dumps({"correct": False, "attempted": attempted,
                          "failed": attempted, "metrics": {}}))
        return

    # Correctness: recorded digests, then exact repeats of this seed.
    with open(os.path.join(HERE, "expected.json")) as f:
        expected = json.load(f).get(args.workload, {})
    for s in doc.get("sweeps", []):
        want = expected.get("digests", {}).get(str(s["seed"]))
        if want is not None and digest(s["text"]) != want:
            problems.append("digest of seed %s differs from the recorded one" % s["seed"])
    recorded = recorded_seed(args.seed)
    if not any(s["seed"] == recorded for s in doc.get("sweeps", [])):
        problems.append("recorded seed %d was not rendered" % recorded)
    counts = deterministic_counts(doc, args.trace)
    for s in doc.get("sweeps", []):
        counts["digest." + str(s["seed"])] = digest(s["text"])
    ledger_check(build_dir, "%s seed=%d trace=%d seconds=%d"
                 % (args.workload, args.seed, args.trace, args.seconds),
                 counts, problems)
    failed = min(attempted, len(problems))

    print("perfbench %s seed=%d trace=%d threads=%d"
          % (args.workload, args.seed, args.trace, THREADS))
    if not args.trace:
        values = end_to_end(doc, problems)
        missing = [k for k in END_TO_END if k != "ok_frac" and k not in values]
        problems += ["metric %s has no samples" % k for k in missing]
        failed = min(attempted, len(problems))
        frac = m.fail_frac(failed, attempted)
        values["ok_frac"] = (1.0 - frac, attempted)
        for label, samples in (("sweep wall", [s["wall_s"] for s in doc["sweeps"]]),
                               ("setup", doc["setup_s"])):
            if samples:
                print("  %-16s %s" % (label, describe_timing(samples)))
        print("  fail_frac        %.6f (%d/%d)" % (frac, failed, attempted))
        out_metrics = {}
        for metric, unit in END_TO_END.items():
            if metric not in values:
                continue
            value, n = values[metric]
            print("  %-16s %14.6f %-5s (n=%d)" % (metric, value, unit, n))
            out_metrics[metric] = {"value": value, "unit": unit}
    else:
        values = per_layer(doc)
        out_metrics = {}
        for metric, unit in PER_LAYER.items():
            print("  %-26s %16.6f %s" % (metric, values[metric], unit))
            out_metrics[metric] = {"value": values[metric], "unit": unit}
    failed = min(attempted, len(problems))
    for p in problems:
        print("  problem: " + p)
    counts_line = ", ".join("%s=%s" % kv for kv in sorted(doc.get("counts", {}).items()))
    print("  counts: " + counts_line)
    correct = not problems
    print("  correct: %s" % ("yes" if correct else "NO"))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": out_metrics}))


if __name__ == "__main__":
    main()
