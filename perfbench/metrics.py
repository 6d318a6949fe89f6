"""Statistics and checks of perfbench, kept free of I/O so they can be tested.

- percentile rule: a timing is reported as its median plus the highest
  percentile that has at least ten samples beyond it;
- self time: a span's duration minus the part of it its children cover;
- fail_frac: failed / attempted, every kind of failure counted once;
- model error: the model-vs-sim miss latency gap parsed from a figure.
"""

import math

# Percentiles the reports consider, lowest first.
PERCENTILES = (50.0, 90.0, 99.0, 99.9)

# Samples that must lie beyond a percentile for it to be reported.
TAIL_SAMPLES = 10


def percentile(values, p):
    """Nearest-rank percentile of a non-empty sequence."""
    if not values:
        raise ValueError("percentile of no samples")
    ordered = sorted(values)
    rank = max(1, math.ceil(p / 100.0 * len(ordered)))
    return ordered[rank - 1]


def supports(n, p):
    """True when n samples leave at least TAIL_SAMPLES beyond percentile p."""
    return n * (100.0 - p) / 100.0 >= TAIL_SAMPLES - 1e-9


def highest_supported(n):
    """The highest percentile above the median that n samples support, or None."""
    best = None
    for p in PERCENTILES[1:]:
        if supports(n, p):
            best = p
    return best


def summarize(values):
    """Median plus the highest supported tail percentile, with the sample count."""
    out = {"n": len(values)}
    if not values:
        return out
    out["p50"] = percentile(values, 50.0)
    tail = highest_supported(len(values))
    if tail is not None:
        out["tail_p"] = tail
        out["tail"] = percentile(values, tail)
    return out


def fail_frac(failed, attempted):
    """Failures over attempts; every error, shed, timeout or wrong answer is one failure."""
    if attempted <= 0:
        raise ValueError("fail_frac needs at least one attempt")
    if failed < 0 or failed > attempted:
        raise ValueError("failed must lie in [0, attempted]")
    return failed / attempted


def union_length(intervals):
    """Total length covered by a set of [start, end] intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans):
    """Self time of every span, by id.

    spans: [name, start, end, id, parent, request] rows. A span's self
    time is its duration minus the union of its children's intervals,
    each clipped to the parent.
    """
    by_id = {s[3]: s for s in spans}
    children = {}
    for s in spans:
        if s[4] in by_id:
            children.setdefault(s[4], []).append(s)
    out = {}
    for s in spans:
        start, end = s[1], s[2]
        covered = union_length(
            [(max(c[1], start), min(c[2], end))
             for c in children.get(s[3], []) if min(c[2], end) > max(c[1], start)])
        out[s[3]] = (end - start) - covered
    return out


def layer_self_times(spans):
    """Summed self time per span name."""
    selfs = self_times(spans)
    out = {}
    for s in spans:
        out[s[0]] = out.get(s[0], 0.0) + selfs[s[3]]
    return out


def parse_figure(text):
    """Rows of a rendered figure table as dicts keyed by column."""
    rows = []
    header = None
    for line in text.splitlines():
        if not line.startswith("|"):
            continue
        cells = [c.strip() for c in line.strip().strip("|").split("|")]
        if header is None:
            header = cells
            continue
        rows.append(dict(zip(header, cells)))
    return rows


def model_error_pct(text):
    """Mean |model - sim| / sim of the miss latency on the 20 ns rows, in percent.

    Every (workload, series) with a sim row is paired with its model row
    at the same 20 ns cycle. Returns None when the text has no pair.
    """
    model, sim = {}, {}
    for row in parse_figure(text):
        if row.get("cycle (ns)") != "20":
            continue
        key = (row["workload"], row["series"])
        lat = float(row["miss lat (ns)"])
        (sim if row["source"] == "sim" else model)[key] = lat
    gaps = [abs(model[k] - sim[k]) / sim[k] for k in sim if k in model and sim[k] > 0]
    if not gaps:
        return None
    return 100.0 * sum(gaps) / len(gaps)
