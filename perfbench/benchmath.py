"""The benchmark's arithmetic: percentiles, span self time, failure ratios,
run-to-run spread and the context rules for comparing runs.

Everything the driver binary measures reaches the reported metrics through
these functions, and tests/test_benchmath.py pins them.
"""

import math
import statistics

# Percentiles a tail may be reported at, highest first.
TAIL_PERCENTILES = (99.9, 99.0, 90.0)
MIN_SAMPLES_BEYOND = 10


def percentile(values, p):
    """The p-th percentile (0..100) by linear interpolation between order
    statistics: rank p/100 * (n - 1) in the sorted values."""
    if not values:
        raise ValueError("percentile of no values")
    ordered = sorted(values)
    rank = p / 100.0 * (len(ordered) - 1)
    lo = math.floor(rank)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (rank - lo)


# Samples per block for blocked_percentile: p90 of a block then has at
# least 10 samples beyond it.
BLOCK_SAMPLES = 100


def blocks(samples, size=BLOCK_SAMPLES):
    """Split samples, in run order, into n // size consecutive blocks of at
    least `size` samples each (one block when there are fewer)."""
    n = len(samples)
    k = max(1, n // size)
    edges = [round(i * n / k) for i in range(k + 1)]
    return [samples[edges[i]:edges[i + 1]] for i in range(k)]


def blocked_percentile(samples, p, size=BLOCK_SAMPLES):
    """The median over consecutive blocks of each block's p-th percentile.

    Shared hosts have slow stretches lasting about a second; they shift the
    blocks they fall in and leave the median block alone.
    """
    return statistics.median(percentile(b, p) for b in blocks(samples, size))


def median_rate(ops, seconds):
    """Throughput of the median iteration: the median of work / wall time
    over the iterations of a run."""
    if not ops or len(ops) != len(seconds):
        raise ValueError("need one wall time per iteration")
    return statistics.median(o / s for o, s in zip(ops, seconds))


# The host gauge's time (cc/host_gauge.h) on an idle host: a 4-vCPU KVM
# guest on a Xeon (Sapphire Rapids) server. Normalised timings read as
# timings on that host.
HOST_GAUGE_REF_S = 0.012


def bracket_gauge(gauge_s, index):
    """The host gauge reading for a sample tagged with `index`: the mean of
    the reading taken before the sample and the next one, or the one before
    alone when it is the last."""
    if index + 1 < len(gauge_s):
        return (gauge_s[index] + gauge_s[index + 1]) / 2.0
    return gauge_s[index]


def normalize(values, indices, gauge_s, ref_s=HOST_GAUGE_REF_S):
    """Scale timings to the reference host speed: each value times ref_s
    over the gauge reading around it. A host that runs the gauge slower
    runs the library slower by about as much, so the ratio cancels it."""
    if len(values) != len(indices):
        raise ValueError("need one gauge index per value")
    return [v * ref_s / bracket_gauge(gauge_s, i)
            for v, i in zip(values, indices)]


def samples_beyond(n, p):
    """How many of n samples lie above the p-th percentile."""
    return n - math.ceil(n * p / 100.0 - 1e-9)


def tail_percentile(n, candidates=TAIL_PERCENTILES,
                    min_beyond=MIN_SAMPLES_BEYOND):
    """The highest candidate percentile with at least `min_beyond` of n
    samples beyond it, or None when even the lowest has fewer."""
    for p in sorted(candidates, reverse=True):
        if samples_beyond(n, p) >= min_beyond:
            return p
    return None


def failed_ratio(attempted, failed):
    """Failed operations over operations attempted."""
    if attempted <= 0:
        raise ValueError("no operations attempted")
    if failed < 0 or failed > attempted:
        raise ValueError("failed must lie in [0, attempted]")
    return failed / attempted


def covered_ns(start, end, intervals):
    """Length of the part of [start, end] that the union of `intervals`
    covers (intervals are (start, end) pairs and may overlap)."""
    clipped = sorted((max(s, start), min(e, end)) for s, e in intervals
                     if min(e, end) > max(s, start))
    total = 0
    cur_s = cur_e = None
    for s, e in clipped:
        if cur_e is None or s > cur_e:
            if cur_e is not None:
                total += cur_e - cur_s
            cur_s, cur_e = s, e
        else:
            cur_e = max(cur_e, e)
    if cur_e is not None:
        total += cur_e - cur_s
    return total


def self_times(spans):
    """Self time of every span: its duration minus the part of it that its
    children cover. `spans` is a list of dicts with start_ns, end_ns and
    parent (an index into the list, -1 for a root)."""
    children = [[] for _ in spans]
    for i, span in enumerate(spans):
        parent = span["parent"]
        if parent >= 0:
            children[parent].append(i)
    out = []
    for i, span in enumerate(spans):
        inner = [(spans[c]["start_ns"], spans[c]["end_ns"])
                 for c in children[i]]
        out.append(span["end_ns"] - span["start_ns"] -
                   covered_ns(span["start_ns"], span["end_ns"], inner))
    return out


def layer_costs(spans):
    """Per span name: (total self ns, total items)."""
    totals = {}
    for span, own in zip(spans, self_times(spans)):
        ns, items = totals.get(span["name"], (0, 0))
        totals[span["name"]] = (ns + own, items + span["items"])
    return totals


def spread(values):
    """Interquartile range over median, with the quartiles of
    statistics.quantiles(values, n=4)."""
    q1, median, q3 = statistics.quantiles(values, n=4)
    if median == 0:
        return math.inf if q3 != q1 else 0.0
    return (q3 - q1) / abs(median)


def worse_by(first, second, better):
    """How much worse `second` is than `first`, as a share of `first`
    (negative when it is better)."""
    if first == 0:
        return 0.0 if second == first else math.inf
    change = (second - first) / abs(first)
    return change if better == "lower" else -change


def steadiness(runs, metrics):
    """Check a set of runs of one workload against the metrics' bounds.

    runs: list of {metric name: value}; metrics: the end_to_end entries of
    BENCHMARK.json. Returns {name: (spread, bound, ok)}, setup_s included.
    """
    verdicts = {}
    for m in metrics:
        values = [r[m["name"]] for r in runs]
        s = spread(values)
        verdicts[m["name"]] = (s, m["bound"], s <= m["bound"])
    return verdicts


# Context fields that must match for two runs to be compared at all.
COMPARABLE_KEYS = ("workload", "seconds", "obs_level", "build_type", "nproc",
                   "workers", "traced")


def context_mismatch(a, b, same_code):
    """The context keys on which runs a and b may not be compared.

    Runs of different code (a parent and a change) must agree on every
    COMPARABLE_KEYS field; runs of the same code must also share the source
    digest. Seeds may differ: comparisons are over sets of seeds.
    """
    keys = COMPARABLE_KEYS + (("source_sha",) if same_code else ())
    return [k for k in keys if a.get(k) != b.get(k)]
