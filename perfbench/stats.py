"""Summary statistics and the comparison of two sets of benchmark runs."""

from __future__ import annotations

import math
import statistics

MIN_BEYOND = 10   # samples a reported percentile needs above it


class TooFewSamples(ValueError):
    """A percentile was asked of fewer samples than the rule allows."""


def percentile(samples, p):
    """Nearest-rank p-th percentile, with at least MIN_BEYOND samples above it.

    Returns (value, count of samples, count beyond the percentile).
    """
    if not 0 < p < 100:
        raise ValueError(f"percentile {p} outside (0, 100)")
    ordered = sorted(samples)
    n = len(ordered)
    rank = max(1, math.ceil(p / 100 * n))
    beyond = n - rank
    if beyond < MIN_BEYOND:
        raise TooFewSamples(f"p{p:g} of {n} samples has {beyond} beyond it, "
                            f"needs {MIN_BEYOND}")
    return ordered[rank - 1], n, beyond


def fail_ratio(attempted, failed):
    if attempted < 1:
        raise ValueError("nothing attempted")
    if not 0 <= failed <= attempted:
        raise ValueError(f"{failed} failed of {attempted} attempted")
    return failed / attempted


def spread(values):
    """Distance between the first and third quartile, as a share of the median."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def worse_by(base, change, better):
    """How much worse `change` is than `base`, as a share of `base` (<= 0: not worse)."""
    delta = (change - base) / base
    return delta if better == "lower" else -delta


def compare_sets(base, change, metrics):
    """Compare two run sets metric by metric against the benchmark's bounds.

    `base` and `change` map (workload, metric) to the list of values of a set;
    `metrics` is the end_to_end list of BENCHMARK.json.  Returns one row per
    pair with both medians, the base spread and a verdict:
    "regressed" when the change's median is worse by more than the bound,
    "unresolved" when the base spread is wider than the bound and not every
    change run beats every base run, else "ok".
    """
    rows = []
    for (workload, name), base_values in sorted(base.items()):
        spec = next(m for m in metrics if m["name"] == name)
        change_values = change[(workload, name)]
        b_med = statistics.median(base_values)
        c_med = statistics.median(change_values)
        worse = worse_by(b_med, c_med, spec["better"])
        b_spread = spread(base_values)
        if worse > spec["bound"]:
            verdict = "regressed"
        elif b_spread > spec["bound"] and not _all_better(base_values, change_values,
                                                           spec["better"]):
            verdict = "unresolved"
        else:
            verdict = "ok"
        rows.append({"workload": workload, "metric": name, "base_median": b_med,
                     "change_median": c_med, "worse_by": worse,
                     "base_spread": b_spread, "bound": spec["bound"],
                     "verdict": verdict})
    return rows


def _all_better(base_values, change_values, better):
    if better == "lower":
        return max(change_values) < min(base_values)
    return min(change_values) > max(base_values)
