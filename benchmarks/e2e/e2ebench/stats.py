"""Order statistics for small samples of timings.

A run has 5-15 reps, so everything is a median and quartiles with the
sample count stated.  A percentile is reported only when at least ten
samples lie beyond it (choosing-metrics section 1); with fewer than 40
reps none qualifies and the output says so instead of printing a p99
made of one sample.
"""

from __future__ import annotations

import math
import statistics

PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0)
MIN_BEYOND = 10


median = statistics.median


def quartiles(values) -> tuple[float, float]:
    """(q1, q3) as ``statistics.quantiles(values, n=4)`` gives them -- the
    definition the acceptance driver uses for its spread."""
    values = list(values)
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def spread(values) -> float:
    """Inter-quartile distance as a share of the median."""
    q1, q3 = quartiles(values)
    return (q3 - q1) / median(values)


def eligible_percentile(n: int) -> float | None:
    """The highest percentile with at least ten of ``n`` samples beyond
    it, or None when no percentile qualifies."""
    for p in PERCENTILES:
        at_or_below = math.ceil(n * p / 100.0 - 1e-9)
        if n - at_or_below >= MIN_BEYOND:
            return p
    return None


def percentile(values, p: float) -> float:
    """Nearest-rank percentile (no interpolation: a reported tail value
    is one that was measured)."""
    ordered = sorted(values)
    rank = max(1, math.ceil(len(ordered) * p / 100.0 - 1e-9))
    return ordered[rank - 1]


def summary(values) -> dict:
    """Median, quartiles and n, plus the eligible percentile if any."""
    values = list(values)
    q1, q3 = quartiles(values)
    out = {"n": len(values), "median": median(values), "q1": q1, "q3": q3}
    p = eligible_percentile(len(values))
    if p is not None:
        out[f"p{p:g}"] = percentile(values, p)
    return out


def describe(values, unit: str) -> str:
    """One line for the human-readable report."""
    s = summary(values)
    tail = [f"{k} {v:.6g}" for k, v in s.items()
            if k not in ("n", "median", "q1", "q3")]
    if not tail:
        tail = [f"no percentile: n={s['n']} leaves fewer than "
                f"{MIN_BEYOND} samples beyond any"]
    return (f"median {s['median']:.6g} {unit}  q1 {s['q1']:.6g}  "
            f"q3 {s['q3']:.6g}  n={s['n']}  ({'; '.join(tail)})")
