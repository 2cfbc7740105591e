"""Summary statistics shared by the benchmark runner and the compare script."""

from __future__ import annotations

import math
import statistics

#: Percentiles a timing tail may be reported at, highest last.
TAIL_PERCENTILES = (50.0, 75.0, 90.0, 95.0, 99.0)

#: Samples that must lie beyond a reported tail percentile.
TAIL_MIN_BEYOND = 10


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """``(q1, median, q3)`` as :func:`statistics.quantiles` gives them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values: list[float]) -> float:
    """Inter-quartile distance as a share of the median (0 for one value)."""
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / abs(med) if med else math.inf


def tail_percentile(n: int) -> float:
    """The highest of :data:`TAIL_PERCENTILES` with at least
    :data:`TAIL_MIN_BEYOND` of ``n`` samples beyond it (the median when
    there are too few samples for any tail)."""
    best = TAIL_PERCENTILES[0]
    for p in TAIL_PERCENTILES:
        if n * (1.0 - p / 100.0) >= TAIL_MIN_BEYOND:
            best = p
    return best


def percentile(values: list[float], p: float) -> float:
    """Nearest-rank percentile ``p`` (0-100) of ``values``."""
    ordered = sorted(values)
    rank = max(1, math.ceil(p / 100.0 * len(ordered)))
    return ordered[rank - 1]


def summarize(values: list[float]) -> dict:
    """Median, quartiles, tail percentile, tail mean and sample count of a
    timing (all zero when nothing was measured).  The tail mean averages
    the samples at or beyond the tail percentile: unlike the percentile it
    does not jump between clusters when the samples come in groups, as one
    campaign's runs on several platforms do."""
    if not values:
        return {
            "median": 0.0, "q1": 0.0, "q3": 0.0, "n": 0,
            "tail_pct": 50.0, "tail": 0.0, "tail_mean": 0.0,
        }
    q1, med, q3 = quartiles(values)
    p = tail_percentile(len(values))
    tail = percentile(values, p)
    beyond = [v for v in values if v >= tail]
    return {
        "median": med, "q1": q1, "q3": q3, "n": len(values),
        "tail_pct": p, "tail": tail, "tail_mean": sum(beyond) / len(beyond),
    }
