"""Summary statistics the replay benchmark reports, kept apart so the
self-tests (test_perfbench.py) cover exactly what run.py uses."""

import math
import statistics

# A tail percentile is reported only with at least this many samples
# strictly beyond it.
TAIL_SAMPLES_BEYOND = 10


def median(values):
    return statistics.median(values)


def quartiles(values):
    """(q1, median, q3) as statistics.quantiles(values, n=4) gives them."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values):
    """Inter-quartile distance as a share of the median."""
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / q2


def tail_percentile(n):
    """Highest whole percentile, at most 99, with at least
    TAIL_SAMPLES_BEYOND of n samples beyond it; None when even the median
    has fewer."""
    if n <= 0:
        return None
    p = min(99, math.floor(100.0 * (1.0 - TAIL_SAMPLES_BEYOND / n) + 1e-9))
    return p if p >= 50 else None


def percentile(values, p):
    """Nearest-rank percentile: the smallest sample with at least p % of
    the samples at or below it."""
    ordered = sorted(values)
    rank = max(1, math.ceil(p / 100.0 * len(ordered) - 1e-9))
    return ordered[rank - 1]


def tail(values):
    """(percentile, value) by the rule above, or (None, max) when the
    sample is too small for any tail."""
    p = tail_percentile(len(values))
    if p is None:
        return None, max(values)
    return p, percentile(values, p)
