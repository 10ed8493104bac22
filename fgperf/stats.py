"""The one statistics helper behind every fgperf metric.

Each estimator returns a Stat: the value and the number of samples it rests
on, so every timing is printed next to its sample count. A percentile is
refused (TooFewSamples) unless at least MIN_BEYOND samples lie beyond it:
p95 needs 200 samples, p90 needs 100 and p50 needs 20.

Run its test with:  python3 -m unittest discover -s fgperf -p 'test_*.py'
"""

import math
import statistics
from dataclasses import dataclass

MIN_BEYOND = 10


class TooFewSamples(ValueError):
    pass


@dataclass(frozen=True)
class Stat:
    value: float
    n: int


def _checked(xs):
    xs = [float(x) for x in xs]
    if not xs:
        raise TooFewSamples("no samples")
    return xs


def median(xs):
    xs = sorted(_checked(xs))
    mid = len(xs) // 2
    value = xs[mid] if len(xs) % 2 else (xs[mid - 1] + xs[mid]) / 2
    return Stat(value, len(xs))


def best(xs):
    """Best-of-k: the fastest of k repeats, the contention-robust estimate of
    what the code costs when nothing else runs."""
    xs = _checked(xs)
    return Stat(min(xs), len(xs))


def percentile(xs, p):
    """Nearest-rank percentile: the smallest sample with at least p% of the
    samples at or below it. Refused unless MIN_BEYOND samples lie above it."""
    if not 0 < p < 100:
        raise ValueError("p must be in (0, 100)")
    xs = sorted(_checked(xs))
    rank = math.ceil(p / 100 * len(xs))
    beyond = len(xs) - rank
    if beyond < MIN_BEYOND:
        raise TooFewSamples(
            f"p{p:g} of {len(xs)} samples has {beyond} beyond it; "
            f"needs {MIN_BEYOND}")
    return Stat(xs[rank - 1], len(xs))


def iqr_share(xs):
    """Interquartile range as a share of the median (the steadiness figure),
    with quartiles as statistics.quantiles(xs, n=4) gives them."""
    q1, med, q3 = statistics.quantiles(_checked(xs), n=4)
    return (q3 - q1) / med
