"""Small statistics the benchmark reports with: percentiles that refuse
to outrun their sample, medians/quartiles over repeats, smoothed ratios."""

from __future__ import annotations

import re
import statistics


def percentile(values, q: float) -> float:
    """Linear-interpolation percentile (q in [0, 100]) of a non-empty sample."""
    data = sorted(values)
    if not data:
        raise ValueError("percentile of an empty sample")
    rank = q / 100.0 * (len(data) - 1)
    lo = int(rank)
    hi = min(lo + 1, len(data) - 1)
    frac = rank - lo
    return data[lo] * (1.0 - frac) + data[hi] * frac


def samples_beyond(n: int, q: float) -> int:
    """How many of *n* samples lie beyond the q-th percentile."""
    return int(n * (100.0 - q) / 100.0 + 1e-9)


def require_tail_support(metric: str, n: int, min_beyond: int = 10) -> None:
    """Refuse a ``*_p<q>_ms`` metric unless *min_beyond* of its *n*
    samples lie beyond the percentile — a p99 over 100 samples is one
    sample, not a percentile."""
    match = re.search(r"_p(\d+)_ms$", metric)
    if match and samples_beyond(n, float(match.group(1))) < min_beyond:
        raise ValueError(
            f"{metric} needs {min_beyond} samples beyond it; n={n} has "
            f"{samples_beyond(n, float(match.group(1)))}"
        )


def smoothed_share(bad: int, total: int) -> float:
    """Add-one smoothed ``bad / total``: ``(bad + 1) / (total + 1)``.

    The regression bound of a metric is a share of the parent's median,
    which is meaningless at 0 — and the healthy value of a failure or
    miss share *is* 0.  Smoothing keeps the share strictly positive and
    strictly increasing in *bad*, so one new failure still moves it by
    far more than any bound.
    """
    if total < 0 or bad < 0 or bad > total:
        raise ValueError(f"need 0 <= bad <= total, got {bad}/{total}")
    return (bad + 1) / (total + 1)


def quartiles(values) -> tuple[float, float, float]:
    """(q1, median, q3) as ``statistics.quantiles(values, n=4)`` gives them."""
    values = list(values)
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3

