"""Brute-force window reads: the oracle :class:`repro.obs.window.Frame` must match.

Every read filters the whole record list by kind, outcome and the
half-open window ``[t - w, t)`` — no sorting, no ``searchsorted`` — and
reduces what is left with the same :func:`percentile` rule.
"""

from __future__ import annotations

from repro.obs.window import percentile


def window_values(records, t, window_s, kind, outcome=None) -> list[float]:
    return [
        r.value
        for r in records
        if r.kind == kind
        and (outcome is None or r.outcome == outcome)
        and t - window_s <= r.t < t
    ]


def count(records, t, window_s, kind, outcome=None) -> int:
    return len(window_values(records, t, window_s, kind, outcome))


def ratio(records, t, window_s, kind, bad) -> float:
    total = count(records, t, window_s, kind)
    return count(records, t, window_s, kind, bad) / total if total else 0.0


def quantile(records, t, window_s, q, kind, outcome=None) -> float:
    return percentile(window_values(records, t, window_s, kind, outcome), q)
