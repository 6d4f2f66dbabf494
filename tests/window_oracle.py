"""Brute-force window reads: the oracle :class:`repro.obs.window.Frame` must match.

Every read filters the whole record list by kind, outcome and the
half-open window ``[t - w, t)`` — no sorting, no ``searchsorted`` — and
reduces what is left with the same :func:`percentile` rule.

:func:`alerts` over :func:`ticks` is the reference for
:meth:`repro.obs.slo.SloMonitor.alerts`: the same transitions, folded
once over a finished log instead of tick by tick as the clock advances.
"""

from __future__ import annotations

from repro.obs.slo import _transitions, statuses
from repro.obs.window import Frame, percentile


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


def ticks(log) -> list[float]:
    """Every ``log.origin + k * log.tick_s`` (k >= 1) at or before its clock."""
    out, k = [], 1
    while log.origin + k * log.tick_s <= log.clock:
        out.append(log.origin + k * log.tick_s)
        k += 1
    return out


def alerts(objectives, records, instants) -> list:
    """Every rule transition over *instants*: a pure function of
    the records."""
    frame = Frame(records)
    previous: tuple = ()
    out: list = []
    for t in instants:
        current = statuses(objectives, frame, t)
        out.extend(_transitions(previous, current, t))
        previous = current
    return out
