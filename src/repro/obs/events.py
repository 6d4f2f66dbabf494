"""Typed timeline entries shared by metrics observers and exporters.

:class:`TimelineEvent` is what the
:class:`~repro.exec.observers.MetricsObserver` collects per lifecycle
event, and the typed record the trace exporters convert.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class TimelineEvent:
    """One lifecycle timeline entry.

    Attributes:
        t: simulated time of the event.
        kind: what happened (``deploy``, ``checkpoint``, ``eviction``,
            ``checkpoint-failed``, ``forced-lrc``, ``finish``).
        config: configuration name involved, ``"-"`` when none.
    """

    t: float
    kind: str
    config: str = "-"
