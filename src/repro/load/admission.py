"""Bounded-queue admission control in front of the planning service.

The planning service itself plans whatever it is handed; under a
saturating arrival trace that means unbounded batch sizes and unbounded
queueing delay.  :class:`AdmissionController` puts the standard
production guardrail in front: per planning window it services at most
``capacity_per_window`` requests, holds up to ``queue_limit`` more in a
FIFO backlog, and **rejects** (tail-drop) everything beyond that —
raising nothing, so saturation degrades item-by-item instead of failing
whole batches; ``offer`` hands the rejected items back for the caller to
count.

The controller is deliberately ignorant of :class:`PlanRequest`: it
queues opaque *items* (the harness queues :class:`TraceJob`\\ s) and the
caller builds plan requests for the admitted items at dequeue time —
queueing delays a job in *simulated* time, so its plan must be made
with the clock (and the shrunken slack) of the window that actually
services it.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field


@dataclass
class AdmissionStats:
    """Counters of one controller's lifetime (one load run)."""

    offered: int = 0
    admitted: int = 0
    rejected: int = 0
    queued: int = 0  # items that waited at least one window
    queue_peak: int = 0
    windows: int = 0


@dataclass(frozen=True)
class AdmittedItem:
    """An item released for planning, with its queueing history.

    Attributes:
        item: the opaque item handed to :meth:`AdmissionController.offer`.
        waited_windows: planning windows the item spent in the backlog
            (0 = serviced in its arrival window).
    """

    item: object
    waited_windows: int


@dataclass
class AdmissionController:
    """FIFO bounded-queue admission in front of a batch planner.

    Args:
        capacity_per_window: max items released to the planner per
            window (the service's configured capacity).
        queue_limit: max items held back for later windows; offered
            items beyond capacity + free queue slots are rejected.
    """

    capacity_per_window: int
    queue_limit: int
    stats: AdmissionStats = field(default_factory=AdmissionStats)

    def __post_init__(self):
        if self.capacity_per_window < 1:
            raise ValueError("capacity_per_window must be >= 1")
        if self.queue_limit < 0:
            raise ValueError("queue_limit must be >= 0")
        self._backlog: deque[tuple[object, int]] = deque()  # (item, window in)

    @property
    def backlog(self) -> int:
        """Items currently waiting for a later window."""
        return len(self._backlog)

    def offer(self, items) -> tuple[list[AdmittedItem], list[object]]:
        """Run one planning window over the backlog plus *items*.

        Returns ``(admitted, rejected)``: up to ``capacity_per_window``
        :class:`AdmittedItem`\\ s released for planning (backlog first,
        FIFO), and the newly offered items that were tail-dropped
        because the queue was full.
        """
        window = self.stats.windows
        self.stats.windows += 1
        items = list(items)
        self.stats.offered += len(items)
        admitted: list[AdmittedItem] = []
        while self._backlog and len(admitted) < self.capacity_per_window:
            item, window_in = self._backlog.popleft()
            admitted.append(AdmittedItem(item=item, waited_windows=window - window_in))
        rejected: list[object] = []
        for item in items:
            if len(admitted) < self.capacity_per_window:
                admitted.append(AdmittedItem(item=item, waited_windows=0))
            elif len(self._backlog) < self.queue_limit:
                self._backlog.append((item, window))
                self.stats.queued += 1
            else:
                rejected.append(item)
        self.stats.admitted += len(admitted)
        self.stats.rejected += len(rejected)
        self.stats.queue_peak = max(self.stats.queue_peak, len(self._backlog))
        return admitted, rejected
