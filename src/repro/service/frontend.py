"""Asyncio frontend over the planning service: plan inline, coalesce per tick.

The planner is a synchronous decision procedure that takes milliseconds
(the paper's §5.3): a pure-Python DP that holds the GIL, so planner
threads behind a queue cannot run two plans at once, and the queue, the
futures and the thread hops they need cost more than the coalesced
requests they answer.  :class:`PlanFrontend` therefore plans on the
event-loop thread itself:

* **Inline planning** — :meth:`PlanFrontend.plan` keys the request with
  :meth:`~repro.service.planning.PlanningService.request_key` and, unless
  the key was already planned this tick, calls
  :meth:`~repro.service.planning.PlanningService.plan` directly.  There
  is no queue, no dispatcher task, no waiter future and no thread.
* **Per-tick coalescing** — every result planned during one pass of the
  event loop's ready callbacks is kept in a dict keyed by
  ``request_key``; a later request with an equal key in the same tick
  receives the identical :class:`PlanResult` without planning.  One
  ``loop.call_soon`` callback clears the dict when the loop moves on, so
  a key planned in one tick is planned again in the next.  Safety is
  inherited from the estimator's own memo buckets: equal keys planned
  back-to-back read identical costs.  Baselines key to None and are
  always planned.

Every submission resolves at once: to a :class:`PlanResult`, or to a
:class:`PlanError` (failed admission or keying, or a plan that raised).
A plan that raises is never shared: each caller plans, and fails, on
its own.  Nothing queues, so nothing overflows.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass

from repro.obs.metrics import MetricsRegistry
from repro.service.planning import PlanError, PlanRequest, PlanResult


@dataclass(frozen=True)
class PoolConfig:
    """Inert: nothing plans off the event-loop thread.

    Kept only because the ``serve_burst_dup`` benchmark builds one;
    ROADMAP item 29 removes it with the benchmark's frontend path.
    """

    min_workers: int
    max_workers: int


@dataclass(frozen=True)
class FrontendConfig:
    """Inert: the inline frontend has no knob.

    ``max_inflight`` bounded a queue and ``max_batch`` sized its
    dispatches; nothing queues now, so nothing overflows and nothing
    batches.  ``pool`` sized planner threads that are gone.  The fields
    stay only because the ``serve_burst_dup`` benchmark passes them;
    ROADMAP item 29 removes them.
    """

    max_inflight: int
    max_batch: int
    pool: PoolConfig


@dataclass(frozen=True)
class PoolStats:
    """The one planner there is: the event-loop thread.

    Attributes:
        batches: calls to ``service.plan`` (one request each).
        size_peak: always 1.
    """

    batches: int
    size_peak: int = 1


@dataclass(frozen=True)
class FrontendStats:
    """Lifetime counters of one frontend.

    ``submitted = planned + coalesced + rejected + overflowed``: every
    submission is accounted to exactly one outcome.  ``planned`` counts
    calls to ``service.plan`` (a plan that raised included),
    ``coalesced`` answers shared from an earlier plan of the same tick,
    and ``rejected`` failures at admission or keying.  ``overflowed`` is
    always 0 and ``pool`` is the inert planner record; ROADMAP item 29
    removes both.
    """

    submitted: int
    planned: int
    coalesced: int
    rejected: int
    overflowed: int
    pool: PoolStats


class PlanFrontend:
    """Async request frontend over one sync :class:`PlanningService`.

    Bind it to the running loop with :meth:`start` and release it with
    :meth:`aclose`::

        frontend = await PlanFrontend(service).start()
        result = await frontend.plan(request)
        await frontend.aclose()

    Args:
        service: the backing :class:`PlanningService`.
        config: inert (see :class:`FrontendConfig`).
        metrics: explicit registry for the ``svc_pool_requests_total``
            counter (default: a registry of its own).
    """

    def __init__(self, service, config: FrontendConfig | None = None, metrics=None):
        self.service = service
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self._loop: asyncio.AbstractEventLoop | None = None
        self._tick: dict[tuple, PlanResult] = {}  # this tick's results by key
        self._tick_open = False  # an end-of-tick callback is scheduled
        self._submitted = 0
        self._planned = 0
        self._coalesced = 0
        self._rejected = 0
        # The per-outcome counter is flushed in deltas once a tick (and
        # by stats()/aclose) rather than incremented per request: a
        # registry lookup + label render per submission would cost as
        # much as the coalesced request it accounts for.
        self._requests_counter = self.metrics.counter(
            "svc_pool_requests_total", "Frontend submissions by outcome"
        )
        self._flushed = {"planned": 0, "coalesced": 0, "rejected": 0}

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> "PlanFrontend":
        """Bind to the running loop."""
        self._loop = asyncio.get_running_loop()
        return self

    async def aclose(self) -> None:
        """Stop accepting requests and publish the outcome counter."""
        self._loop = None
        self._tick.clear()
        self._flush_request_metrics()

    # ------------------------------------------------------------------
    # Submission
    # ------------------------------------------------------------------
    async def plan(self, request: PlanRequest) -> PlanResult:
        """Plan one request on the loop thread, or share this tick's plan.

        Raises:
            PlanError: the frontend is not running, admission or keying
                failed, or the plan raised (any error other than a
                :class:`PlanError` is chained as its cause).
        """
        if self._loop is None:
            raise PlanError("frontend is not running")
        if not self._tick_open:
            self._tick_open = True
            self._loop.call_soon(self._end_tick)
        self._submitted += 1
        try:
            key = self.service.request_key(request)
        except Exception as exc:
            self._rejected += 1
            if isinstance(exc, PlanError):
                raise
            raise PlanError(f"plan request failed keying: {exc!r}") from exc
        if key is not None:
            shared = self._tick.get(key)
            if shared is not None:
                self._coalesced += 1
                return shared
        self._planned += 1
        try:
            result = self.service.plan(request)
        except Exception as exc:
            if isinstance(exc, PlanError):
                raise
            raise PlanError(f"plan request failed planning: {exc!r}") from exc
        if key is not None:
            self._tick[key] = result
        return result

    def _end_tick(self) -> None:
        """Forget this tick's results and publish its outcome counts."""
        self._tick_open = False
        self._tick.clear()
        self._flush_request_metrics()

    def _flush_request_metrics(self) -> None:
        """Publish outcome-counter deltas accumulated since last flush."""
        current = {
            "planned": self._planned,
            "coalesced": self._coalesced,
            "rejected": self._rejected,
        }
        for outcome, count in current.items():
            delta = count - self._flushed[outcome]
            if delta:
                self._requests_counter.inc(delta, outcome=outcome)
        self._flushed = current

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def stats(self) -> FrontendStats:
        """Snapshot of the frontend's lifetime counters."""
        self._flush_request_metrics()
        return FrontendStats(
            submitted=self._submitted,
            planned=self._planned,
            coalesced=self._coalesced,
            rejected=self._rejected,
            overflowed=0,
            pool=PoolStats(batches=self._planned),
        )
