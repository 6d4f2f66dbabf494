"""Asyncio frontend over the planning service: coalesce, batch, backpressure.

PR 6's load harness showed the synchronous service is the bottleneck
under production-shaped traffic: same-key requests serialise on one
estimator lock, and windowed ``plan_many`` batches leave planner
capacity idle between windows.  :class:`PlanFrontend` is the serving
layer that fixes both:

* **Request coalescing** — identical in-flight requests (equal
  :meth:`~repro.service.planning.PlanningService.request_key`: same
  estimator key, decision time, slack cell, work, current deployment)
  share one future: one estimator evaluation answers all of them, and
  each caller receives the identical :class:`PlanResult`.  Safety is
  inherited from the estimator's own memo buckets — the second request
  would have read the first one's memoised costs anyway.
* **Batched dispatch** — pending requests are drained into dispatch
  batches of up to ``max_batch`` and planned in one
  :meth:`~repro.service.planning.PlanningService.plan_many` call, which
  groups same-key members under a single lock pass.  Batches form from
  whatever is queued *now* (no window timer), so planner capacity never
  idles while work is waiting.
* **Backpressure** — at most ``max_inflight`` requests may be admitted
  and unresolved; a submission beyond that fails fast with
  :class:`PlanError` instead of queueing unboundedly.  The load
  harness, which plans in windows and not through the frontend, keeps
  its own bounded queue: the tail-dropping
  :class:`~repro.load.admission.AdmissionController`.

Behind the frontend a :class:`~repro.service.pool.PlannerPool` drives
the sync service from N worker threads, autoscaled with offered load —
the planning service provisioning *itself* the way Hourglass provisions
workers.

Every admitted request resolves: to a :class:`PlanResult`, or to a
:class:`PlanError` (admission, overflow, or shutdown with work still
queued — :meth:`aclose` drains the queue first, so that last case means
the event loop died).  Nothing is silently dropped.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass, field

from repro.obs.metrics import MetricsRegistry
from repro.service.planning import PlanError, PlanRequest, PlanResult
from repro.service.pool import PlannerPool, PoolConfig, PoolStats


class FrontendOverloadError(PlanError):
    """The inflight bound was hit: the submission was shed, not queued.

    A distinct type so callers can separate load-shedding (retry later,
    count as overload) from admission rejections (the request itself is
    invalid and will never pass).
    """


@dataclass(frozen=True)
class FrontendConfig:
    """Serving-layer knobs of one :class:`PlanFrontend`.

    Attributes:
        max_inflight: bound on admitted-but-unresolved requests
            (coalesced waiters excluded — they add no planner work);
            submissions beyond it raise :class:`PlanError`.
        max_batch: largest ``plan_many`` dispatch the batcher forms.
        pool: size bounds of the backing planner pool.
    """

    max_inflight: int = 1024
    max_batch: int = 32
    pool: PoolConfig = field(default_factory=PoolConfig)

    def __post_init__(self):
        if self.max_inflight < 1:
            raise ValueError("max_inflight must be >= 1")
        if self.max_batch < 1:
            raise ValueError("max_batch must be >= 1")


@dataclass(frozen=True)
class FrontendStats:
    """Lifetime counters of one frontend (pool stats nested).

    ``submitted = planned + coalesced + rejected + overflowed`` once the
    frontend is drained: every submission is accounted to exactly one
    outcome.
    """

    submitted: int
    planned: int
    coalesced: int
    rejected: int
    overflowed: int
    batches: int
    batch_max: int
    pool: PoolStats


class _InflightEntry:
    """One admitted (leader) request: its future plus coalesced waiters."""

    __slots__ = ("future", "waiters")

    def __init__(self, future: asyncio.Future):
        self.future = future
        self.waiters: list[asyncio.Future] = []

    def resolve(self, outcome) -> None:
        """Fan one outcome out to the leader and every waiter."""
        targets = [self.future]
        targets.extend(self.waiters)
        for future in targets:
            if future.done():  # a cancelled waiter; the rest still land
                continue
            if isinstance(outcome, BaseException):
                future.set_exception(outcome)
            else:
                future.set_result(outcome)


class PlanFrontend:
    """Async request frontend over one sync :class:`PlanningService`.

    Use as an async context manager (or call :meth:`start` /
    :meth:`aclose` explicitly)::

        async with PlanFrontend(service) as frontend:
            result = await frontend.plan(request)

    Args:
        service: the backing :class:`PlanningService`.
        config: serving knobs (defaults are benchmark-sane).
        metrics: explicit registry for the ``svc_pool_*`` series
            (default: a registry of its own), shared with the pool.
    """

    def __init__(self, service, config: FrontendConfig | None = None, metrics=None):
        self.service = service
        self.config = config if config is not None else FrontendConfig()
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.pool = PlannerPool(service, self.config.pool, metrics=self.metrics)
        self._queue: asyncio.Queue | None = None
        self._loop: asyncio.AbstractEventLoop | None = None
        self._dispatcher: asyncio.Task | None = None
        self._inflight: dict[tuple, _InflightEntry] = {}
        self._pending = 0  # admitted, not yet resolved (leaders only)
        self._submitted = 0
        self._planned = 0
        self._coalesced = 0
        self._rejected = 0
        self._overflowed = 0
        self._closed = False
        # The per-outcome counter is flushed in deltas (stats()/aclose)
        # rather than incremented per request: a registry lookup + label
        # render per submission would cost as much as the coalesced
        # request it accounts for.
        self._requests_counter = self.metrics.counter(
            "svc_pool_requests_total", "Frontend submissions by outcome"
        )
        self._flushed = {"planned": 0, "coalesced": 0, "rejected": 0, "overflowed": 0}

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> "PlanFrontend":
        """Bind to the running loop and start the dispatcher task."""
        if self._dispatcher is not None:
            return self
        self._loop = asyncio.get_running_loop()
        self._queue = asyncio.Queue()
        self._dispatcher = asyncio.create_task(
            self._dispatch_loop(), name="plan-frontend-dispatcher"
        )
        return self

    async def aclose(self) -> None:
        """Drain queued work, stop the dispatcher, close the pool."""
        if self._dispatcher is None:
            return
        self._closed = True
        # Everything already admitted still resolves: wait for the
        # pending count (queued + dispatched) to reach zero.
        while self._pending:
            await asyncio.sleep(0.001)
        self._dispatcher.cancel()
        try:
            await self._dispatcher
        except asyncio.CancelledError:
            pass
        self._dispatcher = None
        self.pool.close()
        self._flush_request_metrics()

    async def __aenter__(self) -> "PlanFrontend":
        return await self.start()

    async def __aexit__(self, *exc) -> None:
        await self.aclose()

    # ------------------------------------------------------------------
    # Submission
    # ------------------------------------------------------------------
    async def plan(self, request: PlanRequest) -> PlanResult:
        """Plan one request through coalescing, batching and the pool.

        Raises:
            PlanError: failed admission or keying (any other keying
                error is chained as its cause), or the inflight bound is
                hit (overflow — the caller sheds load, nothing was queued).
        """
        if self._dispatcher is None or self._closed:
            raise PlanError("frontend is not running")
        self._submitted += 1
        try:
            key = self.service.request_key(request)
        except Exception as exc:
            self._rejected += 1
            if isinstance(exc, PlanError):
                raise
            raise PlanError(f"plan request failed keying: {exc!r}") from exc
        if key is not None:
            shared = self._inflight.get(key)
            if shared is not None and not shared.future.done():
                self._coalesced += 1
                # Each waiter gets its own future (resolved alongside
                # the leader's in _resolve): cancelling one waiter then
                # cannot touch the shared computation, and the fan-out
                # is cheaper than a shield per waiter.
                waiter: asyncio.Future = self._loop.create_future()
                shared.waiters.append(waiter)
                return await waiter
        if self._pending >= self.config.max_inflight:
            self._overflowed += 1
            raise FrontendOverloadError(
                f"frontend overloaded: {self._pending} requests in flight "
                f"(max_inflight={self.config.max_inflight})"
            )
        entry = _InflightEntry(self._loop.create_future())
        if key is not None:
            self._inflight[key] = entry
            entry.future.add_done_callback(
                lambda _f, _k=key, _e=entry: self._forget(_k, _e)
            )
        self._pending += 1
        self._planned += 1
        self._queue.put_nowait((request, entry))
        # Shield: the leader's cancellation must not cancel the shared
        # computation its coalesced waiters are parked on.
        return await asyncio.shield(entry.future)

    def _forget(self, key: tuple, entry: "_InflightEntry") -> None:
        if self._inflight.get(key) is entry:
            del self._inflight[key]

    def _flush_request_metrics(self) -> None:
        """Publish outcome-counter deltas accumulated since last flush."""
        current = {
            "planned": self._planned,
            "coalesced": self._coalesced,
            "rejected": self._rejected,
            "overflowed": self._overflowed,
        }
        for outcome, count in current.items():
            delta = count - self._flushed[outcome]
            if delta:
                self._requests_counter.inc(delta, outcome=outcome)
        self._flushed = current

    # ------------------------------------------------------------------
    # Dispatch
    # ------------------------------------------------------------------
    async def _dispatch_loop(self) -> None:
        """Drain the queue into ``plan_many`` dispatches, eagerly.

        The batching rule is availability, not a window: one queued
        request dispatches alone rather than wait, and a full queue is
        chopped into ``max_batch`` slices back-to-back — the pool (not a
        timer) is what absorbs bursts.
        """
        assert self._queue is not None
        while True:
            first = await self._queue.get()
            batch = [first]
            while len(batch) < self.config.max_batch and not self._queue.empty():
                batch.append(self._queue.get_nowait())
            pool_future = self.pool.submit_batch([req for req, _ in batch])
            pool_future.add_done_callback(
                lambda f, b=batch: self._loop.call_soon_threadsafe(
                    self._resolve, b, f
                )
            )

    def _resolve(self, batch, pool_future) -> None:
        """Publish one dispatch's outcomes: leaders first, then waiters."""
        try:
            outcomes = pool_future.result()
        except BaseException as exc:  # whole-batch failure (defensive)
            error = PlanError(f"planner pool dispatch failed: {exc!r}")
            error.__cause__ = exc
            outcomes = [error] * len(batch)
        self._pending -= len(batch)
        for (_request, entry), outcome in zip(batch, outcomes):
            if not isinstance(outcome, PlanResult) and not isinstance(
                outcome, BaseException
            ):  # unplanned slot (should not happen): surface loudly
                outcome = PlanError(f"dispatch returned no outcome: {outcome!r}")
            entry.resolve(outcome)
        # Per-batch flush keeps svc_pool_requests_total current for
        # mid-run scrapes at batch (not per-request) granularity; runs
        # on the loop thread, so it cannot race plan()'s increments.
        self._flush_request_metrics()

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def stats(self) -> FrontendStats:
        """Snapshot of the frontend's lifetime counters."""
        self._flush_request_metrics()
        pool = self.pool.stats()  # one snapshot: workers may be mid-batch
        return FrontendStats(
            submitted=self._submitted,
            planned=self._planned,
            coalesced=self._coalesced,
            rejected=self._rejected,
            overflowed=self._overflowed,
            batches=pool.batches,
            batch_max=pool.batch_max,
            pool=pool,
        )
