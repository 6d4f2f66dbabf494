"""An autoscaled pool of planner workers over one :class:`PlanningService`.

The Hourglass argument applied to the service itself: the planning
service should hold exactly as much capacity as the offered decision
load needs — no idle planners in the troughs, no unbounded queueing in
the bursts.  :class:`PlannerPool` runs N worker threads that drain a
FIFO queue of dispatch batches (each batch one
:meth:`~repro.service.planning.PlanningService.plan_many` call) and an
:class:`Autoscaler` that re-evaluates N on every dispatch and completion
event.

The capacity rule is the M/M/N-style heuristic of Mazzucco's elastic
server-farm work (the ``computeN`` square-root staffing equation, see
ROADMAP item 2): with ``rho`` server-equivalents of work in the system,
run

    ``n* = floor(rho + 0.5 * (1 + sqrt(1 + 4 * rho * c1/c2)))``

workers, where ``c1/c2`` (:data:`COST_RATIO`) is the ratio of
queue-holding cost to worker-holding cost — the square-root safety
margin grows with the load, exactly like the M/M/1-approximation
staffing rule.  ``rho`` is estimated from an EWMA of *jobs in system*
(queued + being planned, Little's-law proxy for offered load x service
time) divided by :data:`TARGET_UTILIZATION`.  Power-up and power-down
are asymmetric threshold rules: a single over-capacity evaluation
powers workers up (bursts must not queue behind a slow vote), while
powering down requires :data:`DOWN_HYSTERESIS` consecutive
under-capacity evaluations (troughs must prove themselves, the
haproxy-ec2 threshold rule).

Everything observable is exported as ``svc_pool_*`` metrics through
:mod:`repro.obs` and mirrored in :meth:`PlannerPool.stats` /
:meth:`PlannerPool.timeline` for in-process assertions.
"""

from __future__ import annotations

import math
import queue
import threading
import time
from concurrent.futures import Future
from dataclasses import dataclass

from repro.obs.state import get_metrics

#: Fraction of a worker the policy aims to keep busy: offered load is
#: inflated by its inverse before staffing, leaving headroom for
#: arrival jitter.
TARGET_UTILIZATION = 0.75

#: ``c1/c2`` of the staffing equation: the cost of a queued request
#: relative to a running worker (larger buys a wider safety margin).
COST_RATIO = 1.0

#: Smoothing of the jobs-in-system estimate (1.0 = react to the
#: instantaneous queue).
EWMA_ALPHA = 0.35

#: Consecutive under-capacity evaluations required before powering
#: down (protects against scaling down inside a burst's short gaps).
DOWN_HYSTERESIS = 3


@dataclass(frozen=True)
class PoolConfig:
    """Size bounds of one :class:`PlannerPool`.

    Attributes:
        min_workers / max_workers: hard pool-size bounds (the pool
            starts at ``min_workers``).
    """

    min_workers: int = 1
    max_workers: int = 4

    def __post_init__(self):
        if self.min_workers < 1:
            raise ValueError("min_workers must be >= 1")
        if self.max_workers < self.min_workers:
            raise ValueError("max_workers must be >= min_workers")


class Autoscaler:
    """The deterministic capacity policy: load estimate -> target size.

    Pure bookkeeping (no threads, no clock): callers feed
    :meth:`observe` the current jobs-in-system count and apply the
    returned target.  Kept separate from the pool so the policy is unit-
    testable without racing real workers.
    """

    def __init__(self, config: PoolConfig):
        self.config = config
        self.load_ewma = 0.0
        self._down_votes = 0

    def compute_n(self, rho: float) -> int:
        """The square-root staffing equation at offered load *rho*.

        ``floor(rho + 0.5 * (1 + sqrt(1 + 4 * rho * c1/c2)))``, clamped
        to the configured ``[min_workers, max_workers]`` band.
        """
        c = self.config
        rho = max(0.0, rho)
        n = math.floor(rho + 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * rho * COST_RATIO)))
        return max(c.min_workers, min(c.max_workers, n))

    def observe(self, jobs_in_system: int, current_size: int) -> int:
        """Fold one load sample; returns the new target pool size.

        The EWMA absorbs the sample and the staffing equation proposes
        ``n*``.  An over-capacity proposal moves the pool at once; an
        under-capacity one needs :data:`DOWN_HYSTERESIS` consecutive
        votes, and any other proposal resets the vote count.
        """
        self.load_ewma += EWMA_ALPHA * (jobs_in_system - self.load_ewma)
        n_star = self.compute_n(self.load_ewma / TARGET_UTILIZATION)
        if n_star < current_size:
            self._down_votes += 1
            if self._down_votes >= DOWN_HYSTERESIS:
                self._down_votes = 0
                return n_star
            return current_size
        self._down_votes = 0
        return n_star


@dataclass(frozen=True)
class PoolStats:
    """Lifetime counters of one :class:`PlannerPool`.

    Attributes:
        size: current target pool size.
        size_peak: largest size the autoscaler reached.
        size_low: smallest size any power-down reached (0 until the
            first scale-down — it measures scaling back down, not the
            starting size).
        scale_ups / scale_downs: resize events per direction.
        batches: dispatch batches serviced.
        requests: plan requests serviced across all batches.
        batch_max: largest single dispatch batch.
        in_system: requests dispatched but not yet completed.
    """

    size: int
    size_peak: int
    size_low: int
    scale_ups: int
    scale_downs: int
    batches: int
    requests: int
    batch_max: int
    in_system: int


_POISON = object()


class PlannerPool:
    """N worker threads draining plan batches through one sync service.

    Args:
        service: any object with ``plan_many(requests)`` returning
            per-slot outcomes — normally a
            :class:`~repro.service.planning.PlanningService`.
        config: the pool-size bounds.
        metrics: explicit :class:`~repro.obs.metrics.MetricsRegistry`
            (default: the process registry).  ``svc_pool_size`` /
            ``svc_pool_queue_depth`` gauges, ``svc_pool_resizes_total``
            (labelled by direction), ``svc_pool_batches_total`` and the
            ``svc_pool_dispatch_batch_size`` histogram are maintained
            unconditionally — pool events are rare enough that gating
            them behind the tracer would only hide the capacity story.
    """

    def __init__(self, service, config: PoolConfig | None = None, metrics=None):
        self.service = service
        self.config = config if config is not None else PoolConfig()
        self.metrics = metrics if metrics is not None else get_metrics()
        self.autoscaler = Autoscaler(self.config)
        self._queue: queue.SimpleQueue = queue.SimpleQueue()
        self._lock = threading.Lock()
        self._threads: list[threading.Thread] = []
        self._size = 0
        self._size_peak = 0
        self._size_low = 0
        self._scale_ups = 0
        self._scale_downs = 0
        self._batches = 0
        self._requests = 0
        self._batch_max = 0
        self._in_system = 0
        self._closed = False
        self._timeline: list[tuple[float, int]] = []
        with self._lock:
            self._resize_locked(self.config.min_workers, record=False)

    # ------------------------------------------------------------------
    # Sizing
    # ------------------------------------------------------------------
    def _gauge(self, name: str, help_: str, value: float) -> None:
        self.metrics.gauge(name, help_).set(value)

    def _publish_saturation_locked(self) -> None:
        """Export in-system load per worker (the SLO saturation signal)."""
        self._gauge(
            "svc_pool_saturation",
            "Plan requests in system per planner worker",
            self._in_system / self._size if self._size else float(self._in_system),
        )

    def _resize_locked(self, target: int, record: bool = True) -> None:
        """Move the pool to *target* workers (caller holds ``_lock``)."""
        if target == self._size:
            return
        direction = "up" if target > self._size else "down"
        if target > self._size:
            for _ in range(target - self._size):
                thread = threading.Thread(target=self._worker_loop, daemon=True)
                self._threads.append(thread)
                thread.start()
        else:
            for _ in range(self._size - target):
                self._queue.put(_POISON)
        if record:
            if direction == "up":
                self._scale_ups += 1
            else:
                self._scale_downs += 1
                low = self._size_low if self._size_low else target
                self._size_low = min(low, target)
            self.metrics.counter(
                "svc_pool_resizes_total", "Planner-pool resize events by direction"
            ).inc(1, direction=direction)
        self._size = target
        self._size_peak = max(self._size_peak, target)
        self._timeline.append((time.perf_counter(), target))
        self._gauge("svc_pool_size", "Current planner-pool worker count", target)
        self._publish_saturation_locked()

    def _autoscale_locked(self) -> None:
        if self._closed:
            return
        target = self.autoscaler.observe(self._in_system, self._size)
        self._resize_locked(target)

    def idle_tick(self) -> None:
        """Feed the autoscaler one explicit load sample.

        Dispatches and completions already evaluate the policy; a
        long-lived deployment additionally ticks this from a timer so a
        pool with *no* traffic still decays back to ``min_workers``.
        """
        with self._lock:
            self._autoscale_locked()

    # ------------------------------------------------------------------
    # Dispatch
    # ------------------------------------------------------------------
    def submit_batch(self, requests) -> Future:
        """Queue one ``plan_many`` dispatch; returns its future.

        The future resolves to the per-slot outcome list
        (:class:`PlanResult` or :class:`PlanError` values, request
        order preserved).  Raises :class:`RuntimeError` after
        :meth:`close`.
        """
        requests = list(requests)
        future: Future = Future()
        with self._lock:
            if self._closed:
                raise RuntimeError("planner pool is closed")
            self._in_system += len(requests)
            self._batches += 1
            self._requests += len(requests)
            self._batch_max = max(self._batch_max, len(requests))
            self._queue.put((requests, future))
            self.metrics.counter(
                "svc_pool_batches_total", "Dispatch batches queued to the pool"
            ).inc()
            self.metrics.histogram(
                "svc_pool_dispatch_batch_size",
                "Requests per plan_many dispatch batch",
                buckets=(1, 2, 4, 8, 16, 32, 64, 128),
            ).observe(len(requests))
            self._gauge(
                "svc_pool_queue_depth",
                "Plan requests dispatched but not yet completed",
                self._in_system,
            )
            self._publish_saturation_locked()
            self._autoscale_locked()
        return future

    def _worker_loop(self) -> None:
        while True:
            item = self._queue.get()
            if item is _POISON:
                return
            requests, future = item
            try:
                outcome = self.service.plan_many(requests)
            except BaseException as exc:  # defensive: whole-batch failure
                future.set_exception(exc)
                outcome = None
            else:
                future.set_result(outcome)
            with self._lock:
                self._in_system -= len(requests)
                self._gauge(
                    "svc_pool_queue_depth",
                    "Plan requests dispatched but not yet completed",
                    self._in_system,
                )
                self._publish_saturation_locked()
                self._autoscale_locked()

    # ------------------------------------------------------------------
    # Introspection / shutdown
    # ------------------------------------------------------------------
    def stats(self) -> PoolStats:
        """Snapshot of the pool's lifetime counters."""
        with self._lock:
            return PoolStats(
                size=self._size,
                size_peak=self._size_peak,
                size_low=self._size_low,
                scale_ups=self._scale_ups,
                scale_downs=self._scale_downs,
                batches=self._batches,
                requests=self._requests,
                batch_max=self._batch_max,
                in_system=self._in_system,
            )

    def timeline(self) -> tuple[tuple[float, int], ...]:
        """``(perf_counter, size)`` resize history, start size included."""
        with self._lock:
            return tuple(self._timeline)

    def close(self) -> None:
        """Drain queued batches, stop every worker, reject new work.

        Queued batches are serviced before the poison pills land (the
        dispatch queue is FIFO), so every request submitted before
        ``close()`` still resolves — the no-silent-drop guarantee.
        """
        with self._lock:
            if self._closed:
                return
            self._closed = True
            for _ in range(self._size):
                self._queue.put(_POISON)
            self._size = 0
            threads = list(self._threads)
        for thread in threads:
            thread.join()

    def __enter__(self) -> "PlannerPool":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
