"""The multi-tenant planning service: one long-lived decision path.

The paper evaluates one job at a time, each execution privately
building its estimator, memo tables and market snapshot.  A production
deployment (the ROADMAP's "many concurrent recurring jobs") wants the
opposite: one long-lived :class:`PlanningService` serving
:class:`PlanRequest`\\ s from many tenants, reusing the expensive
artifacts across them:

* **Keyed estimator cache** — one warm
  :class:`~repro.core.expected_cost.ApproximateCostEstimator` per
  ``(catalog fingerprint, performance fingerprint, grid resolution)``.
  The DP lives in slack space, so recurring executions (same job, new
  deadline every period) and *distinct* jobs with identical catalogues
  and performance models share the same memo tables.  The estimator's
  :data:`~repro.core.expected_cost.PRICE_TOLERANCE` drift rule is an
  explicit price *epoch*: a snapshot drifting past the tolerance retires
  every memoised state of that key at once (``CacheStats.epoch`` counts
  retirements).
* **Shared market snapshots** — N concurrent jobs deciding at time *t*
  take one ``market.config_rates(catalog, t)`` snapshot, not N; the
  service memoises the dense rate array per ``(catalog, t)``.
* **Batched decisions** — :meth:`PlanningService.plan_many` groups
  same-catalogue requests so a batch holds each estimator's lock once
  and walks its warm memo back-to-back, bit-identical to the one-at-a-
  time loop.

Admission validates every request's decision state (a time the market
prices, a finite non-negative work fraction) and catalogue (non-empty,
at least one on-demand last-resort configuration), whatever its
strategy, and raises :class:`PlanError` instead of letting a downstream
ValueError or IndexError surface.  Per-request
telemetry (decision latency, memo hits/misses, snapshot reuse) rides on
each :class:`PlanResult` and reaches every hook registered with
:meth:`PlanningService.add_decision_hook`.

Thread safety: requests for different estimator keys plan concurrently;
requests sharing a key serialise on that estimator's lock (the memo and
its rate snapshot are one mutable unit).  Decisions are deterministic —
a thread pool firing the same requests returns bit-identical decisions
to the serial loop.
"""

from __future__ import annotations

import math
import threading
import time
from collections import OrderedDict
from dataclasses import dataclass, field

from repro.cloud.configuration import Configuration
from repro.cloud.market import SpotMarket
from repro.core.expected_cost import (
    MAX_WORK_LEFT,
    ApproximateCostEstimator,
    CacheStats,
    Decision,
    adaptive_grids,
    check_dp_parameters,
)
from repro.core.provisioner import ProvisioningContext
from repro.core.slack import SlackModel
from repro.core.warning import NO_WARNING, WarningPolicy

#: How many ``(catalog, t)`` rate snapshots the service keeps; the
#: keying memo is cleared past four times this many session tuples.
SNAPSHOT_CAPACITY = 256


class PlanError(ValueError):
    """A plan request failed service admission or strategy resolution."""


@dataclass(frozen=True)
class PlanRequest:
    """One provisioning question: what should this job run next?

    Attributes:
        slack_model: the job's deadline/performance binding.
        catalog: candidate configurations (validated at admission).
        t: decision time on the market timeline.
        work_left: fraction of the job outstanding.
        current_config: the running configuration, or None at job start
            / after an eviction.
        current_uptime: how long the current deployment has been up.
        strategy: strategy name (``hourglass`` or a baseline key).
        slack_grid / work_grid: memo granularity override.  None lets
            the service resolve them from this request's slack exactly
            like a fresh estimator would auto-tune; a job session pins
            the grids resolved at its first decision so every later
            decision lands in the same memo space.
    """

    slack_model: SlackModel
    catalog: tuple[Configuration, ...]
    t: float = 0.0
    work_left: float = 1.0
    current_config: Configuration | None = None
    current_uptime: float = 0.0
    strategy: str = "hourglass"
    slack_grid: float | None = None
    work_grid: float | None = None


@dataclass(frozen=True)
class PlanTelemetry:
    """What one decision cost the service.

    Attributes:
        latency_s: wall-clock *service* seconds actually spent on this
            decision (admission, keying, snapshot lookup, DP walk) —
            excluding time spent waiting behind other requests, so warm
            vs cold comparisons are independent of batch position.
        queue_wait_s: wall-clock seconds this request waited on the
            shared estimator before being serviced: the lock wait in
            :meth:`PlanningService.plan`, the batch-queue wait (earlier
            groups and earlier members, lock included) in
            :meth:`PlanningService.plan_many`.  ``latency_s +
            queue_wait_s`` is the request's total admission-to-decision
            wall clock.
        memo_hits / memo_misses: estimator state lookups served from /
            added to the shared memo by this decision (0/0 for
            baseline strategies, which keep no DP state).
        memo_entries: states memoised under this request's key after
            the decision.
        invalidations: price-epoch retirements triggered by this
            request's snapshot.
        epoch: the price epoch the decision was computed in.
        snapshot_reused: the decision reused a rate snapshot another
            request had already taken at the same (catalog, t).
        estimator_reused: the request hit a warm estimator (False =
            this request paid the cold construction).
    """

    latency_s: float
    memo_hits: int = 0
    memo_misses: int = 0
    memo_entries: int = 0
    invalidations: int = 0
    epoch: int = 0
    snapshot_reused: bool = False
    estimator_reused: bool = False
    queue_wait_s: float = 0.0


@dataclass(frozen=True)
class PlanResult:
    """A decision plus what it cost to make."""

    decision: Decision
    telemetry: PlanTelemetry


@dataclass
class _EstimatorEntry:
    """One cached estimator: the warm DP state for one planning key."""

    estimator: ApproximateCostEstimator
    lock: threading.Lock = field(default_factory=threading.Lock)


class PlanningService:
    """Long-lived, thread-safe decision service over one spot market.

    Args:
        market: the market every tenant's decisions consult.
        warning: eviction-warning contract baked into hourglass
            estimators (§9 extension).
        metrics: accepted and ignored; the service records no metric
            (per-decision telemetry goes to :meth:`add_decision_hook`).
    """

    def __init__(
        self,
        market: SpotMarket,
        warning: WarningPolicy = NO_WARNING,
        metrics=None,
    ):
        self.market = market
        self._decision_hooks: list = []
        self.warning = warning
        self._mutex = threading.Lock()  # guards the dicts and counters
        self._entries: dict[tuple, _EstimatorEntry] = {}
        self._snapshots: OrderedDict[tuple, object] = OrderedDict()
        # Keying memo: (id(catalog), id(perf), id(lrc), grids) ->
        # (catalog, perf, lrc, estimator key); see ``_keyed``.  GIL-atomic
        # dict ops; a rare duplicate recompute is deterministic and harmless.
        self._keyed_memo: dict[tuple, tuple] = {}
        # The span every trace prices; a decision time outside it cannot
        # be priced, so ``_check_state`` rejects it up front.
        self._priced = (market.start, market.horizon)
        self._plans = 0
        self._batches = 0
        self._estimators_built = 0
        self._snapshot_hits = 0
        self._snapshot_misses = 0

    # ------------------------------------------------------------------
    # Admission and keying
    # ------------------------------------------------------------------
    def _check_state(self, request: PlanRequest) -> None:
        """Reject a decision state no strategy can plan from.

        Raises:
            PlanError: the decision time lies outside the market's priced
                range, or ``work_left`` is not a non-negative fraction of
                a job (at most :data:`MAX_WORK_LEFT`).
        """
        t, work_left = request.t, request.work_left
        lo, hi = self._priced
        if not lo <= t <= hi:
            raise PlanError(f"decision time t={t} outside the priced market [{lo}, {hi}]")
        if not 0.0 <= work_left <= MAX_WORK_LEFT:
            raise PlanError(f"work_left={work_left} is not a non-negative fraction of a job")

    @staticmethod
    def admit(catalog) -> tuple[Configuration, ...]:
        """Validate a request's catalogue; returns it as a tuple.

        Raises:
            PlanError: empty catalogue, or no on-demand (non-evictable)
                last-resort configuration to guarantee the deadline.
        """
        catalog = tuple(catalog)
        if not catalog:
            raise PlanError("plan request has an empty catalogue")
        if not any(not c.is_transient for c in catalog):
            raise PlanError(
                "catalogue needs at least one on-demand (non-evictable) "
                "last-resort configuration to guarantee the deadline"
            )
        return catalog

    def resolved_grids(
        self,
        slack_model: SlackModel,
        t: float,
        work_left: float,
        slack_grid: float | None = None,
        work_grid: float | None = None,
    ) -> tuple[float, float]:
        """Memo granularity for a job whose first decision is (t, w).

        Grids the request does not fix resolve through the estimator's
        own :func:`~repro.core.expected_cost.adaptive_grids` rule, so a
        service-planned job lands in the same buckets a private
        estimator would have used.  The resolved values are part of the
        estimator cache key: jobs resolving the same grids share memo.
        """
        if slack_grid is None or work_grid is None:
            return adaptive_grids(slack_model.slack(t, work_left), slack_grid, work_grid)
        return slack_grid, work_grid

    def _catalog_key(self, catalog: tuple[Configuration, ...]) -> tuple:
        return tuple(c.name for c in catalog)

    def _estimator_key(
        self,
        catalog: tuple[Configuration, ...],
        slack_model: SlackModel,
        grids: tuple[float, float],
    ) -> tuple:
        """(catalog fingerprint, performance fingerprint, grid resolution).

        The fingerprint hashes the *values* the DP depends on — per-
        config timings, the last-resort anchor, the warning lead — not
        object identity, so distinct jobs with equal catalogues and
        performance models resolve to the same warm estimator.  The
        deadline is deliberately absent: the DP lives in slack space.
        """
        perf = slack_model.perf
        timings = tuple(
            (perf.exec_time(c), perf.save_time(c), perf.setup_time(c), perf.fixed_time(c))
            for c in catalog
        )
        return (
            self._catalog_key(catalog),
            timings,
            slack_model.lrc.name,
            slack_model.lrc_exec_time,
            slack_model.lrc_fixed_time,
            self.warning.lead_seconds,
            grids,
        )

    def _keyed(
        self, request: PlanRequest
    ) -> tuple[tuple[Configuration, ...], tuple[float, float], tuple]:
        """Admit *request* and resolve ``(catalog, grids, estimator key)``.

        The one keying path of the service.

        Admission, grid validation and the catalogue-wide timing walk
        depend only on the session objects a job keeps for its lifetime
        — the catalogue tuple, the performance model, the last-resort
        configuration — and the resolved grids, so their outcome is
        memoised on those objects' identities.  The memo holds strong
        references (no id() can be recycled while cached) and trusts a
        hit only after an ``is`` check.  A list catalogue can change
        between calls and is never memoised; nor is anything keyed on a
        request or slack model, which live traffic builds afresh.

        Raises:
            PlanError: the decision state is unplannable
                (:meth:`_check_state`), the catalogue fails admission, or
                a grid is unusable.
        """
        self._check_state(request)
        slack_model, catalog = request.slack_model, request.catalog
        grids = self.resolved_grids(
            slack_model,
            request.t,
            request.work_left,
            request.slack_grid,
            request.work_grid,
        )
        perf, lrc = slack_model.perf, slack_model.lrc
        memo_key = (id(catalog), id(perf), id(lrc), grids)
        hit = self._keyed_memo.get(memo_key)
        if hit is not None and hit[0] is catalog and hit[1] is perf and hit[2] is lrc:
            return catalog, grids, hit[3]
        admitted = self.admit(catalog)
        try:
            check_dp_parameters(*grids)
        except ValueError as exc:
            raise PlanError(str(exc)) from None
        key = self._estimator_key(admitted, slack_model, grids)
        if type(catalog) is tuple:
            if len(self._keyed_memo) >= 4 * SNAPSHOT_CAPACITY:
                self._keyed_memo.clear()
            self._keyed_memo[memo_key] = (catalog, perf, lrc, key)
        return admitted, grids, key

    def _entry_for(
        self,
        key: tuple,
        catalog: tuple[Configuration, ...],
        slack_model: SlackModel,
        grids: tuple[float, float],
    ) -> tuple[_EstimatorEntry, bool]:
        """Get-or-create the estimator entry; returns (entry, was_warm)."""
        with self._mutex:
            entry = self._entries.get(key)
            if entry is not None:
                return entry, True
        # Build outside the dict lock (construction precomputes the
        # per-catalogue tables); insertion rechecks for a racing build.
        estimator = ApproximateCostEstimator(
            slack_model,
            self.market,
            catalog,
            slack_grid=grids[0],
            work_grid=grids[1],
            warning=self.warning,
        )
        fresh = _EstimatorEntry(estimator=estimator)
        with self._mutex:
            entry = self._entries.setdefault(key, fresh)
            if entry is fresh:
                self._estimators_built += 1
                return entry, False
            return entry, True

    # ------------------------------------------------------------------
    # Shared market snapshots
    # ------------------------------------------------------------------
    def _rates_for(self, catalog: tuple[Configuration, ...], t: float):
        """One decision-time rate snapshot per (catalog, t), shared.

        Returns ``(rates, reused)``; *rates* is exactly what
        ``market.config_rates(catalog, t)`` returns (prices are a
        deterministic function of t, so sharing cannot change values).
        """
        key = (self._catalog_key(catalog), t)
        with self._mutex:
            rates = self._snapshots.get(key)
            if rates is not None:
                self._snapshot_hits += 1
                self._snapshots.move_to_end(key)
                return rates, True
        rates = self.market.config_rates(catalog, t)
        with self._mutex:
            self._snapshot_misses += 1
            self._snapshots[key] = rates
            while len(self._snapshots) > SNAPSHOT_CAPACITY:
                self._snapshots.popitem(last=False)
        return rates, False

    # ------------------------------------------------------------------
    # Coalescing identity
    # ------------------------------------------------------------------
    def request_key(self, request: PlanRequest) -> tuple | None:
        """Hashable decision identity of *request*, or None for baselines.

        Two hourglass requests with equal keys are guaranteed to produce
        bit-identical :class:`Decision`\\ s when planned back-to-back on
        this service, so one result can answer both: the frontend shares
        a result with every equal-key request of the same event-loop
        tick.  The guarantee comes from the estimator's own
        memoisation: the DP memoises root states on
        ``(config, slack-cell, work-cell, running, depth)`` buckets, so
        any two requests agreeing on the estimator key, decision time
        (exact — it selects the rate snapshot and spot usability), slack
        cell, exact ``work_left`` (echoed verbatim in the decision),
        current configuration and uptime read identical costs and pick
        identical argmins.  Baseline strategies keep no memo and may
        depend on the exact deadline, so they return None (never
        coalesced — they are microseconds anyway).

        Raises:
            PlanError: the request fails admission or its decision state
                is unplannable (same rules :meth:`plan` applies).
        """
        if request.strategy != "hourglass":
            self._check_state(request)
            self.admit(request.catalog)
            return None
        _catalog, grids, key = self._keyed(request)
        slack = request.slack_model.slack(request.t, request.work_left)
        current = (
            request.current_config.name if request.current_config is not None else None
        )
        return (
            key,
            request.t,
            int(slack / grids[0]),
            request.work_left,
            current,
            request.current_uptime,
        )

    # ------------------------------------------------------------------
    # Decision hooks
    # ------------------------------------------------------------------
    def add_decision_hook(self, hook) -> None:
        """Register ``hook(request, result)`` to run after every plan.

        Hooks fire for :meth:`plan` and :meth:`plan_many` alike, in
        registration order, after the decision is made — observation
        only, a hook cannot change the result.
        """
        self._decision_hooks.append(hook)

    def _publish(self, request: PlanRequest, result: PlanResult) -> PlanResult:
        """Count the plan and fire the decision hooks."""
        with self._mutex:
            self._plans += 1
        for hook in self._decision_hooks:
            hook(request, result)
        return result

    # ------------------------------------------------------------------
    # Planning
    # ------------------------------------------------------------------
    def _decide(
        self,
        entry: _EstimatorEntry,
        warm: bool,
        request: PlanRequest,
        catalog: tuple[Configuration, ...],
        started: float,
        keyed_at: float,
    ) -> PlanResult:
        """Decide one keyed request and build its telemetry.

        The service's single DP call site; the caller holds
        ``entry.lock``.  *started* and *keyed_at* bracket the request's
        admission and keying, so ``queue_wait_s`` is whatever passed
        between keying and this call (lock wait, earlier batch members)
        and ``latency_s`` is the request's own service time.
        """
        service_started = time.perf_counter()
        rates, snapshot_reused = self._rates_for(catalog, request.t)
        estimator = entry.estimator
        before = estimator.cache_stats()
        decision = estimator.best_at_slack(
            request.slack_model.slack(request.t, request.work_left),
            request.t,
            request.work_left,
            request.current_config,
            request.current_uptime,
            rates=rates,
        )
        after = estimator.cache_stats()
        return PlanResult(
            decision=decision,
            telemetry=PlanTelemetry(
                latency_s=(keyed_at - started)
                + (time.perf_counter() - service_started),
                memo_hits=after.hits - before.hits,
                memo_misses=after.misses - before.misses,
                memo_entries=after.entries,
                invalidations=after.invalidations - before.invalidations,
                epoch=after.epoch,
                snapshot_reused=snapshot_reused,
                estimator_reused=warm,
                queue_wait_s=service_started - keyed_at,
            ),
        )

    def plan(self, request: PlanRequest) -> PlanResult:
        """Answer one :class:`PlanRequest`."""
        started = time.perf_counter()
        if request.strategy != "hourglass":
            return self._publish(request, self._plan_baseline(request, started))
        catalog, grids, key = self._keyed(request)
        entry, warm = self._entry_for(key, catalog, request.slack_model, grids)
        keyed_at = time.perf_counter()
        with entry.lock:
            result = self._decide(entry, warm, request, catalog, started, keyed_at)
        return self._publish(request, result)

    def _plan_baseline(self, request: PlanRequest, started: float) -> PlanResult:
        """Resolve a baseline strategy for one stateless decision.

        Baselines keep no DP state, so a fresh instance per request is
        exact; latched state (the +DP wrapper) is re-derived from the
        request's slack.

        Raises:
            PlanError: admission failure or unknown strategy.
        """
        self._check_state(request)
        catalog = self.admit(request.catalog)
        provisioner = self.provisioner(request.strategy)
        ctx = ProvisioningContext(
            t=request.t,
            work_left=request.work_left,
            current_config=request.current_config,
            current_uptime=request.current_uptime,
            slack_model=request.slack_model,
            market=self.market,
            catalog=catalog,
        )
        config = provisioner.select(ctx)
        decision = Decision(
            config=config,
            expected_cost=math.nan,
            evaluated_at=request.t,
            work_left=request.work_left,
        )
        return PlanResult(
            decision=decision,
            telemetry=PlanTelemetry(latency_s=time.perf_counter() - started),
        )

    def plan_many(self, requests) -> list[PlanResult | PlanError]:
        """Answer a batch of requests, grouping same-catalogue work.

        Hourglass requests resolving to the same estimator key are
        planned back-to-back under one lock acquisition, in their input
        order, sharing rate snapshots and warm memo within the batch —
        bit-identical to calling :meth:`plan` per request, without the
        per-request lock and lookup churn.

        Admission is per slot: a request that fails admission (or
        strategy resolution) never blocks the rest of the batch — every
        admissible request is planned and published regardless, and the
        rejected slots come back as their :class:`PlanError` in the
        result list.

        Each planned slot's telemetry separates ``queue_wait_s`` (time
        spent behind earlier groups/members of the batch) from
        ``latency_s`` (the slot's own service time), so latency
        statistics are independent of batch position.
        """
        requests = list(requests)
        results: list[PlanResult | PlanError | None] = [None] * len(requests)
        groups: OrderedDict[tuple, list] = OrderedDict()
        for i, request in enumerate(requests):
            started = time.perf_counter()
            try:
                if request.strategy != "hourglass":
                    results[i] = self._plan_baseline(request, started)
                    continue
                catalog, grids, key = self._keyed(request)
            except PlanError as exc:
                results[i] = exc
                continue
            # keyed_at closes this slot's share of the grouping pass;
            # waiting starts here and ends when its group services it.
            keyed_at = time.perf_counter()
            groups.setdefault(key, []).append(
                (i, request, catalog, grids, started, keyed_at)
            )
        for key, members in groups.items():
            _, request0, catalog0, grids0, _, _ = members[0]
            entry, warm = self._entry_for(key, catalog0, request0.slack_model, grids0)
            with entry.lock:
                for i, request, catalog, _grids, started, keyed_at in members:
                    results[i] = self._decide(
                        entry, warm, request, catalog, started, keyed_at
                    )
                    warm = True  # later members of the batch hit warm state
        with self._mutex:
            self._batches += 1
        for request, result in zip(requests, results):
            if isinstance(result, PlanResult):
                self._publish(request, result)
        return results  # type: ignore[return-value]

    # ------------------------------------------------------------------
    # Strategy resolution
    # ------------------------------------------------------------------
    def provisioner(self, strategy: str):
        """A lifecycle-facing provisioner for *strategy*, service-backed.

        ``hourglass`` routes every ``select()`` through :meth:`plan`
        (shared caches, telemetry); baseline strategies resolve to fresh
        instances of their :mod:`repro.core.baselines` classes — the
        service is their registry, they need none of its caches.

        Raises:
            PlanError: unknown strategy name.
        """
        from repro.service.strategies import SERVICE_STRATEGIES

        try:
            factory = SERVICE_STRATEGIES[strategy]
        except KeyError:
            raise PlanError(
                f"unknown strategy {strategy!r}; known: {sorted(SERVICE_STRATEGIES)}"
            ) from None
        return factory(self)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def cache_stats(self) -> CacheStats:
        """Aggregate memo statistics across every cached estimator.

        Each estimator's counters are snapshotted under its own planning
        lock, so a concurrent planner cannot tear one estimator's
        hits/misses mid-read (the counters are mutated field-by-field
        during a DP walk).  The entry list itself is snapshotted under
        ``_mutex`` first and the per-entry locks are taken only after it
        is released — planners acquire an entry lock before touching
        ``_mutex`` on the batch path, so nesting the other way around
        would deadlock.
        """
        with self._mutex:
            entries = list(self._entries.values())
        hits = misses = invalidations = states = epochs = 0
        for entry in entries:
            with entry.lock:
                stats = entry.estimator.cache_stats()
            hits += stats.hits
            misses += stats.misses
            invalidations += stats.invalidations
            states += stats.entries
            epochs += stats.epoch
        return CacheStats(
            hits=hits,
            misses=misses,
            invalidations=invalidations,
            entries=states,
            epoch=epochs,
        )

    def service_stats(self) -> dict:
        """Service-level counters as one flat dict (for reports)."""
        with self._mutex:
            return {
                "plans": self._plans,
                "batches": self._batches,
                "estimators": len(self._entries),
                "estimators_built": self._estimators_built,
                "snapshot_hits": self._snapshot_hits,
                "snapshot_misses": self._snapshot_misses,
            }
