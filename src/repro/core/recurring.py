"""The recurring-job driver: the paper's motivating deployment pattern (§1-2).

Recurring graph analyses re-execute over fresh snapshots on a fixed
period; each execution must finish before the next one starts (its
deadline).  :class:`InterleavedRecurringDriver` runs M such schedules
(one :class:`RecurringJobSpec` each, staggered periods allowed) against
one market trace, in global release order, accumulating costs and
deadline statistics — e.g. the Fig 1 scenario: a 4-hour GC job
re-executed every 6 hours, leaving a 2-hour slack, is one spec.

Tenants are independent (the market is a read-only deterministic
trace), so each tenant's outcome matches a one-spec run of its own —
but when the tenants' simulators plan through one shared
:class:`~repro.service.planning.PlanningService`, the interleaved stream
exercises the service the way a real deployment would: same-catalogue
tenants hitting warm memo tables built by each other's decisions.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

from repro.core.job import ApplicationProfile, JobSpec
from repro.core.simulator import ExecutionSimulator
from repro.exec.events import RunResult


@dataclass(frozen=True)
class RecurringOutcome:
    """Aggregate result of a recurring schedule.

    ``skipped`` counts period windows an overrunning previous execution
    blew straight through: the analysis those windows were supposed to
    refresh never ran at all.  A skipped window is at least as bad an
    SLO violation as a late run, so the load report's recurring
    violation rate folds both in, ``(missed + skipped) / (runs +
    skipped)``: the missed share of executed runs alone *understates*
    violations exactly when the system is overloaded (executed-run
    denominators shrink as more windows are skipped).
    """

    results: tuple[RunResult, ...]
    period: float
    skipped: int = 0

    @property
    def runs(self) -> int:
        """Number of executions performed."""
        return len(self.results)

    @property
    def total_cost(self) -> float:
        """Sum of all execution costs."""
        return sum(r.cost for r in self.results)

    @property
    def missed(self) -> int:
        """Number of executions that missed their deadline."""
        return sum(1 for r in self.results if r.missed_deadline)

    @property
    def total_evictions(self) -> int:
        """Evictions across all executions."""
        return sum(r.evictions for r in self.results)

    def mean_cost(self) -> float:
        """Average cost per execution."""
        return self.total_cost / self.runs if self.runs else 0.0


@dataclass(frozen=True)
class RecurringJobSpec:
    """One tenant of an interleaved recurring schedule.

    Attributes:
        name: tenant key in the driver's outcome dict.
        simulator: the tenant's configured simulator (typically sharing
            a market — and a planning service — with the other tenants).
        profile: application profile executed each period.
        period: seconds between this tenant's snapshot releases.
        offset: the tenant's schedule start relative to the driver's
            ``start_time`` (staggers the tenants on the shared trace).
    """

    name: str
    simulator: ExecutionSimulator
    profile: ApplicationProfile
    period: float
    offset: float = 0.0


class _TenantState:
    """Progress of one tenant through its period grid."""

    def __init__(self, spec: RecurringJobSpec, start_time: float):
        self.spec = spec
        self.start = start_time + spec.offset
        self.t = self.start  # earliest next start (last finish time)
        self.next_period = 0
        self.skipped = 0
        self.results: list[RunResult] = []

    def next_window(self, num_periods: int) -> tuple[float, float] | None:
        """(release, deadline) of the next runnable window, if any.

        An execution that overruns its deadline (possible for
        deadline-oblivious strategies) delays the next execution's start
        — the staleness violation the paper warns about — but the next
        deadline stays anchored to the period grid.  Windows the
        previous run blew straight through never run and are *counted*
        (``self.skipped``): the analysis they would have refreshed is an
        SLO violation.
        """
        while self.next_period < num_periods:
            i = self.next_period
            release = max(self.t, self.start + i * self.spec.period)
            deadline = self.start + (i + 1) * self.spec.period
            if deadline > release:
                return release, deadline
            self.skipped += 1
            self.next_period += 1
        return None


class InterleavedRecurringDriver:
    """Runs M staggered recurring jobs over one shared market trace.

    Executions across all tenants happen in global release order (ties
    broken by tenant registration order), so a shared planning service
    sees the realistic interleaved decision stream rather than one
    tenant's schedule at a time.  Each tenant keeps its own schedule
    semantics — overrun delays, skipped windows, period-anchored
    deadlines (:meth:`_TenantState.next_window`) — so a one-spec driver
    is the single-schedule case.

    Args:
        specs: the tenants; names must be unique, periods positive.
    """

    def __init__(self, specs):
        self.specs = tuple(specs)
        if not self.specs:
            raise ValueError("at least one RecurringJobSpec is required")
        if any(spec.period <= 0 for spec in self.specs):
            raise ValueError("periods must be positive")
        names = [spec.name for spec in self.specs]
        if len(set(names)) != len(names):
            raise ValueError(f"tenant names must be unique, got {names}")

    def run(self, start_time: float, num_periods: int) -> dict[str, RecurringOutcome]:
        """Execute *num_periods* windows per tenant, globally interleaved.

        Returns:
            Tenant name -> that tenant's :class:`RecurringOutcome`.
        """
        if num_periods < 1:
            raise ValueError("num_periods must be >= 1")
        tenants = [_TenantState(spec, start_time) for spec in self.specs]
        heap: list[tuple[float, int]] = []
        for idx, tenant in enumerate(tenants):
            window = tenant.next_window(num_periods)
            if window is not None:
                heapq.heappush(heap, (window[0], idx))
        while heap:
            _, idx = heapq.heappop(heap)
            tenant = tenants[idx]
            window = tenant.next_window(num_periods)
            if window is None:
                continue
            release, deadline = window
            job = JobSpec(
                profile=tenant.spec.profile, release_time=release, deadline=deadline
            )
            result = tenant.spec.simulator.run(job)
            tenant.results.append(result)
            tenant.t = result.finish_time
            tenant.next_period += 1
            window = tenant.next_window(num_periods)
            if window is not None:
                heapq.heappush(heap, (window[0], idx))
        return {
            tenant.spec.name: RecurringOutcome(
                results=tuple(tenant.results),
                period=tenant.spec.period,
                skipped=tenant.skipped,
            )
            for tenant in tenants
        }
