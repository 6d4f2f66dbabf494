"""The load harness: an arrival trace driven through the whole stack.

One :class:`LoadHarness` run is the standing macro-benchmark, and it is
one pipeline of four stages:

1. **Windows.**  :func:`~repro.load.trace.generate_trace` samples the
   seeded multi-tenant workload; one window iterator chops it into
   fixed planning windows, passes each window through the
   :class:`~repro.load.admission.AdmissionController` (bounded queue,
   tail-drop) and drops jobs whose whole deadline has already passed at
   the window's close.
2. **Planner.**  One
   :meth:`~repro.service.planning.PlanningService.plan_many` batch per
   window with per-slot errors — a saturating trace degrades job-by-job,
   never as a whole-batch :class:`~repro.service.planning.PlanError`.
   It yields ``(job, t_plan)`` for every planned job.
3. **Executor.**  Planned jobs run through :class:`ExecutionSimulator`
   against the same market, sharing the service's warm caches; queueing
   delay is charged in *simulated* time (a job admitted two windows late
   starts two windows late, with that much less slack).  A set of
   recurring tenants then runs through
   :class:`~repro.core.recurring.InterleavedRecurringDriver` on the same
   service, exercising the overload-honest skipped-window accounting.
4. **Sink.**  Every outcome lands in one place that counts it, publishes
   its ``load_*`` series at event time (scrapeable mid-run through the
   standard :mod:`repro.obs` pipelines), stamps it into the run's
   :class:`~repro.obs.window.RecordLog` at its simulated instant and
   builds the :class:`LoadReport`.

The log's clock moves with the run: to a job's plan time when it is
released for execution, and to the last record once the run is over.
No record lands earlier than the clock, so the SLO monitor and the
``--watch`` panel, which the clock calls at its ticks, see exactly what
a fold over the finished log sees at the same instant.

The order of service calls is part of the contract: a DP memo bucket
keeps its first visitor's cost, so the harness plans window *w*,
executes window *w*'s jobs in slot order, then plans window *w+1*.
Everything simulated is then deterministic in the seed
(:meth:`LoadReport.fingerprint` pins it); only the wall-clock latency
percentiles vary run to run.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field

from repro.core.job import PAPER_PROFILES, JobSpec
from repro.core.recurring import (
    InterleavedRecurringDriver,
    RecurringJobSpec,
    RecurringOutcome,
)
from repro.core.simulator import ExecutionSimulator
from repro.core.slack import SlackModel
from repro.exec.events import RunResult
from repro.experiments.common import ExperimentSetup
from repro.load.admission import AdmissionController
from repro.load.report import LoadReport
from repro.load.trace import (
    PERIODS_S,
    ArrivalTrace,
    LoadTraceConfig,
    TraceJob,
    generate_trace,
)
from repro.obs.metrics import MetricsRegistry
from repro.obs.window import Record, RecordLog, percentile
from repro.service.planning import PlanningService, PlanRequest, PlanResult
from repro.service.strategies import SERVICE_STRATEGIES
from repro.utils.rng import derive_rng
from repro.utils.units import HOURS


class _OutcomeSink:
    """Where every outcome of one load run lands, once.

    The sink counts the outcome, publishes it at event time (each
    ``load_*`` series is declared here and nowhere else), attributes
    executed runs to the optional ledger and finally builds the
    :class:`LoadReport` from the same counters — so the scraped series
    and the report cannot disagree.  The run's own totals are kept
    beside the registry's because the registry may be process-wide and
    outlive the run.  One-shot outcomes are also stamped into *log* at
    their simulated instant; its plan records are the report's latency
    columns.
    """

    JOB_OUTCOMES = ("planned", "rejected_overload", "rejected_invalid", "deadline_lost")

    def __init__(self, metrics, ledger, log: RecordLog):
        mx = metrics
        self.ledger = ledger
        self.log = log
        self.offered = 0
        self.jobs = dict.fromkeys(self.JOB_OUTCOMES, 0)
        self.queued = 0
        self.queue_peak = 0
        # Executed runs / deadline misses, keyed by ``recurring``.
        self.runs = {False: 0, True: 0}
        self.missed = {False: 0, True: 0}
        self.recurring_tenants = 0
        self.recurring_skipped = 0
        self.provider_idle = 0.0
        self.user_cost = 0.0
        self.service_time = 0.0

        self._jobs = mx.counter("load_jobs_total", "Trace jobs by admission outcome")
        self._runs = {
            False: mx.counter("load_runs_total", "Executed one-shot runs by outcome"),
            True: mx.counter(
                "load_recurring_windows_total", "Recurring windows by outcome"
            ),
        }
        self._latency = mx.histogram(
            "load_plan_latency_seconds", "Per-slot plan service time (batch path)"
        )
        self._queue_wait = mx.histogram(
            "load_plan_queue_wait_seconds", "Per-slot batch queue wait"
        )
        self._idle = mx.counter(
            "load_provider_idle_machine_seconds_total",
            "Billed machine-seconds beyond ideal compute (Granny provider cost)",
        )
        self._dollars = mx.counter(
            "load_user_cost_dollars_total", "Dollars billed across executed runs"
        )
        self._service_time = mx.counter(
            "load_service_time_seconds_total",
            "Arrival-to-finish simulated seconds across executed runs",
        )
        self._queue_peak = mx.gauge(
            "load_queue_peak", "Admission backlog high-water mark"
        )
        # Zero-touch every series so the scrape schema is stable from
        # the first sample (a windowed ratio over a series that does not
        # exist yet reads as no-traffic, which is correct, but a stable
        # label set makes dashboards and tests simpler).
        for outcome in self.JOB_OUTCOMES:
            self._jobs.inc(0, outcome=outcome)
        for outcome in ("met", "missed"):
            self._runs[False].inc(0, outcome=outcome)
            self._runs[True].inc(0, outcome=outcome)
        self._runs[True].inc(0, outcome="skipped")
        for counter in (self._idle, self._dollars, self._service_time):
            counter.inc(0)
        self._queue_peak.set(0)

    # -- admission / planning ------------------------------------------
    def job(self, outcome: str, t: float, n: int = 1) -> None:
        """*n* trace jobs resolved to an admission *outcome* at *t*."""
        self.jobs[outcome] += n
        self._jobs.inc(n, outcome=outcome)
        for _ in range(n):
            self.log.append(Record(t, "job", outcome))

    def backlog(self, stats) -> None:
        """The admission controller's queueing counters after a window."""
        self.queued = stats.queued
        self.queue_peak = stats.queue_peak
        self._queue_peak.set(stats.queue_peak)

    def plan(self, t: float, latency_s: float, queue_wait_s: float) -> None:
        """One job planned at *t*, with its plan latency and batch queue wait."""
        self.jobs["planned"] += 1
        self._jobs.inc(1, outcome="planned")
        self.log.append(Record(t, "job", "planned", latency_s, queue_wait_s))
        self._latency.observe(latency_s)
        self._queue_wait.observe(queue_wait_s)

    # -- execution -----------------------------------------------------
    def run(
        self,
        tenant: str,
        result: RunResult,
        ideal_s: float,
        arrival: float,
        recurring: bool = False,
    ) -> None:
        """One executed run, one-shot or recurring.

        *ideal_s* is the run's ideal machine-seconds (billed time beyond
        it is provider idle); *arrival* anchors its service time.
        """
        idle = max(0.0, result.spot_seconds + result.on_demand_seconds - ideal_s)
        span = result.finish_time - arrival
        if not recurring:
            outcome = "missed" if result.missed_deadline else "met"
            self.log.append(Record(result.finish_time, "run", outcome, result.cost))
        self.runs[recurring] += 1
        self.missed[recurring] += result.missed_deadline
        self.provider_idle += idle
        self.user_cost += result.cost
        self.service_time += span
        self._runs[recurring].inc(
            1, outcome="missed" if result.missed_deadline else "met"
        )
        self._idle.inc(idle)
        self._dollars.inc(result.cost)
        self._service_time.inc(span)
        if self.ledger is not None:
            self.ledger.record_run(tenant, result, idle, span)

    def recurring(self, name: str, outcome: RecurringOutcome, ideal_s: float) -> None:
        """One recurring tenant's windows: its runs plus the skipped ones."""
        self.recurring_tenants += 1
        for result in outcome.results:
            # Scheduled release (deadline - period) anchors service
            # time, so an overrun-delayed run is charged its wait.
            self.run(
                name, result, ideal_s, result.deadline - outcome.period, recurring=True
            )
        self.recurring_skipped += outcome.skipped
        self._runs[True].inc(outcome.skipped, outcome="skipped")

    # -- the report ----------------------------------------------------
    def report(self, trace: ArrivalTrace, service: PlanningService) -> LoadReport:
        """The finished run as a :class:`LoadReport`."""
        stats = service.cache_stats()
        svc = service.service_stats()
        lookups = stats.hits + stats.misses
        snapshots = svc["snapshot_hits"] + svc["snapshot_misses"]
        executed, missed = self.runs[False], self.missed[False]
        rec_runs, rec_missed = self.runs[True], self.missed[True]
        rec_skipped = self.recurring_skipped
        rec_windows = rec_runs + rec_skipped
        plans = [r for r in self.log.records() if r.outcome == "planned"]
        latencies = [r.value for r in plans]
        queue_waits = [r.wait for r in plans]
        return LoadReport(
            # The trace that ran, which a trace passed to run() makes
            # different from the configured one.
            seed=trace.config.seed,
            num_jobs=len(trace.jobs),
            num_tenants=trace.config.num_tenants,
            trace_checksum=trace.checksum(),
            trace_span_s=trace.span_s,
            offered=self.offered,
            # Nothing is left queued at the end of a run, so every
            # offered job was released unless it was shed.
            admitted=self.offered - self.jobs["rejected_overload"],
            planned=self.jobs["planned"],
            rejected_overload=self.jobs["rejected_overload"],
            rejected_invalid=self.jobs["rejected_invalid"],
            deadline_lost=self.jobs["deadline_lost"],
            queued=self.queued,
            queue_peak=self.queue_peak,
            cache_hit_rate=stats.hits / lookups if lookups else 0.0,
            snapshot_hit_rate=svc["snapshot_hits"] / snapshots if snapshots else 0.0,
            plan_p50_ms=1000 * percentile(latencies, 50),
            plan_p95_ms=1000 * percentile(latencies, 95),
            plan_p99_ms=1000 * percentile(latencies, 99),
            queue_wait_p50_ms=1000 * percentile(queue_waits, 50),
            queue_wait_p95_ms=1000 * percentile(queue_waits, 95),
            queue_wait_p99_ms=1000 * percentile(queue_waits, 99),
            executed=executed,
            missed=missed,
            miss_rate=missed / executed if executed else 0.0,
            recurring_tenants=self.recurring_tenants,
            recurring_runs=rec_runs,
            recurring_missed=rec_missed,
            recurring_skipped=rec_skipped,
            recurring_miss_rate=rec_missed / rec_runs if rec_runs else 0.0,
            recurring_skipped_rate=rec_skipped / rec_windows if rec_windows else 0.0,
            recurring_violation_rate=(rec_missed + rec_skipped) / rec_windows
            if rec_windows
            else 0.0,
            provider_idle_machine_s=self.provider_idle,
            user_cost_dollars=self.user_cost,
            service_time_s=self.service_time,
        )


@dataclass(frozen=True)
class HarnessConfig:
    """One load run: the workload plus the service-shaped knobs.

    Attributes:
        trace: the workload generator config (seed lives here).
        window_s: planning-window length; arrivals inside one window are
            admitted and planned together at the window's close.
        capacity_per_window: service capacity per window (requests the
            admission layer releases into one ``plan_many`` batch).
        queue_limit: admission backlog bound; beyond it, tail-drop.
        strategy: planning strategy for every job.
        execute: run planned jobs through the simulator (False = plan
            only; deadline/cost sections of the report stay zero).
        trace_days: market-trace length backing the run.
        recurring_tenants / recurring_periods: size of the interleaved
            recurring phase (0 tenants disables it).
    """

    trace: LoadTraceConfig = field(default_factory=LoadTraceConfig)
    window_s: float = 60.0
    capacity_per_window: int = 64
    queue_limit: int = 256
    strategy: str = "hourglass"
    execute: bool = True
    trace_days: int = 14
    recurring_tenants: int = 4
    recurring_periods: int = 6

    def __post_init__(self):
        if self.window_s <= 0:
            raise ValueError("window_s must be positive")
        if self.capacity_per_window < 1:
            raise ValueError("capacity_per_window must be >= 1")
        if self.queue_limit < 0:
            raise ValueError("queue_limit must be >= 0")
        if self.recurring_tenants < 0 or self.recurring_periods < 1:
            raise ValueError("recurring_tenants >= 0, recurring_periods >= 1")
        if self.strategy not in SERVICE_STRATEGIES:
            raise ValueError(
                f"unknown strategy {self.strategy!r}; known: {sorted(SERVICE_STRATEGIES)}"
            )


class LoadHarness:
    """Drives one :class:`HarnessConfig` end to end.

    Args:
        config: the run description.
        metrics: registry for the ``load_*`` series (default: the
            harness's own registry); they move at event time, so a scrape
            mid-run sees the run so far.
        ledger: optional :class:`~repro.obs.attribution.CostLedger`;
            every executed run (one-shot and recurring) is attributed
            to its trace tenant as it finishes, so per-tenant spend is
            queryable mid-run and its dollar total matches the final
            report's ``user_cost_dollars``.

    Attributes:
        log: the run's :class:`~repro.obs.window.RecordLog`, its clock
            starting at the market's start and ticking every
            ``window_s``.  Attach an
            :class:`~repro.obs.slo.SloMonitor` or a
            :meth:`~repro.obs.window.RecordLog.every` listener before
            :meth:`run`; a harness runs once.
    """

    def __init__(self, config: HarnessConfig, metrics=None, ledger=None):
        self.config = config
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.ledger = ledger
        self.setup = ExperimentSetup(
            seed=config.trace.seed, trace_days=config.trace_days
        )
        self.service = PlanningService(self.setup.market)
        self._models: dict[tuple[str, float], tuple] = {}
        self._simulators: dict[tuple[str, float], ExecutionSimulator] = {}
        self._recurring_apps: dict[str, tuple[str, float]] = {}
        self.log = RecordLog(origin=self.setup.market.start, tick_s=config.window_s)

    # ------------------------------------------------------------------
    # Per-(app, scale) plumbing
    # ------------------------------------------------------------------
    def _model_for(self, app: str, scale: float):
        """(profile, perf, lrc, grids) for one application/scale mix cell.

        Memo grids are pinned per mix cell (resolved once, at the cell's
        median slack) exactly like a tenant's provisioner session pins
        its grids: every request of the cell then lands in one estimator
        key, so the batch path shares warm memo across tenants instead
        of resolving a fresh grid — and a cold estimator — per slack
        value.
        """
        key = (app, scale)
        entry = self._models.get(key)
        if entry is None:
            profile = PAPER_PROFILES[app].scaled(scale)
            perf = self.setup.perf_model(profile)
            lrc = self.setup.lrc(perf)
            lo, hi = self.config.trace.slack_range
            mid = 0.5 * (lo + hi)
            anchor = SlackModel(
                perf=perf,
                lrc=lrc,
                deadline=perf.fixed_time(lrc) + perf.exec_time(lrc) * (1.0 + mid),
            )
            grids = self.service.resolved_grids(anchor, 0.0, 1.0)
            entry = self._models[key] = (profile, perf, lrc, grids)
        return entry

    def _simulator_for(self, app: str, scale: float) -> ExecutionSimulator:
        key = (app, scale)
        sim = self._simulators.get(key)
        if sim is None:
            _, perf, _, _ = self._model_for(app, scale)
            sim = self._simulators[key] = ExecutionSimulator(
                self.setup.market,
                perf,
                self.setup.catalog,
                self.config.strategy,
                record_events=False,
                service=self.service,
            )
        return sim

    def _deadline_for(self, job: TraceJob) -> float:
        """Arrival-anchored deadline (fixed + (1 + slack) x execution)."""
        _, perf, lrc, _ = self._model_for(job.app, job.scale)
        release = self.setup.market.start + job.arrival_s
        return (
            release
            + perf.fixed_time(lrc)
            + perf.exec_time(lrc) * (1.0 + job.slack_fraction)
        )

    def _job_budget_s(self) -> float:
        """Worst-case simulated span one trace job might need."""
        worst = 0.0
        for app, _ in self.config.trace.app_mix:
            for scale in self.config.trace.scales:
                _, perf, lrc, _ = self._model_for(app, scale)
                horizon = perf.fixed_time(lrc) + perf.exec_time(lrc) * (
                    1.0 + self.config.trace.slack_range[1]
                )
                worst = max(worst, horizon)
        return 4.0 * worst

    def _request_for(self, job: TraceJob, t_plan: float) -> PlanRequest:
        """The job's plan request at decision time *t_plan*."""
        _, perf, lrc, grids = self._model_for(job.app, job.scale)
        return PlanRequest(
            slack_model=SlackModel(
                perf=perf, lrc=lrc, deadline=self._deadline_for(job)
            ),
            catalog=self.setup.catalog,
            t=t_plan,
            work_left=1.0,
            strategy=self.config.strategy,
            slack_grid=grids[0],
            work_grid=grids[1],
        )

    # ------------------------------------------------------------------
    # The run
    # ------------------------------------------------------------------
    def run(self, trace: ArrivalTrace | None = None) -> LoadReport:
        """Execute the configured load run; returns the report."""
        cfg = self.config
        if len(self.log):
            raise RuntimeError("a LoadHarness runs once; build a new one")
        if trace is None:
            trace = generate_trace(cfg.trace)
        market = self.setup.market
        budget = self._job_budget_s()
        needed = trace.span_s + budget + cfg.queue_limit * cfg.window_s
        if market.start + needed > market.horizon:
            raise ValueError(
                f"market trace too short for this workload: needs ~{needed / HOURS:.1f} h,"
                f" have {(market.horizon - market.start) / HOURS:.1f} h —"
                " raise trace_days or shrink the trace"
            )

        sink = _OutcomeSink(self.metrics, self.ledger, self.log)
        # Executor.  The planner is lazy, so a window's jobs execute
        # before the next window is planned.
        for job, t_plan in self._plan_windowed(trace, sink):
            if cfg.execute:
                self.log.advance(t_plan)
                sink.run(
                    job.tenant,
                    self._execute(job, t_plan),
                    self._ideal_seconds(job.app, job.scale),
                    market.start + job.arrival_s,
                )
        for name, outcome in self._run_recurring().items():
            sink.recurring(
                name, outcome, self._ideal_seconds(*self._recurring_apps[name])
            )
        self.log.advance(self.log.end)
        return sink.report(trace, self.service)

    # ------------------------------------------------------------------
    # Windows and the planner
    # ------------------------------------------------------------------
    def _windows(self, trace: ArrivalTrace, sink: _OutcomeSink):
        """Yield ``(window_end, jobs)``: the jobs to plan at each close.

        Those are what the admission controller releases of its backlog
        and the window's arrivals (the rest waits or is tail-dropped).
        Runs until the trace is exhausted and the controller holds
        nothing back.
        """
        cfg = self.config
        market = self.setup.market
        controller = AdmissionController(
            capacity_per_window=cfg.capacity_per_window, queue_limit=cfg.queue_limit
        )
        num_windows = max(1, math.ceil(trace.span_s / cfg.window_s) + 1)
        arrivals = deque(trace.jobs)
        window = 0
        while window < num_windows or arrivals or controller.backlog:
            window_end = market.start + (window + 1) * cfg.window_s
            jobs: list[TraceJob] = []
            while arrivals and market.start + arrivals[0].arrival_s < window_end:
                jobs.append(arrivals.popleft())
            sink.offered += len(jobs)
            admitted, rejected = controller.offer(jobs)
            sink.job("rejected_overload", window_end, len(rejected))
            sink.backlog(controller.stats)
            servable = []
            for entry in admitted:
                job = entry.item
                if self._deadline_for(job) <= window_end:
                    # Its whole deadline has passed (queued too long, or
                    # shorter than one window): unservable — an SLO
                    # loss, not a planner error.
                    sink.job("deadline_lost", window_end)
                else:
                    servable.append(job)
            yield window_end, servable
            window += 1

    def _plan_windowed(self, trace: ArrivalTrace, sink: _OutcomeSink):
        """One ``plan_many`` batch per window; yields ``(job, t_plan)``."""
        for window_end, jobs in self._windows(trace, sink):
            if not jobs:
                continue
            slots = self.service.plan_many(
                [self._request_for(job, window_end) for job in jobs]
            )
            for job, slot in zip(jobs, slots):
                if isinstance(slot, PlanResult):
                    sink.plan(
                        window_end, slot.telemetry.latency_s, slot.telemetry.queue_wait_s
                    )
                    yield job, window_end
                else:
                    sink.job("rejected_invalid", window_end)

    # ------------------------------------------------------------------
    # Executor
    # ------------------------------------------------------------------
    def _execute(self, job: TraceJob, release: float) -> RunResult:
        """Run one planned job through the simulator (release = plan time)."""
        profile, _, _, _ = self._model_for(job.app, job.scale)
        sim = self._simulator_for(job.app, job.scale)
        spec = JobSpec(
            profile=profile, release_time=release, deadline=self._deadline_for(job)
        )
        return sim.run(spec)

    def _ideal_seconds(self, app: str, scale: float) -> float:
        """Ideal machine-seconds for one full run: t_exec(lrc) x workers."""
        _, perf, lrc, _ = self._model_for(app, scale)
        return perf.exec_time(lrc) * lrc.num_workers

    def _run_recurring(self) -> dict[str, RecurringOutcome]:
        """The interleaved recurring phase over the shared service."""
        cfg = self.config
        if cfg.recurring_tenants == 0 or not cfg.execute:
            return {}
        rng = derive_rng(cfg.trace.seed, "recurring")
        names = [name for name, _ in cfg.trace.app_mix]
        total_w = sum(w for _, w in cfg.trace.app_mix)
        weights = [w / total_w for _, w in cfg.trace.app_mix]
        specs = []
        for r in range(cfg.recurring_tenants):
            app = names[int(rng.choice(len(names), p=weights))]
            scale = float(cfg.trace.scales[int(rng.integers(len(cfg.trace.scales)))])
            profile, perf, lrc, _ = self._model_for(app, scale)
            # Tight-but-legal period: the smallest trace period the job
            # can in principle fit (evictions make it overrun
            # occasionally — exactly the skipped-window regime).
            floor = 1.15 * (perf.fixed_time(lrc) + perf.exec_time(lrc))
            fitting = [p for p in PERIODS_S if p >= floor]
            period = min(fitting) if fitting else max(PERIODS_S)
            specs.append(
                RecurringJobSpec(
                    name=f"recurring-{r:02d}",
                    simulator=self._simulator_for(app, scale),
                    profile=profile,
                    period=period,
                    offset=r * cfg.window_s,
                )
            )
            self._recurring_apps[specs[-1].name] = (app, scale)
        driver = InterleavedRecurringDriver(specs)
        return driver.run(self.setup.market.start, cfg.recurring_periods)
