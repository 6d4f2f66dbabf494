"""Trace-driven execution simulator (§8.1 methodology).

Replays one time-constrained job against a spot-market trace under a
provisioning strategy, reproducing exactly what would have happened in
that market period: the price changes *and* the evictions they imply
(bid = on-demand price) follow the trace.

The event loop itself lives in the shared execution-lifecycle core
(:mod:`repro.exec.lifecycle`); this module binds it to an
:class:`~repro.exec.workmodel.AnalyticWorkModel` — work advances
analytically along a phase profile, with no engine underneath.
"""

from __future__ import annotations

from repro.cloud.configuration import Configuration
from repro.cloud.market import SpotMarket
from repro.core.job import JobSpec
from repro.core.perfmodel import PerformanceModel, last_resort
from repro.core.phases import ACCOUNT_TIME, PhaseModel
from repro.core.provisioner import Provisioner
from repro.core.warning import NO_WARNING, WarningPolicy
from repro.exec.events import RunResult
from repro.exec.lifecycle import ExecutionLifecycle
from repro.exec.workmodel import AnalyticWorkModel

__all__ = ["ExecutionSimulator", "on_demand_baseline_cost"]


def on_demand_baseline_cost(perf: PerformanceModel, lrc: Configuration) -> float:
    """Cost of a single on-demand last-resort run (checkpointing off).

    The paper's normaliser: boot + load + compute + one final output
    write, all billed at the on-demand rate.
    """
    runtime = perf.fixed_time(lrc) + perf.exec_time(lrc)
    return lrc.on_demand_rate * runtime / 3600.0


class ExecutionSimulator:
    """Runs jobs against a market under a provisioning strategy.

    Args:
        market: the replayed spot market.
        perf: performance model for the job's application.
        catalog: candidate configurations (must include one on-demand).
        provisioner: the strategy under test — a
            :class:`~repro.core.provisioner.Provisioner` instance, or a
            strategy *name* resolved through a planning service
            (``service`` if given, else a private one over *market*).
        service: optional shared
            :class:`~repro.service.planning.PlanningService`; lets many
            simulators plan from the same warm caches.  Only consulted
            when *provisioner* is a strategy name.
        record_events: keep the full event timeline (memory vs detail).
        warning: provider eviction-warning contract (§9 extension); with
            a lead covering ``t_save``, evictions keep the progress made
            up to the warning instant.
        phase_model: optional multi-phase progress profile (§9); None =
            the paper's uniform pace.
        work_accounting: what "work left" means to the provisioner under
            a phase model — ``"time"`` (remaining-time fraction; keeps
            the uniform model consistent, the default) or ``"raw"``
            (naive work fraction; exposes the model-mismatch failure
            mode of footnote 2).
        frontier_curve: optional
            :class:`~repro.exec.frontier.FrontierCurve` the work model
            replays (non-stationary algorithms).  When no explicit
            *phase_model* is given the curve also supplies the phase
            profile, keeping frontier and progress-rate consistent.
        observers: :class:`~repro.exec.observers.LifecycleObserver`
            plug-ins (fault injection).
    """

    def __init__(
        self,
        market: SpotMarket,
        perf: PerformanceModel,
        catalog,
        provisioner: Provisioner | str,
        record_events: bool = True,
        warning: WarningPolicy = NO_WARNING,
        ckpt_interval_scale: float = 1.0,
        phase_model: PhaseModel | None = None,
        work_accounting: str = ACCOUNT_TIME,
        observers=(),
        service=None,
        frontier_curve=None,
    ):
        if ckpt_interval_scale <= 0:
            raise ValueError("ckpt_interval_scale must be positive")
        self.market = market
        self.perf = perf
        self.catalog = tuple(catalog)
        if isinstance(provisioner, str):
            from repro.service.planning import PlanningService

            if service is None:
                service = PlanningService(market, warning=warning)
            provisioner = service.provisioner(provisioner)
        self.service = service
        self.provisioner = provisioner
        self.record_events = record_events
        self.warning = warning
        self.ckpt_interval_scale = ckpt_interval_scale
        self.frontier_curve = frontier_curve
        if phase_model is None and frontier_curve is not None:
            phase_model = frontier_curve.to_phases()
        self.phases = phase_model or PhaseModel.uniform()
        self.work_accounting = work_accounting
        self.observers = tuple(observers)
        self.lrc = last_resort(
            self.catalog,
            lambda ref: perf,  # throughput ratios are anchor-independent
        )
        # Validate eagerly (historical constructor contract).
        AnalyticWorkModel(perf, work_accounting=work_accounting)

    # ------------------------------------------------------------------
    def run(self, job: JobSpec) -> RunResult:
        """Simulate *job* to completion; returns the outcome."""
        model = AnalyticWorkModel(
            self.perf,
            phases=self.phases,
            work_accounting=self.work_accounting,
            warning=self.warning,
            initial_work=job.work,
            frontier_curve=self.frontier_curve,
        )
        lifecycle = ExecutionLifecycle(
            market=self.market,
            catalog=self.catalog,
            provisioner=self.provisioner,
            work_model=model,
            lrc=self.lrc,
            record_events=self.record_events,
            ckpt_interval_scale=self.ckpt_interval_scale,
            observers=self.observers,
            rescale_policy=getattr(self.provisioner, "rescale_policy", None),
        )
        return lifecycle.run(job.release_time, job.deadline)
