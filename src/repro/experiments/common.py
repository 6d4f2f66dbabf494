"""Shared experiment plumbing: setup, per-cell simulation sweeps.

Every figure module builds an :class:`ExperimentSetup` (synthetic market
+ catalogue + per-application performance models, all seeded) and runs
its cells through :func:`run_sweep_tasks`: each :class:`SweepTask` is
many randomly-started simulations of one (application, slack, strategy)
cell, the paper's §8.1 methodology.

Cells are mutually independent and fully determined by the setup's seed,
so a figure's grid parallelises trivially: :func:`run_sweep_tasks` (and
the generic :func:`parallel_cells`) fan cells out over a
``ProcessPoolExecutor`` while preserving the serial result order
bit-for-bit — each worker process deterministically rebuilds the
:class:`ExperimentSetup` from ``(seed, trace_days, reload_mode)``, and
``Executor.map`` keeps submission order.  Strategies travel as
:data:`~repro.service.strategies.SERVICE_STRATEGIES` *names*, not
objects, because the registry holds lambdas.
"""

from __future__ import annotations

import math
import numbers
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.cloud.configuration import Configuration, default_catalog
from repro.cloud.instance import R4_8XLARGE, R4_FAMILY
from repro.cloud.market import SpotMarket
from repro.core.job import ApplicationProfile, job_with_slack
from repro.core.perfmodel import (
    RELOAD_FULL,
    RELOAD_MICRO,
    PerformanceModel,
    last_resort,
)
from repro.core.phases import ACCOUNT_TIME, PhaseModel
from repro.core.simulator import ExecutionSimulator, on_demand_baseline_cost
from repro.core.warning import NO_WARNING, WarningPolicy
from repro.service.planning import PlanningService
from repro.utils.rng import derive_rng
from repro.utils.units import HOURS


@dataclass(frozen=True)
class CellResult:
    """Aggregated outcome of one (app, slack, strategy) cell."""

    strategy: str
    app: str
    slack_percent: int
    normalized_cost: float
    missed_percent: float
    simulations: int
    mean_evictions: float
    mean_deployments: float

    def as_row(self) -> dict:
        """Flatten to a plain dict for tabular reports."""
        return {
            "app": self.app,
            "slack%": self.slack_percent,
            "strategy": self.strategy,
            "norm_cost": round(self.normalized_cost, 3),
            "missed%": round(self.missed_percent, 1),
            "sims": self.simulations,
            "evictions/run": round(self.mean_evictions, 2),
        }


class ExperimentSetup:
    """Seeded market + catalogue + performance-model factory.

    Args:
        seed: master seed; the market's history ("October") and
            evaluation ("November") traces derive from it.
        trace_days: evaluation trace length.
        reload_mode: default reload mode for performance models.
    """

    def __init__(self, seed: int = 42, trace_days: int = 30, reload_mode: str = RELOAD_MICRO):
        self.seed = seed
        self.trace_days = trace_days
        self.market = SpotMarket.synthetic(
            R4_FAMILY, duration=trace_days * 24 * HOURS, seed=seed
        )
        self.catalog = tuple(default_catalog())
        self.reload_mode = reload_mode

    def perf_model(
        self, profile: ApplicationProfile, reload_mode: str | None = None
    ) -> PerformanceModel:
        """Performance model anchored at the last-resort configuration."""
        mode = reload_mode if reload_mode is not None else self.reload_mode
        lrc = last_resort(
            self.catalog,
            lambda ref: PerformanceModel(profile=profile, reference=ref, reload_mode=mode),
        )
        return PerformanceModel(profile=profile, reference=lrc, reload_mode=mode)

    def lrc(self, perf: PerformanceModel) -> Configuration:
        """Last-resort configuration for *perf* over this catalogue."""
        return last_resort(self.catalog, lambda ref: perf)

    def start_times(self, count: int, job_budget: float, seed_key: str = "starts") -> np.ndarray:
        """Random job start times leaving *job_budget* of trace headroom."""
        rng = derive_rng(self.seed, seed_key)
        horizon = self.market.horizon - job_budget
        if horizon <= 0:
            raise ValueError("trace too short for the requested job budget")
        return rng.uniform(self.market.start, horizon, size=count)


@dataclass(frozen=True)
class SweepTask:
    """One (application, slack, strategy) cell of a figure grid.

    Serialisable description of one :func:`_sweep_cell` run: the
    strategy travels by name (the registry's factories are not
    picklable; a name resolved in the worker is).  The fields after
    ``label`` forward :class:`~repro.core.simulator.ExecutionSimulator`
    and :meth:`ExperimentSetup.start_times` arguments, with their
    defaults; ``warning`` also configures the cell's planning service.

    Attributes:
        reload_mode: reload mode of the strategy under test (None =
            micro for ``hourglass*`` strategies, full otherwise).
        offline_cost: per-run offline (partitioning) dollars added to
            each simulation's cost (Fig 7's METIS-vs-µMETIS ablation).
        label: optional :class:`CellResult` strategy-name override
            (Fig 7 reports the same strategies under ablation labels).
        anchor: reload mode of the reference model that fixes the
            deadline and the baseline: full (the conventional stack)
            for the figures, micro for the ablations and catalogue study.
        budget: trace headroom per start (None = eight reference runs).
        seed_key: start-time seed key (None = ``"<app>-<slack>"``).

    Raises:
        ValueError: ``num_simulations`` is not an integer >= 1, the
            slack is not finite and >= 0, or a budget is not finite
            and > 0.
    """

    profile: ApplicationProfile
    slack_fraction: float
    strategy: str
    num_simulations: int = 40
    reload_mode: str | None = None
    offline_cost: float = 0.0
    label: str | None = None
    catalog: tuple | None = None
    anchor: str = RELOAD_FULL
    budget: float | None = None
    seed_key: str | None = None
    warning: WarningPolicy = NO_WARNING
    ckpt_interval_scale: float = 1.0
    phase_model: PhaseModel | None = None
    work_accounting: str = ACCOUNT_TIME

    def __post_init__(self):
        n = self.num_simulations
        if not isinstance(n, numbers.Integral) or n < 1:
            raise ValueError(f"num_simulations must be an integer >= 1, got {n!r}")
        if not (math.isfinite(self.slack_fraction) and self.slack_fraction >= 0):
            raise ValueError(
                f"slack_fraction must be finite and >= 0, got {self.slack_fraction!r}"
            )
        if self.budget is not None and not (
            math.isfinite(self.budget) and self.budget > 0
        ):
            raise ValueError(f"budget must be finite and > 0, got {self.budget!r}")


def sweep_strategy(
    setup: ExperimentSetup,
    profile: ApplicationProfile,
    slack_fraction: float,
    strategy: str,
    num_simulations: int = 40,
    reload_mode: str | None = None,
    offline_cost: float = 0.0,
) -> CellResult:
    """Run one cell in this process (arguments as for :class:`SweepTask`)."""
    task = SweepTask(
        profile, slack_fraction, strategy, num_simulations, reload_mode, offline_cost
    )
    return _sweep_cell(setup, task)


# Per-worker-process ExperimentSetup, built once by _init_worker.  A
# setup is deterministic in (seed, trace_days, reload_mode), so worker
# rebuilds reproduce the parent's market and catalogue exactly.
_WORKER_SETUP: ExperimentSetup | None = None


def _init_worker(seed: int, trace_days: int, reload_mode: str) -> None:
    global _WORKER_SETUP
    _WORKER_SETUP = ExperimentSetup(
        seed=seed, trace_days=trace_days, reload_mode=reload_mode
    )


def _call_with_worker_setup(fn, item):
    return fn(_WORKER_SETUP, item)


def parallel_cells(
    setup: ExperimentSetup,
    fn: Callable,
    items,
    max_workers: int | None = None,
) -> list:
    """Evaluate ``fn(setup, item)`` per item, fanning out over processes.

    Results come back in item order regardless of completion order, and
    each worker rebuilds *setup* deterministically from its parameters,
    so the output is bit-identical to the serial loop — parallelism is
    purely a wall-clock optimisation.  *fn* must be a module-level
    function and the items picklable.

    Args:
        max_workers: process count; ``None`` = CPU count.  Values <= 1
            (or a single item) short-circuit to the in-process serial
            loop with no executor overhead.
    """
    items = list(items)
    if max_workers is None:
        max_workers = os.cpu_count() or 1
    if max_workers <= 1 or len(items) <= 1:
        return [fn(setup, item) for item in items]
    with ProcessPoolExecutor(
        max_workers=min(max_workers, len(items)),
        initializer=_init_worker,
        initargs=(setup.seed, setup.trace_days, setup.reload_mode),
    ) as executor:
        return list(executor.map(_call_with_worker_setup, [fn] * len(items), items))


def _sweep_cell(setup: ExperimentSetup, task: SweepTask) -> CellResult:
    """Many random-start simulations of one cell, averaged.

    The deadline and the normalising baseline come from the reference
    model (``task.anchor``), so every strategy of a grid shares them.
    With the full-reload anchor, Hourglass's fast reload shows up as
    extra effective slack and cheaper recoveries, as in the paper.
    """
    # A FRESH service per cell keeps parallel == serial bit-identical: a
    # DP memo bucket keeps the value of its first visitor, so a service
    # shared across cells would let process scheduling change decisions.
    # Within the cell it amortises estimator state across simulations.
    service = PlanningService(setup.market, warning=task.warning)
    provisioner = service.provisioner(task.strategy)
    reload_mode = task.reload_mode or (
        RELOAD_MICRO if provisioner.name.startswith("hourglass") else RELOAD_FULL
    )
    reference_perf = setup.perf_model(task.profile, task.anchor)
    reference_lrc = setup.lrc(reference_perf)
    baseline = on_demand_baseline_cost(reference_perf, reference_lrc)
    deadline_fixed = reference_perf.fixed_time(reference_lrc)

    sim = ExecutionSimulator(
        setup.market,
        setup.perf_model(task.profile, reload_mode),
        setup.catalog if task.catalog is None else task.catalog,
        provisioner,
        record_events=False,
        warning=task.warning,
        ckpt_interval_scale=task.ckpt_interval_scale,
        phase_model=task.phase_model,
        work_accounting=task.work_accounting,
    )
    # Generous per-run budget: worst case is many evictions on slow shapes.
    budget = task.budget or 8 * (
        deadline_fixed + reference_perf.exec_time(reference_lrc) * (2 + task.slack_fraction)
    )
    seed_key = task.seed_key or f"{task.profile.name}-{task.slack_fraction}"
    n = task.num_simulations
    starts = setup.start_times(n, budget, seed_key=seed_key)
    costs = np.empty(n)
    missed = evictions = deployments = 0
    for i, start in enumerate(starts):
        job = job_with_slack(task.profile, float(start), task.slack_fraction, deadline_fixed)
        result = sim.run(job)
        costs[i] = result.cost + task.offline_cost
        missed += result.missed_deadline
        evictions += result.evictions
        deployments += result.deployments
    return CellResult(
        strategy=provisioner.name if task.label is None else task.label,
        app=task.profile.name,
        slack_percent=int(round(100 * task.slack_fraction)),
        normalized_cost=float(costs.mean() / baseline),
        missed_percent=100.0 * missed / n,
        simulations=n,
        mean_evictions=evictions / n,
        mean_deployments=deployments / n,
    )


def run_sweep_tasks(
    setup: ExperimentSetup,
    tasks,
    max_workers: int | None = None,
) -> list[CellResult]:
    """Run a grid of :class:`SweepTask` cells, optionally in parallel.

    The one cell runner behind every simulated figure, ablation and
    study: one :class:`CellResult` per task, in task order,
    bit-identical to running the tasks serially.
    """
    return parallel_cells(setup, _sweep_cell, tasks, max_workers)


def offline_partition_cost(
    perf: PerformanceModel, distinct_worker_counts: int, reload_mode: str
) -> float:
    """Dollars of offline partitioning work charged per job run (Fig 7).

    Micro-partitioning runs the offline partitioner once; the
    conventional scheme must pre-partition for every distinct worker
    count in the catalogue.  Billed on one r4.8xlarge on-demand machine.
    """
    runs = 1 if reload_mode == RELOAD_MICRO else distinct_worker_counts
    seconds = perf.partition_compute_time() * runs
    return R4_8XLARGE.on_demand_price * seconds / 3600.0
