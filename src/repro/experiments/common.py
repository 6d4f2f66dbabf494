"""Shared experiment plumbing: setup, per-cell simulation sweeps.

Every figure module builds an :class:`ExperimentSetup` (synthetic market
+ catalogue + per-application performance models, all seeded) and uses
:func:`sweep_strategy` to run many randomly-started simulations of one
(application, slack, strategy) cell, the paper's §8.1 methodology.

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

import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
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
from repro.core.simulator import ExecutionSimulator, on_demand_baseline_cost
from repro.exec.events import RunResult
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
        #: One shared planning service per setup: every figure harness
        #: resolving strategies through it shares warm estimator state
        #: and market snapshots.
        self.service = PlanningService(self.market)

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


def sweep_strategy(
    setup: ExperimentSetup,
    profile: ApplicationProfile,
    slack_fraction: float,
    strategy: str,
    num_simulations: int = 40,
    reload_mode: str | None = None,
    offline_cost: float = 0.0,
    service: PlanningService | None = None,
) -> CellResult:
    """Run one cell: many random-start simulations of one strategy.

    The job deadline and the normalising baseline cost are both defined
    by the *conventional* stack — an on-demand last-resort run with the
    full (shuffle) reload — so they are identical for every strategy.
    The strategy under test then runs with its own reload mode: micro
    (fast reload) for Hourglass, full for the prior-work baselines.
    Hourglass's reload advantage therefore shows up as extra effective
    slack and cheaper recoveries, exactly as in the paper.

    Args:
        reload_mode: reload mode for the strategy under test (defaults
            to micro for ``hourglass*`` strategies, full otherwise).
        offline_cost: per-run offline (partitioning) dollars added to
            each simulation's cost (Fig 7's METIS-vs-µMETIS ablation).
        service: planning service resolving the *strategy* name
            (defaults to the setup's shared service).
    """
    provisioner = (service or setup.service).provisioner(strategy)
    if reload_mode is None:
        reload_mode = (
            RELOAD_MICRO if provisioner.name.startswith("hourglass") else RELOAD_FULL
        )
    reference_perf = setup.perf_model(profile, RELOAD_FULL)
    reference_lrc = setup.lrc(reference_perf)
    baseline = on_demand_baseline_cost(reference_perf, reference_lrc)
    deadline_fixed = reference_perf.fixed_time(reference_lrc)

    perf = setup.perf_model(profile, reload_mode)
    sim = ExecutionSimulator(
        setup.market, perf, setup.catalog, provisioner, record_events=False
    )
    # Generous per-run budget: worst case is many evictions on slow shapes.
    budget = 8 * (deadline_fixed + reference_perf.exec_time(reference_lrc) * (2 + slack_fraction))
    starts = setup.start_times(
        num_simulations, budget, seed_key=f"{profile.name}-{slack_fraction}"
    )
    costs = np.empty(num_simulations)
    missed = 0
    evictions = 0
    deployments = 0
    for i, start in enumerate(starts):
        job = job_with_slack(profile, float(start), slack_fraction, deadline_fixed)
        result: RunResult = sim.run(job)
        costs[i] = result.cost + offline_cost
        missed += result.missed_deadline
        evictions += result.evictions
        deployments += result.deployments
    return CellResult(
        strategy=provisioner.name,
        app=profile.name,
        slack_percent=int(round(100 * slack_fraction)),
        normalized_cost=float(costs.mean() / baseline),
        missed_percent=100.0 * missed / num_simulations,
        simulations=num_simulations,
        mean_evictions=evictions / num_simulations,
        mean_deployments=deployments / num_simulations,
    )


@dataclass(frozen=True)
class SweepTask:
    """One (application, slack, strategy) cell of a figure grid.

    Serialisable description of a :func:`sweep_strategy` call: the
    strategy travels by name (the registry's factories are not
    picklable; a name resolved in the worker is).

    Attributes:
        label: optional :class:`CellResult` strategy-name override
            (Fig 7 reports the same strategies under ablation labels).
    """

    profile: ApplicationProfile
    slack_fraction: float
    strategy: str
    num_simulations: int = 40
    reload_mode: str | None = None
    offline_cost: float = 0.0
    label: str | None = None


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
    # A FRESH service per cell keeps parallel == serial bit-identical:
    # warm-cache state never leaks between cells, so process scheduling
    # cannot influence any cell's decisions.  Within the cell the
    # service amortises estimator state across the cell's simulations.
    service = PlanningService(setup.market)
    result = sweep_strategy(
        setup,
        task.profile,
        task.slack_fraction,
        task.strategy,
        num_simulations=task.num_simulations,
        reload_mode=task.reload_mode,
        offline_cost=task.offline_cost,
        service=service,
    )
    if task.label is not None:
        result = replace(result, strategy=task.label)
    return result


def run_sweep_tasks(
    setup: ExperimentSetup,
    tasks,
    max_workers: int | None = None,
) -> list[CellResult]:
    """Run a grid of :class:`SweepTask` cells, optionally in parallel.

    The parallel sweep driver behind Fig 5/7: one :class:`CellResult`
    per task, in task order, bit-identical to calling
    :func:`sweep_strategy` serially.
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
