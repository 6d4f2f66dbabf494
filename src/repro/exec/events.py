"""Unified event/result types for lifecycle executions.

One timeline-entry type and one result type serve both execution
front-ends: the analytic simulator (which has no engine supersteps) and
the engine-backed runtime (which additionally carries the computed
vertex values).
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class LifecycleEvent:
    """One timeline entry of an execution.

    Attributes:
        t: simulated time of the event.
        kind: deploy | eviction | checkpoint | checkpoint-failed |
            forced-lrc | rescale | finish.
        config: name of the active configuration ("-" when none).
        work_left: outstanding work fraction at the event.
        cost_so_far: cumulative bill at the event.
        superstep: engine superstep counter (0 for analytic runs).
    """

    t: float
    kind: str
    config: str
    work_left: float
    cost_so_far: float
    superstep: int = 0


@dataclass(frozen=True)
class RescaleRecord:
    """One planned mid-job reconfiguration carried out by the lifecycle.

    Attributes:
        t: decision time (the checkpoint boundary the move fired at).
        from_config / to_config: configuration names either side.
        action: shrink | grow | move (worker-count direction).
        frontier: active-vertex fraction the decision was made at.
        work_left: reported work fraction at the decision.
        superstep: engine superstep counter at the decision.
        stay_cost / target_cost: the policy's expected-cost comparison
            (NaN for policies without a cost model).
        reload_seconds: setup + restore seconds the move actually paid.
    """

    t: float
    from_config: str
    to_config: str
    action: str
    frontier: float
    work_left: float
    superstep: int = 0
    stay_cost: float = float("nan")
    target_cost: float = float("nan")
    reload_seconds: float = 0.0


@dataclass(frozen=True)
class RunResult:
    """Outcome of one job execution (simulated or engine-backed).

    Attributes:
        cost: total dollars billed.
        release_time: simulated time the job was released.
        finish_time: simulated completion time.
        deadline: the job's deadline.
        evictions / deployments / checkpoints: lifecycle counters
            (checkpoints counts *persisted* checkpoints only).
        spot_seconds / on_demand_seconds: machine-seconds billed per
            market segment (seconds x workers).
        events: the :class:`LifecycleEvent` timeline (empty when event
            recording is off).
        provisioner_name: the strategy that drove the run.
        values: the computed vertex values (engine-backed runs only).
        supersteps: engine supersteps executed (engine-backed runs only).
        rescales: planned reconfigurations carried out (not evictions).
        rescale_seconds: setup + reload seconds spent on planned moves.
        rescale_records: per-move :class:`RescaleRecord` details.
    """

    cost: float
    release_time: float
    finish_time: float
    deadline: float
    evictions: int
    deployments: int
    checkpoints: int
    spot_seconds: float
    on_demand_seconds: float
    events: tuple
    provisioner_name: str
    values: dict | None = None
    supersteps: int = 0
    rescales: int = 0
    rescale_seconds: float = 0.0
    rescale_records: tuple = ()

    @property
    def missed_deadline(self) -> bool:
        """Whether the run finished after its deadline."""
        return self.finish_time > self.deadline + 1e-6

    def normalized_cost(self, baseline_cost: float) -> float:
        """Cost relative to the on-demand last-resort run."""
        if baseline_cost <= 0:
            raise ValueError("baseline_cost must be positive")
        return self.cost / baseline_cost
