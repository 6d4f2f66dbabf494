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
            forced-lrc | finish.
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

    @property
    def missed_deadline(self) -> bool:
        """Whether the run finished after its deadline."""
        return self.finish_time > self.deadline + 1e-6
