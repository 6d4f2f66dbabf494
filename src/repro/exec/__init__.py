"""Shared execution-lifecycle core (the paper's Fig 2 loop, reusable).

One decision-point event loop (:class:`ExecutionLifecycle`) drives both
the analytic trace simulator and the engine-backed runtime; work
semantics plug in via :class:`WorkModel`, billing via
:class:`BillingMeter`, and fault injection via :class:`LifecycleObserver`
hooks.
"""

from repro.exec.billing import BillingMeter
from repro.exec.errors import (
    ExecutionError,
    HorizonError,
    StepBudgetError,
)
from repro.exec.events import LifecycleEvent, RunResult
from repro.exec.faults import (
    DatastoreWriteFaults,
    EvictionStormFaults,
    SlowBootFaults,
)
from repro.exec.frontier import (
    APP_FRONTIERS,
    FrontierCurve,
    frontier_for_app,
)
from repro.exec.lifecycle import MAX_STEPS, ExecutionLifecycle
from repro.exec.observers import (
    CheckpointWritePlan,
    LifecycleObserver,
)
from repro.exec.workmodel import (
    WORK_EPS,
    AnalyticWorkModel,
    SegmentPlan,
    WorkModel,
)

__all__ = [
    "APP_FRONTIERS",
    "AnalyticWorkModel",
    "BillingMeter",
    "CheckpointWritePlan",
    "DatastoreWriteFaults",
    "EvictionStormFaults",
    "ExecutionError",
    "ExecutionLifecycle",
    "FrontierCurve",
    "HorizonError",
    "LifecycleEvent",
    "LifecycleObserver",
    "MAX_STEPS",
    "RunResult",
    "frontier_for_app",
    "SegmentPlan",
    "SlowBootFaults",
    "StepBudgetError",
    "WORK_EPS",
    "WorkModel",
]
