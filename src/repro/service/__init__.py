"""Multi-tenant planning service over the Hourglass decision path.

One long-lived :class:`PlanningService` answers provisioning questions
for many concurrent jobs, sharing warm estimator memo tables, market
snapshots and batched decisions across tenants (see
:mod:`repro.service.planning`).  :class:`PlanFrontend`
(:mod:`repro.service.frontend`) is the async serving layer over it: it
plans inline on the event-loop thread, the one planner there is, and
shares one result per request key per loop tick.
"""

from repro.service.frontend import (
    FrontendConfig,
    FrontendStats,
    PlanFrontend,
    PoolConfig,
    PoolStats,
)
from repro.service.planning import (
    PlanError,
    PlanningService,
    PlanRequest,
    PlanResult,
    PlanTelemetry,
)
from repro.service.strategies import SERVICE_STRATEGIES

__all__ = [
    "FrontendConfig",
    "FrontendStats",
    "PlanError",
    "PlanFrontend",
    "PlanningService",
    "PlanRequest",
    "PlanResult",
    "PlanTelemetry",
    "PoolConfig",
    "PoolStats",
    "SERVICE_STRATEGIES",
]
