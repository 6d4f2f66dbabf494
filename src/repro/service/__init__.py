"""Multi-tenant planning service over the Hourglass decision path.

One long-lived :class:`PlanningService` answers provisioning questions
for many concurrent jobs, sharing warm estimator memo tables, market
snapshots and batched decisions across tenants (see
:mod:`repro.service.planning`).  :class:`PlanFrontend`
(:mod:`repro.service.frontend`) is the async serving layer over it —
request coalescing, eager batching, backpressure — backed by the
autoscaled :class:`PlannerPool` (:mod:`repro.service.pool`).
"""

from repro.service.frontend import (
    FrontendConfig,
    FrontendOverloadError,
    FrontendStats,
    PlanFrontend,
)
from repro.service.planning import (
    PlanError,
    PlanningService,
    PlanRequest,
    PlanResult,
    PlanTelemetry,
)
from repro.service.pool import Autoscaler, PlannerPool, PoolConfig, PoolStats
from repro.service.strategies import SERVICE_STRATEGIES

__all__ = [
    "Autoscaler",
    "FrontendConfig",
    "FrontendOverloadError",
    "FrontendStats",
    "PlanError",
    "PlanFrontend",
    "PlannerPool",
    "PlanningService",
    "PlanRequest",
    "PlanResult",
    "PlanTelemetry",
    "PoolConfig",
    "PoolStats",
    "SERVICE_STRATEGIES",
]
