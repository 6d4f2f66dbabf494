"""Metrics and live operations for the load harness (``repro.obs``).

* **Metrics** (:mod:`repro.obs.metrics`) — a registry of named
  counters, gauges and bucketed histograms with labeled series per
  tenant / configuration / strategy, rendered as Prometheus text;
  :func:`repro.obs.export.parse_prometheus` reads that text back.
* **Live operations** — on the simulated clock: a run's outcome
  records in a :class:`RecordLog`, windows as folds over them
  (:mod:`repro.obs.window`), declarative burn-rate SLOs evaluated at
  the log's ticks (:mod:`repro.obs.slo`), per-tenant cost attribution
  fed by one path, the load harness's ``CostLedger.record_run``
  (:mod:`repro.obs.attribution`).  The same records give the same
  alerts on any box; no thread samples anything.

There is no process-wide registry: a harness, planner pool, frontend or
SLO monitor writes to the registry it is given, or to one of its own; a
ledger mirrors its rows only into a registry it is given.  A run's
timeline is its ``RunResult.events``; per-decision telemetry reaches
:meth:`PlanningService.add_decision_hook
<repro.service.planning.PlanningService.add_decision_hook>` hooks; and
the time each layer takes is measured from outside by
``python3 -m bench --trace 1``.
"""

from repro.obs import export
from repro.obs.attribution import CostLedger, TenantUsage
from repro.obs.metrics import (
    DEFAULT_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)
from repro.obs.slo import (
    BurnRateRule,
    SloAlert,
    SloMonitor,
    SloObjective,
    default_slos,
)
from repro.obs.window import DEFAULT_WINDOWS, Frame, Record, RecordLog

__all__ = [
    "BurnRateRule",
    "CostLedger",
    "Counter",
    "DEFAULT_BUCKETS",
    "DEFAULT_WINDOWS",
    "Frame",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "Record",
    "RecordLog",
    "SloAlert",
    "SloMonitor",
    "SloObjective",
    "TenantUsage",
    "default_slos",
    "export",
]
