"""Unified tracing & metrics for the whole stack (``repro.obs``).

One process-wide observability layer shared by the engine, the
execution lifecycle and the planning service:

* **Spans** (:mod:`repro.obs.trace`) — hierarchical, attribute-carrying
  intervals with correlation (trace) IDs that flow from a planning
  request through lifecycle phases down to individual supersteps and
  datastore transfers.
* **Metrics** (:mod:`repro.obs.metrics`) — a registry of named
  counters, gauges and bucketed histograms with labeled series per
  tenant / configuration / strategy.
* **Exporters** (:mod:`repro.obs.export`) — structured JSONL event
  logs, Prometheus text format, and Chrome ``trace_event`` JSON for
  ``chrome://tracing`` / Perfetto.
* **TracingObserver** (:mod:`repro.obs.observer`) — the lifecycle hook
  plug-in that emits the spans and the live ``billed_*`` spend series.
  Like any observer it defines only the hooks it needs; the lifecycle treats the
  rest as no-ops / identities.  The run's timeline is the result's
  ``events``, not a second record kept here.
* **Live operations** — on the simulated clock: a run's outcome
  records in a :class:`RecordLog`, windows as folds over them
  (:mod:`repro.obs.window`), declarative burn-rate SLOs evaluated at
  the log's ticks (:mod:`repro.obs.slo`), per-tenant cost attribution
  fed by one path, the load harness's ``CostLedger.record_run``
  (:mod:`repro.obs.attribution`), and the scrapeable HTTP endpoint
  serving the latest fold (:mod:`repro.obs.server`).  The same records
  give the same alerts on any box; no thread samples anything.

Tracing is off by default: the installed tracer is the no-op
:data:`NULL_TRACER` and every instrumentation site guards on one
``tracer.enabled`` branch, so disabled-mode runs stay bit-identical and
effectively free.  Enable with :func:`enable` or scope it::

    from repro import obs
    with obs.tracing() as (tracer, metrics):
        simulator.run(job)
    obs.export.write_jsonl(tracer.records(), "run.jsonl")
    print(metrics.to_prometheus())
"""

from repro.obs import export, report
from repro.obs.attribution import CostLedger, TenantUsage
from repro.obs.metrics import (
    DEFAULT_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)
from repro.obs.observer import TracingObserver
from repro.obs.server import OpsServer
from repro.obs.slo import (
    BurnRateRule,
    SloAlert,
    SloMonitor,
    SloObjective,
    default_slos,
)
from repro.obs.state import (
    disable,
    enable,
    get_metrics,
    get_tracer,
    tracing,
)
from repro.obs.trace import NULL_TRACER, NullTracer, Span, SpanRecord, Tracer
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
    "NULL_TRACER",
    "NullTracer",
    "OpsServer",
    "Record",
    "RecordLog",
    "SloAlert",
    "SloMonitor",
    "SloObjective",
    "Span",
    "SpanRecord",
    "TenantUsage",
    "Tracer",
    "TracingObserver",
    "default_slos",
    "disable",
    "enable",
    "export",
    "get_metrics",
    "get_tracer",
    "report",
    "tracing",
]
