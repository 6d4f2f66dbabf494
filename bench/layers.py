"""Which public callables a traced run wraps, and how spans become the
per-layer metrics.

A layer is one ``src/repro/<module>``.  Every row below is a public
class method called once per decision, job, superstep, checkpoint or
price query — thousands of times a run, not millions; the DP's per-cell
functions are never wrapped.
"""

from __future__ import annotations

from bench.spans import exclusive_times
from bench.stats import percentile


def _dp_before(estimator):
    return estimator.cache_stats().misses


def _dp_after(span, estimator, decision, misses_before):
    span.attrs["misses"] = estimator.cache_stats().misses - misses_before


def _lifecycle_after(span, lifecycle, result, _token):
    span.attrs["evictions"] = result.evictions
    span.attrs["deployments"] = result.deployments


def _step_after(span, engine, _more, _token):
    span.attrs["messages"] = engine.stats[-1].messages_sent if engine.stats else 0


def _save_after(span, manager, info, _token):
    span.attrs["nbytes"] = info.nbytes


def wrap_targets() -> list:
    """The ``Instrument`` rows (imports deferred: ``repro`` is only on
    the path once ``bench.__main__`` has added ``src``)."""
    from repro.cloud.market import SpotMarket
    from repro.core.expected_cost import ApproximateCostEstimator
    from repro.core.simulator import ExecutionSimulator
    from repro.engine.checkpoint import CheckpointManager
    from repro.engine.engine import PregelEngine
    from repro.engine.loader import MicroLoader
    from repro.exec.billing import BillingMeter
    from repro.exec.lifecycle import ExecutionLifecycle
    from repro.load.admission import AdmissionController
    from repro.load.harness import LoadHarness
    from repro.partitioning.micro import MicroPartitioner, MicroPartitioning
    from repro.partitioning.multilevel import MultilevelPartitioner
    from repro.runtime.runtime import HourglassRuntime
    from repro.service.planning import PlanningService

    return [
        (
            ApproximateCostEstimator,
            "best_at_slack",
            "core.dp",
            "core",
            {"before": _dp_before, "after": _dp_after},
        ),
        (ExecutionSimulator, "run", "core.sim_run", "core", {"new_trace": True}),
        (PlanningService, "plan", "service.plan", "service", {}),
        (PlanningService, "plan_many", "service.plan_many", "service", {}),
        (LoadHarness, "run", "load.run", "load", {}),
        (AdmissionController, "offer", "load.admission", "load", {}),
        (
            ExecutionLifecycle,
            "run",
            "exec.lifecycle",
            "exec",
            {"after": _lifecycle_after},
        ),
        (BillingMeter, "bill", "exec.bill", "exec", {}),
        (SpotMarket, "cost", "cloud.price", "cloud", {}),
        (SpotMarket, "spot_price", "cloud.price", "cloud", {}),
        (SpotMarket, "config_rates", "cloud.price", "cloud", {}),
        (PregelEngine, "__init__", "engine.build", "engine", {}),
        (PregelEngine, "step", "engine.superstep", "engine", {"after": _step_after}),
        (CheckpointManager, "save", "engine.ckpt_save", "engine", {"after": _save_after}),
        (CheckpointManager, "load_into", "engine.ckpt_restore", "engine", {}),
        (MicroLoader, "load", "engine.load", "engine", {}),
        (MicroPartitioner, "build", "partitioning.micro_build", "partitioning", {}),
        (MicroPartitioning, "cluster", "partitioning.cluster", "partitioning", {}),
        (
            MultilevelPartitioner,
            "partition",
            "partitioning.multilevel",
            "partitioning",
            {},
        ),
        (HourglassRuntime, "__init__", "runtime.init", "runtime", {}),
        (HourglassRuntime, "execute", "runtime.execute", "runtime", {"new_trace": True}),
    ]


class TraceView:
    """Read side of one traced run: spans plus their self times inside
    the timed window ``[lo, hi]`` (set-up spans keep their durations but
    have no self time in the window)."""

    def __init__(self, spans, lo: float, hi: float):
        self.spans = list(spans)
        self.lo = lo
        self.hi = hi
        self.wall_s = hi - lo
        self.exclusive = exclusive_times(self.spans, lo, hi)
        self._by_id = {s.id: s for s in self.spans}
        self._by_name: dict[str, list] = {}
        for span in self.spans:
            self._by_name.setdefault(span.name, []).append(span)

    def named(self, name: str, timed_only: bool = False) -> list:
        spans = self._by_name.get(name, [])
        if timed_only:
            spans = [s for s in spans if s.start >= self.lo and s.end <= self.hi]
        return spans

    def count(self, name: str, timed_only: bool = True) -> int:
        return len(self.named(name, timed_only))

    def self_s(self, *names: str) -> float:
        return sum(
            self.exclusive.get(s.id, 0.0) for name in names for s in self.named(name)
        )

    def total_s(self, name: str, timed_only: bool = False) -> float:
        return sum(s.duration for s in self.named(name, timed_only))

    def p50_ms(self, name: str, timed_only: bool = True, where=None) -> float:
        spans = self.named(name, timed_only)
        if where is not None:
            spans = [s for s in spans if where(s)]
        if not spans:
            return 0.0
        return 1000.0 * percentile([s.duration for s in spans], 50)

    def attr_sum(self, name: str, attr: str, timed_only: bool = True) -> float:
        return sum(s.attrs.get(attr, 0) for s in self.named(name, timed_only))

    def layer_seconds(self, traces=None) -> dict[str, float]:
        """Self seconds per layer, optionally only for some trace ids."""
        table: dict[str, float] = {}
        for sid, seconds in self.exclusive.items():
            span = self._by_id[sid]
            if traces is not None and span.trace not in traces:
                continue
            table[span.layer] = table.get(span.layer, 0.0) + seconds
        return table

    def inside(self, name: str, ancestor: str) -> int:
        """How many timed *name* spans have an *ancestor*-named span above them."""
        by_id = self._by_id
        found = 0
        for span in self.named(name, timed_only=True):
            parent = by_id.get(span.parent)
            while parent is not None and parent.name != ancestor:
                parent = by_id.get(parent.parent)
            found += parent is not None
        return found

    def median_s(self, name: str) -> float:
        spans = self.named(name)
        return percentile([s.duration for s in spans], 50) if spans else 0.0


def span_metrics(view: TraceView) -> dict[str, float]:
    """Every per-layer metric that is a function of the spans alone.

    Workloads add the ones that come from the program's own public stats
    objects (hit rates, pool sizes, stored bytes).  A layer a workload
    never enters reads 0 — which is the prediction for it, not a gap.
    """
    runs = view.count("exec.lifecycle")
    superstep_s = view.total_s("engine.superstep", timed_only=True)
    supersteps = view.count("engine.superstep")
    init_s = view.total_s("runtime.init")
    return {
        "core.dp_calls": view.count("core.dp"),
        "core.dp_self_s": view.self_s("core.dp"),
        "core.dp_cold_p50_ms": view.p50_ms(
            "core.dp", where=lambda s: s.attrs.get("misses", 0) > 0
        ),
        "core.dp_warm_p50_ms": view.p50_ms(
            "core.dp", where=lambda s: s.attrs.get("misses", 0) == 0
        ),
        "core.memo_misses": view.attr_sum("core.dp", "misses"),
        "core.sim_runs": view.count("core.sim_run"),
        "core.sim_run_p50_ms": view.p50_ms("core.sim_run"),
        "service.plan_calls": view.count("service.plan") + view.count("service.plan_many"),
        "service.plan_self_s": view.self_s("service.plan", "service.plan_many"),
        "service.frontend_self_s": view.self_s("service.frontend"),
        "load.run_self_s": view.self_s("load.run"),
        "load.trace_gen_s": view.median_s("load.trace_gen"),
        "load.admission_s": view.total_s("load.admission", timed_only=True),
        "exec.lifecycle_self_s": view.self_s("exec.lifecycle"),
        "exec.decisions_per_run": view.inside("core.dp", "exec.lifecycle") / runs
        if runs
        else 0.0,
        "exec.bill_s": view.total_s("exec.bill", timed_only=True),
        "exec.evictions": view.attr_sum("exec.lifecycle", "evictions"),
        "exec.redeploys": view.attr_sum("exec.lifecycle", "deployments") - runs,
        "cloud.market_build_s": view.median_s("cloud.market_build"),
        "cloud.price_queries": view.count("cloud.price"),
        "cloud.price_query_s": view.self_s("cloud.price"),
        "engine.supersteps": supersteps,
        "engine.superstep_self_s": view.self_s("engine.superstep"),
        "engine.supersteps_per_s": supersteps / superstep_s if superstep_s else 0.0,
        "engine.messages": view.attr_sum("engine.superstep", "messages"),
        "engine.ckpt_saves": view.count("engine.ckpt_save"),
        "engine.ckpt_save_s": view.total_s("engine.ckpt_save", timed_only=True),
        "engine.ckpt_bytes": view.attr_sum("engine.ckpt_save", "nbytes"),
        "engine.ckpt_restore_p50_ms": view.p50_ms("engine.ckpt_restore"),
        "engine.load_p50_ms": view.p50_ms("engine.load"),
        "engine.build_p50_ms": view.p50_ms("engine.build"),
        "partitioning.micro_build_s": view.total_s("partitioning.micro_build"),
        "partitioning.cluster_p50_ms": view.p50_ms("partitioning.cluster", timed_only=False),
        "partitioning.multilevel_s": view.total_s("partitioning.multilevel"),
        "graph.generate_s": view.median_s("graph.generate"),
        "graph.csr_build_s": view.total_s("graph.csr_build"),
        "graph.csr_load_ms": 1000.0 * view.total_s("graph.csr_load"),
        "runtime.execute_self_s": view.self_s("runtime.execute"),
        "runtime.calibrate_s": max(
            0.0, init_s - view.total_s("partitioning.micro_build")
        )
        if init_s
        else 0.0,
    }


class DecisionCollector:
    """Decision hook: the telemetry the service publishes per decision,
    as ``(latency_s, queue_wait_s, estimator_reused)``."""

    def __init__(self):
        # One append per decision: atomic, so pool workers can share it.
        self.seen: list[tuple[float, float, bool]] = []

    def __call__(self, request, result) -> None:
        tel = result.telemetry
        self.seen.append((tel.latency_s, tel.queue_wait_s, tel.estimator_reused))

    def latencies(self) -> list[float]:
        return [latency for latency, _, _ in self.seen]


def service_layer_metrics(service, collector) -> dict[str, float]:
    """``service.*`` metrics read off the planning service's public stats."""
    cache = service.cache_stats()
    stats = service.service_stats()
    lookups = cache.hits + cache.misses
    snapshots = stats["snapshot_hits"] + stats["snapshot_misses"]
    out = {
        "service.memo_hit_rate": cache.hits / lookups if lookups else 0.0,
        "service.snapshot_hit_rate": stats["snapshot_hits"] / snapshots
        if snapshots
        else 0.0,
        "service.invalidations": cache.invalidations,
    }
    if collector is not None and collector.seen:
        waits = [wait for _, wait, _ in collector.seen]
        out["service.queue_wait_p50_ms"] = 1000.0 * percentile(waits, 50)
        out["service.estimator_reuse_rate"] = sum(
            reused for _, _, reused in collector.seen
        ) / len(collector.seen)
    return out
