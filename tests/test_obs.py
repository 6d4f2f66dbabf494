"""The unified observability layer (:mod:`repro.obs`).

Pins the three contracts the subsystem makes:

* **Correctness of the primitives** — span nesting/correlation IDs,
  metric series and Prometheus rendering, JSONL/Chrome exporters and
  their validators.
* **Attribution** — a traced multi-tenant recurring run produces one
  stream where every planning-service ``plan`` span and every engine
  ``superstep`` span carries the trace (correlation) ID of the ``run``
  root span it happened under.
* **Zero perturbation** — with tracing disabled *or* enabled, traced
  runs return bit-identical results to untraced runs (observation
  never adjusts the execution).
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.cloud import default_catalog
from repro.core import (
    PAGERANK_PROFILE,
    SSSP_PROFILE,
    ExecutionSimulator,
    PerformanceModel,
    job_with_slack,
    last_resort,
)
from repro.core.recurring import InterleavedRecurringDriver, RecurringJobSpec
from repro.exec.rescale import RESCALE_SHRINK, RescaleDecision
from repro.engine.algorithms import PageRank
from repro.graph import generators
from repro.obs import (
    NULL_TRACER,
    MetricsRegistry,
    Tracer,
    TracingObserver,
    export,
    report,
)
from repro.obs.state import disable, enable, get_tracer, tracing
from repro.runtime import HourglassRuntime
from repro.service import PlanningService
from repro.utils.units import HOURS


@pytest.fixture(scope="module")
def catalog():
    return tuple(default_catalog())


def make_sim(market, catalog, observers=(), service=None, profile=PAGERANK_PROFILE):
    lrc = last_resort(
        catalog, lambda ref: PerformanceModel(profile=profile, reference=ref)
    )
    perf = PerformanceModel(profile=profile, reference=lrc)
    sim = ExecutionSimulator(
        market, perf, catalog, "hourglass", observers=observers, service=service
    )
    job = job_with_slack(profile, 0.0, 0.5, perf.fixed_time(lrc))
    return sim, job


class TestTracer:
    def test_nested_spans_share_trace_id(self):
        tracer = Tracer()
        with tracer.span("outer", t=0.0) as outer:
            with tracer.span("inner", t=1.0) as inner:
                assert inner.trace_id == outer.trace_id
                assert inner.parent_id == outer.span_id
            inner2 = tracer.span("inner2", t=2.0)
            assert inner2.parent_id == outer.span_id
            inner2.end(3.0)
        records = tracer.records()
        assert [r.name for r in records] == ["inner", "inner2", "outer"]
        assert len({r.trace_id for r in records}) == 1
        assert records[-1].parent_id is None

    def test_sibling_roots_get_distinct_trace_ids(self):
        tracer = Tracer()
        tracer.span("a", t=0.0).end(1.0)
        tracer.span("b", t=0.0).end(1.0)
        a, b = tracer.records()
        assert a.trace_id != b.trace_id

    def test_events_and_record_span_inherit_parent(self):
        tracer = Tracer()
        with tracer.span("run", t=0.0) as run:
            event = tracer.event("evict", t=5.0, config="spot4")
            finished = tracer.record_span("setup", 1.0, 2.0, config="spot4")
        assert event.kind == "event"
        assert event.t0 == event.t1 == 5.0
        assert event.parent_id == run.span_id
        assert finished.parent_id == run.span_id
        assert finished.duration == pytest.approx(1.0)
        assert finished.attr("config") == "spot4"

    def test_wall_clock_records_are_marked(self):
        tracer = Tracer()
        tracer.event("tick")  # no explicit t -> tracer clock
        tracer.event("tock", t=7.0)  # explicit (simulated) time
        wall, sim = tracer.records()
        assert wall.attr("clock") == "wall"
        assert sim.attr("clock") is None

    def test_span_end_is_idempotent(self):
        tracer = Tracer()
        span = tracer.span("once", t=0.0)
        assert span.end(1.0) is not None
        assert span.end(2.0) is None
        assert len(tracer.records()) == 1

    def test_len_and_clear(self):
        tracer = Tracer()
        tracer.event("a", t=0.0)
        tracer.record_span("b", 0.0, 1.0)
        assert len(tracer) == 2
        tracer.clear()
        assert len(tracer) == 0
        assert tracer.records() == ()

    def test_null_tracer_is_inert(self):
        assert not NULL_TRACER.enabled
        with NULL_TRACER.span("ignored") as span:
            span.set(x=1)
            assert span.activate() is span
        NULL_TRACER.event("ignored")
        NULL_TRACER.record_span("ignored", 0.0, 1.0)
        assert NULL_TRACER.records() == ()
        assert len(NULL_TRACER) == 0

    def test_process_state_enable_disable(self):
        assert get_tracer() is NULL_TRACER
        tracer, metrics = enable()
        try:
            assert get_tracer() is tracer
            assert tracer.enabled
        finally:
            disable()
        assert get_tracer() is NULL_TRACER

    def test_tracing_context_restores_previous(self):
        before = get_tracer()
        with tracing() as (tracer, metrics):
            assert get_tracer() is tracer
            assert isinstance(metrics, MetricsRegistry)
        assert get_tracer() is before


class TestMetrics:
    def test_counter_labeled_series(self):
        registry = MetricsRegistry()
        counter = registry.counter("evictions_total", "help text")
        counter.inc(1, tenant="a")
        counter.inc(2, tenant="a")
        counter.inc(5, tenant="b")
        assert counter.value(tenant="a") == 3
        assert counter.value(tenant="b") == 5
        assert counter.value(tenant="c") == 0
        with pytest.raises(ValueError):
            counter.inc(-1)

    def test_gauge_set_and_inc(self):
        gauge = MetricsRegistry().gauge("depth")
        gauge.set(4.0, queue="q")
        gauge.inc(-1.5, queue="q")
        assert gauge.value(queue="q") == pytest.approx(2.5)

    def test_histogram_cumulative_buckets(self):
        hist = MetricsRegistry().histogram("lat", buckets=(0.1, 1.0, 10.0))
        for value in (0.05, 0.5, 0.5, 5.0, 50.0):
            hist.observe(value)
        snap = hist.snapshot()
        assert snap["buckets"] == {0.1: 1, 1.0: 3, 10.0: 4}
        assert snap["count"] == 5
        assert snap["sum"] == pytest.approx(56.05)

    def test_registry_rejects_type_conflicts(self):
        registry = MetricsRegistry()
        registry.counter("x")
        with pytest.raises(TypeError, match="already registered"):
            registry.gauge("x")

    def test_prometheus_round_trip(self):
        registry = MetricsRegistry()
        registry.counter("runs_total", "Runs").inc(3, tenant="a b")
        registry.gauge("depth", "Depth").set(1.5)
        registry.histogram("lat", "Latency", buckets=(1.0,)).observe(0.5, op="put")
        samples = export.parse_prometheus(registry.to_prometheus())
        assert samples[("runs_total", (("tenant", "a b"),))] == 3
        assert samples[("depth", ())] == 1.5
        assert samples[("lat_bucket", (("le", "1"), ("op", "put")))] == 1
        assert samples[("lat_bucket", (("le", "+Inf"), ("op", "put")))] == 1
        assert samples[("lat_sum", (("op", "put"),))] == 0.5
        assert samples[("lat_count", (("op", "put"),))] == 1

    def test_parse_prometheus_rejects_malformed(self):
        with pytest.raises(ValueError, match="no # TYPE"):
            export.parse_prometheus("orphan_metric 1\n")
        with pytest.raises(ValueError, match="malformed value"):
            export.parse_prometheus("# TYPE m counter\nm not-a-number\n")
        with pytest.raises(ValueError, match="unquoted label"):
            export.parse_prometheus('# TYPE m counter\nm{k=v} 1\n')


class TestExporters:
    def _records(self):
        tracer = Tracer()
        with tracer.span("run", t=0.0, tenant="a", job_id="a#1") as run:
            run.set(cost=1.5)
            tracer.record_span("setup", 0.0, 10.0, config="spot4")
            tracer.event("eviction", t=20.0, config="spot4")
            tracer.event("heartbeat")  # wall-clock record
            run.end(30.0)
        return tracer.records()

    def test_jsonl_round_trip(self):
        records = self._records()
        lines = export.to_jsonl(records).splitlines()
        assert len(lines) == len(records)
        for line in lines:
            export.validate_record(json.loads(line))

    def test_numpy_attrs_are_coerced(self):
        tracer = Tracer()
        tracer.event("e", t=0.0, n=np.int64(3), x=np.float64(0.5))
        line = json.loads(export.to_jsonl(tracer.records()))
        assert line["attrs"] == {"n": 3, "x": 0.5}
        tracer.event("bad", t=1.0, obj=object())
        with pytest.raises(TypeError, match="not JSON-serialisable"):
            export.to_jsonl(tracer.records())

    def test_read_jsonl_restores_records(self, tmp_path):
        records = self._records()
        path = export.write_jsonl(records, tmp_path / "t.jsonl")
        assert export.read_jsonl(path) == list(records)

    def test_read_jsonl_reports_line_numbers(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"kind": "span"}\n')
        with pytest.raises(ValueError, match="bad.jsonl:1"):
            export.read_jsonl(path)

    def test_validate_record_rejections(self):
        good = json.loads(export.to_jsonl(self._records()).splitlines()[0])
        assert export.validate_record(dict(good)) == good
        for mutation, pattern in (
            ({"kind": "oops"}, "span.*event"),
            ({"t1": good["t0"] - 1.0}, "ends before"),
            ({"extra": 1}, "unknown fields"),
            ({"attrs": {"k": [1, 2]}}, "non-scalar"),
        ):
            with pytest.raises(ValueError, match=pattern):
                export.validate_record({**good, **mutation})
        with pytest.raises(ValueError, match="missing field"):
            export.validate_record({k: v for k, v in good.items() if k != "name"})

    def test_chrome_trace_structure(self):
        doc = export.to_chrome_trace(self._records())
        events = doc["traceEvents"]
        phases = {e["ph"] for e in events}
        assert phases <= {"X", "i", "M"}
        process_names = {
            e["args"]["name"] for e in events if e["name"] == "process_name"
        }
        assert process_names == {"simulated time", "wall clock"}
        spans = [e for e in events if e["ph"] == "X"]
        assert all(e["dur"] >= 0 and "ts" in e for e in spans)
        setup = next(e for e in spans if e["name"] == "setup")
        assert setup["dur"] == pytest.approx(10.0 * 1e6)
        # Simulated and wall-clock records land in different processes.
        heartbeat = next(e for e in events if e["name"] == "heartbeat")
        assert heartbeat["pid"] != setup["pid"]
        json.dumps(doc)  # the document must be directly serialisable

    def test_chrome_trace_rows_named_by_tenant(self):
        doc = export.to_chrome_trace(self._records())
        thread_names = [
            e["args"]["name"]
            for e in doc["traceEvents"]
            if e["name"] == "thread_name"
        ]
        assert "a/a#1" in thread_names


class TestLifecycleTracing:
    def test_traced_run_result_is_bit_identical(self, small_market, catalog):
        sim, job = make_sim(small_market, catalog)
        baseline = sim.run(job)

        sim_off, _ = make_sim(
            small_market, catalog, observers=(TracingObserver(),)
        )
        assert sim_off.run(job) == baseline  # tracing disabled: no-op hooks

        with tracing():
            sim_on, _ = make_sim(
                small_market, catalog, observers=(TracingObserver(),)
            )
            assert sim_on.run(job) == baseline  # tracing on: observation only

    def test_handover_and_rescale_hooks(self, catalog):
        spot, target = catalog[0], catalog[2]
        decision = RescaleDecision(
            target=target,
            action=RESCALE_SHRINK,
            stay_cost=2.0,
            target_cost=1.0,
            frontier=0.1,
            evaluated_at=60.0,
            reason="frontier collapsed",
        )
        with tracing() as (tracer, metrics):
            observer = TracingObserver(tenant="t")
            observer.on_run_start(0.0)
            observer.on_forced_handover(30.0, spot)
            observer.on_rescale(60.0, spot, decision)
        events = {r.name: r for r in tracer.records() if r.name != "run"}
        assert events["forced-handover"].attr("config") == spot.name
        assert events["rescale"].attr("target") == target.name
        assert events["rescale"].attr("reason") == "frontier collapsed"
        rescales = metrics.get("rescales_total")
        assert rescales.value(tenant="t", reason="frontier collapsed") == 1.0

    def test_disabled_tracing_records_nothing(self, small_market, catalog):
        observer = TracingObserver()
        sim, job = make_sim(small_market, catalog, observers=(observer,))
        sim.run(job)
        assert get_tracer().records() == ()

    def test_run_span_carries_outcome_attrs(self, small_market, catalog):
        with tracing() as (tracer, metrics):
            observer = TracingObserver(job_id="pr", tenant="t0", strategy="hourglass")
            sim, job = make_sim(small_market, catalog, observers=(observer,))
            result = sim.run(job)
        runs = [r for r in tracer.records() if r.name == "run"]
        assert len(runs) == 1
        run = runs[0]
        assert run.parent_id is None
        assert run.attr("job_id") == "pr#1"
        assert run.attr("tenant") == "t0"
        assert run.attr("cost") == pytest.approx(result.cost)
        assert run.attr("deployments") == result.deployments
        assert run.duration == pytest.approx(result.finish_time)
        assert metrics.counter("runs_started_total").value(
            tenant="t0", strategy="hourglass"
        ) == 1

    def test_plan_spans_nest_under_run(self, small_market, catalog):
        with tracing() as (tracer, _metrics):
            sim, job = make_sim(
                small_market, catalog, observers=(TracingObserver(),)
            )
            sim.run(job)
        records = tracer.records()
        run_traces = {r.trace_id for r in records if r.name == "run"}
        plans = [r for r in records if r.name == "plan"]
        decisions = [r for r in records if r.name == "decision"]
        assert plans and decisions
        assert all(p.trace_id in run_traces for p in plans)
        # Simulated-time spans: a plan at decision time t starts at t.
        deploys = [r for r in records if r.name == "setup"]
        assert deploys and all(d.attr("clock") is None for d in deploys)

    def test_decision_latency_metric_populated(self, small_market, catalog):
        with tracing() as (_tracer, metrics):
            sim, job = make_sim(
                small_market, catalog, observers=(TracingObserver(tenant="t"),)
            )
            sim.run(job)
        hist = metrics.get("decision_latency_seconds")
        snap = hist.snapshot(tenant="t", strategy="-")
        assert snap["count"] > 0
        assert snap["sum"] > 0.0


class TestMultiTenantCorrelation:
    @pytest.fixture(scope="class")
    def traced_records(self, small_market, catalog):
        service = PlanningService(small_market)
        specs = []
        for name, profile, period, offset in (
            ("ranks", PAGERANK_PROFILE, 6 * HOURS, 0.0),
            ("paths", SSSP_PROFILE, 4 * HOURS, 1 * HOURS),
        ):
            sim, _job = make_sim(
                small_market,
                catalog,
                observers=(
                    TracingObserver(job_id=name, tenant=name, strategy="hourglass"),
                ),
                service=service,
                profile=profile,
            )
            specs.append(
                RecurringJobSpec(
                    name=name, simulator=sim, profile=profile, period=period,
                    offset=offset,
                )
            )
        with tracing() as (tracer, _metrics):
            outcomes = InterleavedRecurringDriver(specs).run(0.0, 2)
        return tracer.records(), outcomes

    def test_one_stream_one_trace_per_run(self, traced_records):
        records, outcomes = traced_records
        runs = [r for r in records if r.name == "run"]
        total_runs = sum(len(o.results) for o in outcomes.values())
        assert len(runs) == total_runs
        assert len({r.trace_id for r in runs}) == total_runs

    def test_every_plan_attributable_to_a_tenant_run(self, traced_records):
        records, _outcomes = traced_records
        run_by_trace = {r.trace_id: r for r in records if r.name == "run"}
        plans = [r for r in records if r.name == "plan"]
        assert plans
        for plan in plans:
            root = run_by_trace[plan.trace_id]
            assert root.attr("tenant") in ("ranks", "paths")

    def test_tenant_series_are_separate(self, small_market, catalog):
        with tracing() as (_tracer, metrics):
            for tenant in ("a", "b"):
                sim, job = make_sim(
                    small_market,
                    catalog,
                    observers=(TracingObserver(tenant=tenant),),
                )
                sim.run(job)
        counter = metrics.counter("runs_started_total")
        assert counter.value(tenant="a", strategy="-") == 1
        assert counter.value(tenant="b", strategy="-") == 1


class TestEngineCorrelation:
    @pytest.fixture(scope="class")
    def runtime_records(self, small_market, catalog):
        graph = generators.community_graph(
            300, num_communities=6, avg_degree=8, seed=7
        )
        service = PlanningService(small_market)
        runtime = HourglassRuntime(
            graph,
            lambda: PageRank(iterations=6),
            small_market,
            catalog,
            service.provisioner("hourglass"),
            num_micro_parts=16,
            seed=2,
            time_scale=3000.0,
            data_scale=20_000,
        )
        runtime.observers = (
            TracingObserver(job_id="rt", tenant="engine", strategy="hourglass"),
        )
        budget = runtime.perf.fixed_time(runtime.lrc) + runtime.perf.exec_time(
            runtime.lrc
        )
        with tracing() as (tracer, metrics):
            result = runtime.execute(0.0, 2.0 * budget)
        return tracer.records(), metrics, result

    def test_superstep_spans_share_run_correlation_id(self, runtime_records):
        records, _metrics, result = runtime_records
        run_traces = {r.trace_id for r in records if r.name == "run"}
        supersteps = [r for r in records if r.name == "superstep"]
        plans = [r for r in records if r.name == "plan"]
        assert supersteps and plans
        assert {r.trace_id for r in supersteps} <= run_traces
        assert {r.trace_id for r in plans} <= run_traces
        assert len(supersteps) >= result.supersteps

    def test_superstep_spans_on_wall_clock(self, runtime_records):
        records, _metrics, _result = runtime_records
        step = next(r for r in records if r.name == "superstep")
        assert step.attr("clock") == "wall"
        assert step.attr("active") is not None
        assert step.attr("workers") is not None

    def test_datastore_and_checkpoint_records(self, runtime_records):
        records, metrics, _result = runtime_records
        names = {r.name for r in records}
        assert "datastore.put" in names
        assert "checkpoint.save" in names
        puts = [r for r in records if r.name == "datastore.put"]
        written = sum(r.attr("nbytes") for r in puts)
        counter = metrics.counter("datastore_bytes_written_total")
        assert counter.value() == written
        assert metrics.get("checkpoint_bytes").snapshot(job_id="runtime-0")["count"] > 0

    def test_superstep_wall_histogram_populated(self, runtime_records):
        records, metrics, _result = runtime_records
        hist = metrics.get("superstep_wall_seconds")
        assert hist is not None
        workers = next(r for r in records if r.name == "superstep").attr("workers")
        assert hist.snapshot(workers=workers)["count"] > 0


class TestReport:
    def _records(self):
        tracer = Tracer()
        with tracer.span("run", t=0.0, tenant="a", job_id="a#1") as run:
            tracer.record_span("setup", 0.0, 10.0, config="spot4")
            tracer.record_span("checkpoint", 40.0, 52.0, config="spot4")
            run.end(100.0)
        return tracer.records()

    def test_render_trace_report(self):
        rendered = report.render_trace_report(self._records())
        assert "trace 1 — a a#1" in rendered
        assert "span durations:" in rendered
        assert "checkpoint" in rendered

    def test_render_empty(self):
        assert report.render_trace_report([]) == "(empty trace)"

    @pytest.mark.parametrize(
        "durations, p50", [((1.0, 2.0), 1.5), ((1.0, 2.0, 3.0, 4.0), 2.5)]
    )
    def test_span_p50_interpolates(self, durations, p50):
        """The summary's p50 is the load report's and the windows' rule
        (linear interpolation), not a nearest rank rounded half to even."""
        tracer = Tracer()
        for d in durations:
            tracer.record_span("step", 0.0, d)
        header, _rule, row = report.render_span_summary(tracer.records()).splitlines()[1:]
        cells = dict(zip(header.split(), row.split()))
        assert float(cells["p50_s"]) == p50

    def test_max_traces_elides(self):
        tracer = Tracer()
        for i in range(3):
            tracer.span("run", t=0.0, job_id=f"j{i}").end(1.0)
        rendered = report.render_trace_report(tracer.records(), max_traces=1)
        assert "2 more traces elided" in rendered

    def test_cli_report_path(self, tmp_path, capsys):
        from repro.experiments.__main__ import main

        path = export.write_jsonl(self._records(), tmp_path / "run.jsonl")
        assert main(["report", "--trace", str(path)]) == 0
        out = capsys.readouterr().out
        assert "span durations:" in out
        assert "a a#1" in out
