"""Tests for the shared execution-lifecycle core (:mod:`repro.exec`).

Covers the unified event/result/error types both front-ends now share,
the billing meter, observer plumbing, and — most importantly — the
simulator-vs-runtime equivalence: driving the lifecycle core with an
engine-free :class:`SuperstepWorkModel` over the calibrated work curve
must reproduce the engine-backed runtime's decision/event sequence
bit for bit on the same trace.
"""

from __future__ import annotations

import pytest

from repro.cloud import default_catalog
from repro.core import (
    PAGERANK_PROFILE,
    ExecutionSimulator,
    HourglassProvisioner,
    OnDemandProvisioner,
    PerformanceModel,
    SpotOnProvisioner,
    job_with_slack,
    last_resort,
    on_demand_baseline_cost,
)
from repro.engine.algorithms import PageRank
from repro.exec import (
    BillingMeter,
    ExecutionError,
    ExecutionLifecycle,
    HorizonError,
    MetricsObserver,
    StepBudgetError,
    SuperstepWorkModel,
)
from repro.graph import generators
from repro.runtime import HourglassRuntime
from repro.utils.units import HOURS


@pytest.fixture(scope="module")
def graph():
    return generators.community_graph(1500, num_communities=12, avg_degree=12, seed=4)


@pytest.fixture(scope="module")
def catalog():
    return tuple(default_catalog())


def make_runtime(graph, market, catalog, provisioner):
    return HourglassRuntime(
        graph,
        lambda: PageRank(iterations=12),
        market,
        catalog,
        provisioner,
        num_micro_parts=32,
        seed=2,
        time_scale=3000.0,
        data_scale=20_000,
    )


def event_key(event):
    return (event.t, event.kind, event.config, event.superstep, event.cost_so_far)


class TestUnifiedTypes:
    def test_error_hierarchy(self):
        assert issubclass(HorizonError, ExecutionError)
        assert issubclass(StepBudgetError, ExecutionError)
        assert issubclass(ExecutionError, RuntimeError)

    def test_runtime_result_backfills_unified_fields(self, graph, long_market, catalog):
        rt = make_runtime(graph, long_market, catalog, OnDemandProvisioner())
        deadline = rt.perf.fixed_time(rt.lrc) + 1.5 * rt.perf.exec_time(rt.lrc)
        result = rt.execute(0.0, deadline)
        # On-demand machine-seconds cover the whole span; none on spot.
        assert result.spot_seconds == 0.0
        assert result.on_demand_seconds > 0.0
        assert result.makespan == pytest.approx(result.finish_time)
        assert result.provisioner_name == "on-demand"
        baseline = 2.0 * result.cost
        assert result.normalized_cost(baseline) == pytest.approx(0.5)
        with pytest.raises(ValueError):
            result.normalized_cost(0.0)

    def test_machine_seconds_split_by_market(self, long_market, catalog):
        lrc = last_resort(
            catalog,
            lambda ref: PerformanceModel(profile=PAGERANK_PROFILE, reference=ref),
        )
        perf = PerformanceModel(profile=PAGERANK_PROFILE, reference=lrc)
        sim = ExecutionSimulator(long_market, perf, catalog, HourglassProvisioner())
        job = job_with_slack(PAGERANK_PROFILE, 0.0, 0.5, perf.fixed_time(lrc))
        result = sim.run(job)
        assert result.spot_seconds + result.on_demand_seconds > 0.0
        spans = {"spot": 0.0, "od": 0.0}
        prev = result.events[0]
        for event in result.events[1:]:
            configs = {c.name: c for c in catalog}
            if prev.config in configs:
                key = "spot" if configs[prev.config].is_transient else "od"
                spans[key] += (event.t - prev.t) * configs[prev.config].num_workers
            prev = event
        assert result.spot_seconds == pytest.approx(spans["spot"])
        assert result.on_demand_seconds == pytest.approx(spans["od"])


class TestBillingMeter:
    def test_accumulates_by_market_segment(self, long_market, catalog):
        meter = BillingMeter(long_market)
        transient = next(c for c in catalog if c.is_transient)
        on_demand = next(c for c in catalog if not c.is_transient)
        meter.bill(transient, 0.0, 100.0)
        meter.bill(on_demand, 100.0, 130.0)
        assert meter.spot_seconds == pytest.approx(100.0 * transient.num_workers)
        assert meter.on_demand_seconds == pytest.approx(30.0 * on_demand.num_workers)
        assert meter.cost == pytest.approx(
            long_market.cost(transient, 0.0, 100.0)
            + long_market.cost(on_demand, 100.0, 130.0)
        )

    def test_empty_span_bills_nothing(self, long_market, catalog):
        meter = BillingMeter(long_market)
        meter.bill(catalog[0], 50.0, 50.0)
        meter.bill(catalog[0], 50.0, 40.0)
        assert meter.cost == 0.0
        assert meter.spot_seconds == 0.0
        assert meter.on_demand_seconds == 0.0


class TestSimulatorRuntimeEquivalence:
    """The engine-free superstep model must replay the runtime exactly.

    :class:`SuperstepWorkModel` advances along the same calibrated
    work curve as the runtime's :class:`MechanisticPerformanceModel`
    (identical per-superstep durations, identical segment
    quantisation), so the lifecycle core must make identical decisions
    and emit an identical event timeline — same times, same costs,
    same superstep counters — without touching a single vertex.
    """

    def run_twin(self, rt, release, deadline):
        lifecycle = ExecutionLifecycle(
            market=rt.market,
            catalog=rt.catalog,
            provisioner=rt.provisioner,
            work_model=SuperstepWorkModel(rt.perf),
            lrc=rt.lrc,
        )
        return lifecycle.run(release, deadline)

    def assert_equivalent(self, engine_result, twin_result):
        assert [event_key(e) for e in engine_result.events] == [
            event_key(e) for e in twin_result.events
        ]
        assert engine_result.cost == twin_result.cost
        assert engine_result.finish_time == twin_result.finish_time
        assert engine_result.evictions == twin_result.evictions
        assert engine_result.deployments == twin_result.deployments
        assert engine_result.checkpoints == twin_result.checkpoints
        assert engine_result.spot_seconds == twin_result.spot_seconds
        assert engine_result.on_demand_seconds == twin_result.on_demand_seconds
        assert engine_result.supersteps == twin_result.supersteps
        # Only the engine carries actual vertex values.
        assert engine_result.values is not None
        assert twin_result.values is None

    def test_on_demand_run_identical(self, graph, long_market, catalog):
        rt = make_runtime(graph, long_market, catalog, OnDemandProvisioner())
        deadline = rt.perf.fixed_time(rt.lrc) + 1.5 * rt.perf.exec_time(rt.lrc)
        self.assert_equivalent(rt.execute(0.0, deadline), self.run_twin(rt, 0.0, deadline))

    def test_eviction_runs_identical(self, graph, long_market, catalog):
        # Sweep starts so the comparison covers runs with real
        # evictions and recoveries, not just the happy path.
        rt = make_runtime(graph, long_market, catalog, SpotOnProvisioner())
        budget = rt.perf.fixed_time(rt.lrc) + 3.0 * rt.perf.exec_time(rt.lrc)
        saw_eviction = False
        for start_hours in range(0, 200, 17):
            release = float(start_hours) * HOURS
            engine_result = rt.execute(release, release + budget)
            twin_result = self.run_twin(rt, release, release + budget)
            self.assert_equivalent(engine_result, twin_result)
            saw_eviction = saw_eviction or engine_result.evictions > 0
        assert saw_eviction, "no eviction found in the sweep; lengthen the trace"

    def test_hourglass_run_identical(self, graph, long_market, catalog):
        rt = make_runtime(graph, long_market, catalog, HourglassProvisioner())
        deadline = rt.perf.fixed_time(rt.lrc) + 1.5 * rt.perf.exec_time(rt.lrc)
        self.assert_equivalent(rt.execute(0.0, deadline), self.run_twin(rt, 0.0, deadline))


class TestMetricsObserver:
    def test_counters_match_result(self, long_market, catalog):
        lrc = last_resort(
            catalog,
            lambda ref: PerformanceModel(profile=PAGERANK_PROFILE, reference=ref),
        )
        perf = PerformanceModel(profile=PAGERANK_PROFILE, reference=lrc)
        metrics = MetricsObserver()
        sim = ExecutionSimulator(
            long_market, perf, catalog, HourglassProvisioner(), observers=[metrics]
        )
        job = job_with_slack(PAGERANK_PROFILE, 0.0, 0.5, perf.fixed_time(lrc))
        result = sim.run(job)
        report = metrics.report()
        assert report["deployments"] == result.deployments
        assert report.get("evictions", 0) == result.evictions
        assert report.get("checkpoints", 0) == result.checkpoints
        assert report["makespan_seconds"] == pytest.approx(result.makespan)
        assert metrics.timeline[0].kind == "deploy"
        assert metrics.timeline[-1].kind == "finish"
        assert "lifecycle metrics:" in metrics.format_report()

    def test_standalone_runtime_reports_decisions(self, graph, long_market, catalog):
        """A zero-arg HourglassProvisioner publishes per-decision telemetry."""

        class Telemetry(MetricsObserver):
            def __init__(self):
                super().__init__()
                self.seen = []

            def on_decision(self, t, telemetry):
                super().on_decision(t, telemetry)
                self.seen.append(telemetry)

        metrics = Telemetry()
        rt = make_runtime(graph, long_market, catalog, HourglassProvisioner())
        rt.observers = (metrics,)
        deadline = rt.perf.fixed_time(rt.lrc) + 1.5 * rt.perf.exec_time(rt.lrc)
        rt.execute(0.0, deadline)
        report = metrics.report()
        assert report["decisions"] > 0
        assert report["decisions"] == len(metrics.seen)
        assert report["decisions"] == report["warm_decisions"] + report["cold_decisions"]
        assert all(tel.latency_s > 0 for tel in metrics.seen)
        assert sum(tel.memo_misses for tel in metrics.seen) == report["memo_misses"] > 0

    def test_observer_leaves_run_unchanged(self, long_market, catalog):
        lrc = last_resort(
            catalog,
            lambda ref: PerformanceModel(profile=PAGERANK_PROFILE, reference=ref),
        )
        perf = PerformanceModel(profile=PAGERANK_PROFILE, reference=lrc)
        job = job_with_slack(PAGERANK_PROFILE, 0.0, 0.5, perf.fixed_time(lrc))
        clean = ExecutionSimulator(
            long_market, perf, catalog, HourglassProvisioner()
        ).run(job)
        observed = ExecutionSimulator(
            long_market, perf, catalog, HourglassProvisioner(),
            observers=[MetricsObserver()],
        ).run(job)
        assert observed == clean

    def test_normalized_cost_against_baseline(self, long_market, catalog):
        lrc = last_resort(
            catalog,
            lambda ref: PerformanceModel(profile=PAGERANK_PROFILE, reference=ref),
        )
        perf = PerformanceModel(profile=PAGERANK_PROFILE, reference=lrc)
        sim = ExecutionSimulator(long_market, perf, catalog, HourglassProvisioner())
        job = job_with_slack(PAGERANK_PROFILE, 0.0, 0.5, perf.fixed_time(lrc))
        result = sim.run(job)
        baseline = on_demand_baseline_cost(perf, lrc)
        assert result.normalized_cost(baseline) == pytest.approx(result.cost / baseline)
