"""Tests for the shared execution-lifecycle core (:mod:`repro.exec`).

Covers the unified event/result/error types both front-ends now share,
the billing meter, observer plumbing, and — most importantly — the
simulator-vs-runtime equivalence: driving the lifecycle core with an
engine-free ``SuperstepWorkModel`` (``tests/scalar_oracle.py``) over the
calibrated work curve
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
    LifecycleObserver,
    StepBudgetError,
)
from repro.graph import generators
from repro.runtime import HourglassRuntime
from repro.service import PlanningService
from repro.utils.units import HOURS
from tests.scalar_oracle import SuperstepWorkModel


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
        assert result.release_time == 0.0
        assert result.provisioner_name == "on-demand"

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
    """The run's own account (``RunResult``) and what observers see."""

    def test_makespan_at_a_late_release_without_events(self, long_market, catalog):
        """Makespan is finish minus release, with or without a timeline."""
        lrc = last_resort(
            catalog,
            lambda ref: PerformanceModel(profile=PAGERANK_PROFILE, reference=ref),
        )
        perf = PerformanceModel(profile=PAGERANK_PROFILE, reference=lrc)
        job = job_with_slack(PAGERANK_PROFILE, 40 * HOURS, 0.5, perf.fixed_time(lrc))
        runs = {}
        for record_events in (True, False):
            result = ExecutionSimulator(
                long_market,
                perf,
                catalog,
                HourglassProvisioner(),
                record_events=record_events,
            ).run(job)
            assert result.release_time == 40 * HOURS
            runs[record_events] = result
        assert runs[False].events == ()

        def makespan(result):
            return result.finish_time - result.release_time

        assert makespan(runs[False]) == makespan(runs[True])
        assert makespan(runs[False]) == runs[True].finish_time - runs[True].events[0].t
        assert makespan(runs[False]) == runs[False].finish_time - 40 * HOURS

    def test_standalone_runtime_reports_decisions(self, graph, long_market, catalog):
        """A runtime run's per-decision telemetry reaches the decision hooks
        of the service its HourglassProvisioner plans through."""
        service = PlanningService(long_market)
        seen = []
        service.add_decision_hook(lambda request, result: seen.append(result.telemetry))
        rt = make_runtime(graph, long_market, catalog, HourglassProvisioner(service))
        deadline = rt.perf.fixed_time(rt.lrc) + 1.5 * rt.perf.exec_time(rt.lrc)
        rt.execute(0.0, deadline)
        assert seen
        assert all(tel.latency_s > 0 for tel in seen)
        assert sum(tel.memo_misses for tel in seen) > 0

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
            observers=[LifecycleObserver()],
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
        assert 0.0 < result.cost / baseline < 1.0
