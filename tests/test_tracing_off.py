"""Tracing off is free: with the disabled tracer installed, the hot paths
read ``tracer.enabled`` and nothing else.

Every instrumentation site guards with ``if tracer.enabled:``; that one
attribute read and branch is the whole cost of observability when it is
off.  This pins the rule structurally instead of by timing: a disabled
tracer that records every other attribute read is installed through
:func:`repro.obs.state.enable`, the hot paths run under it, and the
record must stay empty.
"""

from __future__ import annotations

import pytest

from repro.core.job import PAGERANK_PROFILE, job_with_slack
from repro.core.simulator import ExecutionSimulator
from repro.core.slack import SlackModel
from repro.engine import CheckpointManager, DataStore, PregelEngine
from repro.engine.algorithms import PageRank
from repro.experiments import ExperimentSetup
from repro.graph import generators
from repro.load.harness import HarnessConfig, LoadHarness
from repro.load.trace import LoadTraceConfig, generate_trace
from repro.obs import state as obs_state
from repro.obs.metrics import MetricsRegistry
from repro.obs.observer import TracingObserver
from repro.obs.trace import NullTracer
from repro.service.planning import PlanningService, PlanRequest
from repro.utils.units import HOURS


class ReadRecordingTracer(NullTracer):
    """A disabled tracer that records every attribute read but ``enabled``."""

    def __init__(self):
        object.__setattr__(self, "reads", [])

    def __getattribute__(self, name):
        if name not in ("enabled", "reads"):
            object.__getattribute__(self, "reads").append(name)
        return object.__getattribute__(self, name)


@pytest.fixture
def tracer():
    recorder = ReadRecordingTracer()
    obs_state.enable(recorder)
    try:
        yield recorder
    finally:
        obs_state.disable()


@pytest.fixture(scope="module")
def setup():
    return ExperimentSetup(seed=42, trace_days=10)


def test_the_recorder_sees_a_guarded_read():
    recorder = ReadRecordingTracer()
    assert not recorder.enabled and recorder.reads == []
    recorder.span("x")
    assert recorder.reads[0] == "span"


def test_load_harness_with_recurring_tenants(tracer):
    trace_config = LoadTraceConfig(seed=42, num_jobs=30, num_tenants=4)
    config = HarnessConfig(
        trace=trace_config, trace_days=10, recurring_tenants=2, recurring_periods=2
    )
    report = LoadHarness(config, metrics=MetricsRegistry()).run(generate_trace(trace_config))
    assert report.executed > 0
    assert tracer.reads == []


def test_engine_checkpoints_and_datastore(tracer):
    graph = generators.community_graph(400, num_communities=8, avg_degree=8, seed=7)
    assert PregelEngine(graph, PageRank(iterations=5)).run().supersteps_run > 0

    store = DataStore()
    manager = CheckpointManager(store, "off", delta=True, full_interval=8)
    engine = PregelEngine(graph, PageRank(iterations=5))
    engine.step()
    assert manager.save(engine).kind == "full"
    engine.step()
    delta = manager.save(engine)
    assert delta.kind == "delta"
    restored = PregelEngine(graph, PageRank(iterations=5))
    manager.load_into(restored, delta)
    assert restored.superstep == engine.superstep

    store.put_object("blob", {"x": 1})
    assert store.get_object_timed("blob")[0] == {"x": 1}
    assert tracer.reads == []


def test_planning_under_a_tracing_observer(tracer, setup):
    service = PlanningService(setup.market)
    perf = setup.perf_model(PAGERANK_PROFILE)
    simulator = ExecutionSimulator(
        setup.market,
        perf,
        setup.catalog,
        "hourglass",
        service=service,
        observers=(TracingObserver(job_id="off", tenant="t", strategy="hourglass"),),
    )
    lrc = setup.lrc(perf)
    for start in (2 * HOURS, 30 * HOURS):
        job = job_with_slack(PAGERANK_PROFILE, start, 0.5, perf.fixed_time(lrc))
        simulator.run(job)
        slack_model = SlackModel(perf=perf, lrc=lrc, deadline=job.deadline)
        requests = [
            PlanRequest(slack_model=slack_model, catalog=setup.catalog, t=start + dt)
            for dt in (0.0, 600.0)
        ]
        service.plan(requests[0])
        service.plan_many(requests)
    assert tracer.reads == []
