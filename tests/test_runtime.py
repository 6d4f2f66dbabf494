"""Tests for the end-to-end runtime (real engine over the spot market)."""

from __future__ import annotations

import math

import pytest

from repro.cloud import default_catalog
from repro.core import (
    HourglassProvisioner,
    OnDemandProvisioner,
    SpotOnProvisioner,
)
from repro.engine import PregelEngine
from repro.engine.algorithms import PageRank
from repro.exec import ExecutionError
from repro.graph import generators
from repro.runtime import HourglassRuntime, MechanisticPerformanceModel
from repro.utils.units import HOURS
from tests import scalar_oracle
from tests.scalar_oracle import ConnectedComponents


@pytest.fixture(scope="module")
def graph():
    return generators.community_graph(1500, num_communities=12, avg_degree=12, seed=4)


@pytest.fixture(scope="module")
def catalog():
    return tuple(default_catalog())


def make_runtime(graph, market, catalog, provisioner, time_scale=3000.0):
    return HourglassRuntime(
        graph,
        lambda: PageRank(iterations=12),
        market,
        catalog,
        provisioner,
        num_micro_parts=32,
        seed=2,
        time_scale=time_scale,
        data_scale=20_000,
    )


class TestMechanisticModel:
    @pytest.fixture(scope="class")
    def model(self, graph, long_market, catalog):
        rt = make_runtime(graph, long_market, catalog, OnDemandProvisioner())
        return rt.perf

    def test_reference_is_fastest(self, model, catalog):
        for config in catalog:
            assert model.exec_time(model.reference) <= model.exec_time(config) + 1e-9

    def test_capacity_normalised(self, model, catalog):
        # omega_c = t_exec(reference) / t_exec(c) peaks at 1, on the reference.
        omegas = [model.exec_time(model.reference) / model.exec_time(c) for c in catalog]
        assert max(omegas) == pytest.approx(1.0)

    def test_time_scale_applied(self, graph, long_market, catalog):
        fast = make_runtime(graph, long_market, catalog, OnDemandProvisioner(), time_scale=1.0)
        slow = make_runtime(graph, long_market, catalog, OnDemandProvisioner(), time_scale=100.0)
        assert slow.perf.exec_time(slow.lrc) == pytest.approx(
            100.0 * fast.perf.exec_time(fast.lrc), rel=1e-6
        )

    def test_work_fraction_monotone(self, model):
        fractions = [model.work_fraction_done(i) for i in range(model.total_supersteps + 2)]
        assert fractions == sorted(fractions)
        assert fractions[0] == 0.0
        assert fractions[model.total_supersteps] == pytest.approx(1.0)

    def test_fixed_time_composition(self, model, catalog):
        c = catalog[0]
        assert model.fixed_time(c) == pytest.approx(
            model.setup_time(c) + model.save_time(c)
        )

    def test_validation(self, graph, model):
        with pytest.raises(ValueError):
            MechanisticPerformanceModel(
                graph=graph,
                calibration=model.calibration,
                reference=model.reference,
                time_scale=0.0,
            )


class TestRuntimeExecution:
    def test_on_demand_run_exact_values(self, graph, long_market, catalog):
        rt = make_runtime(graph, long_market, catalog, OnDemandProvisioner())
        deadline = rt.perf.fixed_time(rt.lrc) + 1.5 * rt.perf.exec_time(rt.lrc)
        result = rt.execute(0.0, deadline)
        assert not result.missed_deadline
        assert result.evictions == 0
        undisturbed = PregelEngine(
            graph, PageRank(iterations=12), rt.artefact.cluster(rt.lrc.num_workers, seed=2)
        ).run()
        for v, value in undisturbed.values.items():
            assert result.values[v] == pytest.approx(value, abs=1e-15)

    def test_hourglass_cheaper_than_on_demand(self, graph, long_market, catalog):
        rt = make_runtime(graph, long_market, catalog, HourglassProvisioner())
        deadline = rt.perf.fixed_time(rt.lrc) + 1.5 * rt.perf.exec_time(rt.lrc)
        hourglass_result = rt.execute(0.0, deadline)
        rt.provisioner = OnDemandProvisioner()
        od_result = rt.execute(0.0, deadline)
        assert not hourglass_result.missed_deadline
        assert hourglass_result.cost < od_result.cost

    def test_eviction_recovery_is_exact(self, graph, long_market, catalog):
        rt = make_runtime(graph, long_market, catalog, SpotOnProvisioner())
        deadline_budget = rt.perf.fixed_time(rt.lrc) + 3.0 * rt.perf.exec_time(rt.lrc)
        undisturbed = PregelEngine(
            graph, PageRank(iterations=12), rt.artefact.cluster(4, seed=2)
        ).run()
        # Sweep starts until a run actually suffers an eviction.
        saw_eviction = False
        for start_hours in range(0, 200, 17):
            result = rt.execute(
                float(start_hours) * HOURS, float(start_hours) * HOURS + deadline_budget
            )
            if result.evictions:
                saw_eviction = True
                for v, value in undisturbed.values.items():
                    assert result.values[v] == pytest.approx(value, abs=1e-15)
                break
        assert saw_eviction, "no eviction found in the sweep; lengthen the trace"

    def test_events_recorded(self, graph, long_market, catalog):
        rt = make_runtime(graph, long_market, catalog, OnDemandProvisioner())
        deadline = rt.perf.fixed_time(rt.lrc) + 1.2 * rt.perf.exec_time(rt.lrc)
        result = rt.execute(0.0, deadline)
        kinds = [e.kind for e in result.events]
        assert kinds[0] == "deploy"
        assert kinds[-1] == "finish"

    def test_bad_deadline(self, graph, long_market, catalog):
        rt = make_runtime(graph, long_market, catalog, OnDemandProvisioner())
        with pytest.raises(ValueError):
            rt.execute(10.0, 10.0)

    @pytest.mark.parametrize(
        "release, deadline, field",
        [
            (math.nan, 10 * HOURS, "release_time"),
            (-math.inf, 10 * HOURS, "release_time"),
            (0.0, math.nan, "deadline"),
            (0.0, math.inf, "deadline"),
        ],
    )
    def test_non_finite_window_rejected(
        self, graph, long_market, catalog, release, deadline, field
    ):
        rt = make_runtime(graph, long_market, catalog, OnDemandProvisioner())
        with pytest.raises(ValueError, match=f"^{field} must be a finite number"):
            rt.execute(release, deadline)

    def test_horizon_guard(self, graph, long_market, catalog):
        rt = make_runtime(graph, long_market, catalog, OnDemandProvisioner())
        with pytest.raises(ExecutionError):
            rt.execute(long_market.horizon - 1.0, long_market.horizon + HOURS)

    def test_transient_only_catalog_rejected(self, graph, long_market, catalog):
        with pytest.raises(ValueError):
            HourglassRuntime(
                graph,
                lambda: PageRank(iterations=3),
                long_market,
                [c for c in catalog if c.is_transient],
                OnDemandProvisioner(),
            )

    def test_data_dependent_program(self, graph, long_market, catalog):
        # ConnectedComponents halts data-dependently; the runtime must
        # still finish and agree with an undisturbed run.
        rt = HourglassRuntime(
            scalar_oracle.ring_of_cliques(20, 8).undirected(),
            ConnectedComponents,
            long_market,
            catalog,
            HourglassProvisioner(),
            num_micro_parts=20,
            seed=3,
            time_scale=5000.0,
        )
        deadline = rt.perf.fixed_time(rt.lrc) + 2.0 * rt.perf.exec_time(rt.lrc)
        result = rt.execute(0.0, deadline)
        assert not result.missed_deadline
        g = scalar_oracle.ring_of_cliques(20, 8).undirected()
        undisturbed = PregelEngine(g, ConnectedComponents()).run()
        assert result.values == undisturbed.values
