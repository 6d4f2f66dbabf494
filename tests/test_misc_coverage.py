"""Edge-case tests for paths not covered by the main suites."""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.cloud import (
    Market,
    PriceTrace,
    R4_2XLARGE,
    default_catalog,
    transient_configs,
)
from repro.core import (
    COLORING_PROFILE,
    PAGERANK_PROFILE,
    HourglassProvisioner,
    PerformanceModel,
    ProvisioningContext,
    SlackModel,
    last_resort,
)
from repro.utils.table import format_table
from repro.graph import from_edges
from tests import scalar_oracle
from tests.scalar_oracle import ComputeContext, ScalarEngine, ScalarProgram


class TestComputeContext:
    def test_send_to_neighbors_collects_all(self):
        ctx = ComputeContext()
        ctx._out_edges = np.array([3, 5, 7])
        ctx._outbox = []
        ctx.send_to_neighbors("m")
        assert ctx._outbox == [(3, "m"), (5, "m"), (7, "m")]

    def test_out_degree(self):
        ctx = ComputeContext()
        ctx._out_edges = np.array([1, 2])
        assert ctx.out_degree == 2

    def test_vote_to_halt_sets_flag(self):
        ctx = ComputeContext()
        assert not ctx._halted
        ctx.vote_to_halt()
        assert ctx._halted

    def test_aggregated_missing_returns_none(self):
        ctx = ComputeContext()
        ctx._prev_aggregates = {}
        assert ctx.aggregated("nope") is None

    def test_default_initial_activity(self):
        class Probe(ScalarProgram):
            def initial_value(self, vertex_id, num_vertices):
                return None

            def compute(self, ctx, messages):
                ctx.vote_to_halt()

        engine = ScalarEngine(from_edges([0], [1], num_vertices=2), Probe())
        assert not engine._halted.any()  # every vertex starts active
        assert Probe().aggregators() == {}


class TestPriceTraceSlice:
    def test_slice_preserves_prices(self):
        trace = PriceTrace(
            times=np.array([0.0, 10.0, 20.0, 30.0]),
            prices=np.array([1.0, 2.0, 3.0, 4.0]),
            instance_name="x",
        )
        sub = trace.slice(5.0, 25.0)
        assert sub.start == 5.0
        assert sub.price_at(5.0) == 1.0
        assert sub.price_at(12.0) == 2.0
        assert sub.instance_name == "x"

    def test_slice_bad_bounds(self):
        trace = PriceTrace(times=np.array([0.0, 10.0]), prices=np.array([1.0, 2.0]))
        with pytest.raises(ValueError):
            trace.slice(5.0, 5.0)
        with pytest.raises(ValueError):
            trace.slice(-1.0, 5.0)


class TestConfigurationCosmetics:
    def test_str_is_name(self):
        config = transient_configs(default_catalog())[0]
        assert str(config) == config.name

    def test_sibling_roundtrip(self):
        config = transient_configs(default_catalog())[0]
        assert config.sibling(Market.ON_DEMAND).sibling(Market.SPOT) == config


class TestDeploymentCdf:
    def test_more_machines_riskier(self):
        model = scalar_oracle.ExponentialEvictionModel(mttf=3600.0)
        one = model.deployment_cdf(600, 1)
        many = model.deployment_cdf(600, 16)
        assert many > one
        with pytest.raises(ValueError):
            model.deployment_cdf(600, 0)


class TestHourglassSegmentLimit:
    def test_limit_infinite_without_config(self, long_market):
        catalog = tuple(default_catalog())
        lrc = last_resort(
            catalog, lambda ref: PerformanceModel(profile=PAGERANK_PROFILE, reference=ref)
        )
        perf = PerformanceModel(profile=PAGERANK_PROFILE, reference=lrc)
        sm = SlackModel(perf=perf, lrc=lrc, deadline=10_000.0)
        ctx = ProvisioningContext(
            t=0.0,
            work_left=1.0,
            current_config=None,
            current_uptime=0.0,
            slack_model=sm,
            market=long_market,
            catalog=catalog,
        )
        assert HourglassProvisioner().segment_limit(ctx) == math.inf

    def test_limit_infinite_on_demand(self, long_market):
        catalog = tuple(default_catalog())
        lrc = last_resort(
            catalog, lambda ref: PerformanceModel(profile=PAGERANK_PROFILE, reference=ref)
        )
        perf = PerformanceModel(profile=PAGERANK_PROFILE, reference=lrc)
        sm = SlackModel(perf=perf, lrc=lrc, deadline=10_000.0)
        ctx = ProvisioningContext(
            t=0.0,
            work_left=1.0,
            current_config=lrc,
            current_uptime=100.0,
            slack_model=sm,
            market=long_market,
            catalog=catalog,
        )
        assert HourglassProvisioner().segment_limit(ctx) == math.inf

    def test_limit_finite_on_spot(self, long_market):
        catalog = tuple(default_catalog())
        lrc = last_resort(
            catalog, lambda ref: PerformanceModel(profile=COLORING_PROFILE, reference=ref)
        )
        perf = PerformanceModel(profile=COLORING_PROFILE, reference=lrc)
        spot = transient_configs(catalog)[0]
        deadline = perf.fixed_time(lrc) + 1.5 * perf.exec_time(lrc)
        sm = SlackModel(perf=perf, lrc=lrc, deadline=deadline)
        ctx = ProvisioningContext(
            t=0.0,
            work_left=1.0,
            current_config=spot,
            current_uptime=0.0,
            slack_model=sm,
            market=long_market,
            catalog=catalog,
        )
        limit = HourglassProvisioner().segment_limit(ctx)
        assert limit == pytest.approx(ctx.slack - perf.save_time(spot))


class TestReportEdgeCases:
    def test_large_numbers_formatted(self):
        text = format_table([{"n": 1_234_567}])
        assert "1,234,567" in text

    def test_mixed_types(self):
        text = format_table([{"a": 0, "b": 0.00012, "c": None}])
        assert "0" in text

    def test_column_subset(self):
        text = format_table([{"a": 1, "b": 2}], columns=["b"])
        assert "a" not in text.splitlines()[0]


class TestGraphCosmetics:
    def test_repr_contains_counts(self):
        g = scalar_oracle.path_graph(5)
        text = repr(g)
        assert "4" in text and "5" in text

    def test_weighted_repr(self):
        g = from_edges([0], [1], weights=[2.0])
        assert "weighted" in repr(g)
