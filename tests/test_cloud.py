"""Tests for the cloud substrate: instances, configurations, traces, market."""

from __future__ import annotations

import numpy as np
import pytest

from repro.cloud import (
    Configuration,
    EmpiricalEvictionModel,
    InstanceType,
    Market,
    PriceTrace,
    R4_2XLARGE,
    R4_4XLARGE,
    R4_8XLARGE,
    R4_FAMILY,
    SpotMarket,
    default_catalog,
    full_grid_catalog,
    generate_trace,
    instance_by_name,
    on_demand_configs,
    transient_configs,
    worker_counts,
)
from repro.utils.units import HOURS
from tests.scalar_oracle import ExponentialEvictionModel


class TestInstanceTypes:
    def test_family_prices_scale_with_size(self):
        assert R4_2XLARGE.on_demand_price < R4_4XLARGE.on_demand_price
        assert R4_4XLARGE.on_demand_price < R4_8XLARGE.on_demand_price

    def test_per_second_price(self):
        assert R4_2XLARGE.on_demand_price_per_second == pytest.approx(
            R4_2XLARGE.on_demand_price / 3600
        )

    def test_mean_spot_price(self):
        assert R4_8XLARGE.mean_spot_price == pytest.approx(
            R4_8XLARGE.on_demand_price * R4_8XLARGE.spot_discount
        )

    def test_lookup_by_name(self):
        assert instance_by_name("r4.4xlarge") is R4_4XLARGE
        with pytest.raises(KeyError):
            instance_by_name("m5.large")

    def test_validation(self):
        with pytest.raises(ValueError):
            InstanceType("x", 0, 1, 1.0)
        with pytest.raises(ValueError):
            InstanceType("x", 1, 1, -1.0)
        with pytest.raises(ValueError):
            InstanceType("x", 1, 1, 1.0, spot_discount=1.5)


class TestConfigurations:
    def test_default_catalog_shapes(self):
        catalog = default_catalog()
        assert len(catalog) == 6
        shapes = {(c.instance_type.name, c.num_workers) for c in catalog}
        assert shapes == {
            ("r4.2xlarge", 16),
            ("r4.4xlarge", 8),
            ("r4.8xlarge", 4),
        }

    def test_equal_vcpus_across_shapes(self):
        assert len({c.total_vcpus for c in default_catalog()}) == 1

    def test_equal_on_demand_rate(self):
        rates = {round(c.on_demand_rate, 6) for c in default_catalog()}
        assert len(rates) == 1

    def test_market_split(self):
        catalog = default_catalog()
        assert len(transient_configs(catalog)) == 3
        assert len(on_demand_configs(catalog)) == 3

    def test_full_grid(self):
        grid = full_grid_catalog()
        assert len(grid) == 18  # 3 types x 3 counts x 2 markets

    def test_worker_counts(self):
        assert worker_counts(default_catalog()) == [4, 8, 16]

    def test_sibling(self):
        spot = transient_configs(default_catalog())[0]
        od = spot.sibling(Market.ON_DEMAND)
        assert od.instance_type == spot.instance_type
        assert not od.is_transient

    def test_name_format(self):
        c = Configuration(R4_8XLARGE, 4, Market.SPOT)
        assert c.name == "4xr4.8xlarge:spot"

    def test_invalid_worker_count(self):
        with pytest.raises(ValueError):
            Configuration(R4_8XLARGE, 0, Market.SPOT)


class TestPriceTrace:
    def make_trace(self):
        return PriceTrace(
            times=np.array([0.0, 10.0, 20.0, 30.0]),
            prices=np.array([1.0, 3.0, 0.5, 2.0]),
        )

    def test_price_at(self):
        trace = self.make_trace()
        assert trace.price_at(0) == 1.0
        assert trace.price_at(9.99) == 1.0
        assert trace.price_at(10) == 3.0
        assert trace.price_at(25) == 0.5

    def test_price_before_start_rejected(self):
        with pytest.raises(ValueError):
            self.make_trace().price_at(-1)

    def test_price_beyond_end_rejected(self):
        with pytest.raises(ValueError):
            self.make_trace().price_at(31)

    def test_next_crossing(self):
        trace = self.make_trace()
        assert trace.next_crossing_above(0, 2.0) == 10.0
        assert trace.next_crossing_above(15, 2.0) == 15.0  # already above
        assert trace.next_crossing_above(20, 2.5) is None

    def test_integrate_within_segment(self):
        trace = self.make_trace()
        # 5 seconds at $1/h.
        assert trace.integrate(0, 5) == pytest.approx(5 / 3600)

    def test_integrate_across_segments(self):
        trace = self.make_trace()
        expected = (10 * 1.0 + 10 * 3.0 + 5 * 0.5) / 3600
        assert trace.integrate(0, 25) == pytest.approx(expected)

    def test_integrate_empty(self):
        assert self.make_trace().integrate(5, 5) == 0.0

    def test_integrate_bad_bounds(self):
        with pytest.raises(ValueError):
            self.make_trace().integrate(5, 4)
        with pytest.raises(ValueError):
            self.make_trace().integrate(0, 100)

    def test_mean_price(self):
        trace = self.make_trace()
        expected = (10 * 1.0 + 10 * 3.0 + 10 * 0.5) / 30
        assert trace.mean_price(0, 30) == pytest.approx(expected)

    def test_validation(self):
        with pytest.raises(ValueError):
            PriceTrace(times=np.array([0.0, 0.0]), prices=np.array([1.0, 2.0]))
        with pytest.raises(ValueError):
            PriceTrace(times=np.array([0.0]), prices=np.array([-1.0]))
        with pytest.raises(ValueError):
            PriceTrace(times=np.array([]), prices=np.array([]))

    def test_uptime_samples(self):
        trace = self.make_trace()
        samples = trace.uptime_samples(2.0, sample_interval=5.0)
        # Starts at 0,5 (price 1<=2) -> evicted at 10; starts at 20,25 ->
        # never evicted (censored at 30).
        assert sorted(samples.tolist()) == [5.0, 5.0, 10.0, 10.0]


class TestTraceGeneration:
    def test_deterministic(self):
        a = generate_trace(R4_2XLARGE, duration=6 * HOURS, seed=5)
        b = generate_trace(R4_2XLARGE, duration=6 * HOURS, seed=5)
        assert np.array_equal(a.prices, b.prices)

    def test_mean_near_discount(self):
        trace = generate_trace(R4_8XLARGE, duration=60 * 24 * HOURS, seed=1)
        mean = trace.mean_price()
        target = R4_8XLARGE.mean_spot_price
        assert 0.7 * target < mean < 2.0 * target

    def test_spikes_cross_on_demand(self):
        trace = generate_trace(R4_2XLARGE, duration=60 * 24 * HOURS, seed=2)
        assert trace.prices.max() > R4_2XLARGE.on_demand_price

    def test_calm_price_below_on_demand(self):
        trace = generate_trace(R4_2XLARGE, duration=30 * 24 * HOURS, seed=3)
        # Most of the time the price sits below on-demand.
        below = np.mean(trace.prices <= R4_2XLARGE.on_demand_price)
        assert below > 0.9

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            generate_trace(R4_2XLARGE, duration=0)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("duration", float("nan")),
            ("duration", float("inf")),
            ("step", float("nan")),
            ("step", float("inf")),
            ("start_time", float("nan")),
            ("start_time", float("-inf")),
        ],
    )
    def test_non_finite_args_rejected_up_front(self, field, value):
        with pytest.raises(ValueError, match=f"{field} must be finite"):
            generate_trace(R4_2XLARGE, **{"duration": 6 * HOURS, field: value})


class TestEvictionModels:
    def test_exponential_cdf(self):
        model = ExponentialEvictionModel(mttf=100.0)
        assert model.cdf(0) == 0.0
        assert model.cdf(100) == pytest.approx(1 - np.exp(-1))
        assert model.mttf == 100.0
        assert model.survival(50) == pytest.approx(1 - model.cdf(50))

    def test_empirical_cdf_monotone(self):
        model = EmpiricalEvictionModel(np.array([10.0, 20.0, 30.0, 40.0]))
        values = [model.cdf(t) for t in (0, 15, 25, 35, 100)]
        assert values == sorted(values)
        assert values[0] == 0.0
        assert values[-1] == 1.0

    def test_empirical_mttf(self):
        model = EmpiricalEvictionModel(np.array([10.0, 30.0]))
        assert model.mttf == 20.0

    def test_quantile(self):
        model = EmpiricalEvictionModel(np.array([10.0, 20.0, 30.0]))
        assert model.quantile(0.5) == 20.0
        with pytest.raises(ValueError):
            model.quantile(1.5)

    def test_deployment_cdf_at_least_single(self):
        model = ExponentialEvictionModel(mttf=1000.0)
        single = model.cdf(100)
        deployment = model.deployment_cdf(100, 8)
        assert deployment >= single

    def test_empty_samples_rejected(self):
        with pytest.raises(ValueError):
            EmpiricalEvictionModel(np.array([]))

    def test_from_trace(self):
        trace = generate_trace(R4_2XLARGE, duration=20 * 24 * HOURS, seed=7)
        model = EmpiricalEvictionModel.from_trace(
            trace, bid=R4_2XLARGE.on_demand_price
        )
        assert model.num_samples > 100
        assert 0.5 * HOURS < model.mttf < 48 * HOURS


class TestSpotMarket:
    def test_synthetic_market_complete(self, small_market):
        for itype in R4_FAMILY:
            assert itype.name in small_market.traces
            stats = small_market.stats_for(itype.name)
            assert stats.mean_spot_price > 0

    def test_on_demand_rate_constant(self, small_market):
        od = on_demand_configs(default_catalog())[0]
        assert small_market.config_rate(od, 0) == od.on_demand_rate
        assert small_market.config_rate(od, 1000) == od.on_demand_rate

    def test_spot_rate_tracks_trace(self, small_market):
        spot = transient_configs(default_catalog())[0]
        trace = small_market.traces[spot.instance_type.name]
        assert small_market.config_rate(spot, 0) == pytest.approx(
            spot.num_workers * trace.price_at(0)
        )

    def test_on_demand_never_evicted(self, small_market):
        od = on_demand_configs(default_catalog())[0]
        assert small_market.eviction_time(od, 0.0) is None

    def test_eviction_iff_price_crossing(self, small_market):
        spot = transient_configs(default_catalog())[0]
        eviction = small_market.eviction_time(spot, 0.0)
        if eviction is not None:
            trace = small_market.traces[spot.instance_type.name]
            bid = spot.instance_type.on_demand_price
            assert trace.price_at(eviction) > bid
            # No earlier crossing.
            assert trace.next_crossing_above(0.0, bid) == eviction

    def test_usable_at(self, small_market):
        spot = transient_configs(default_catalog())[0]
        eviction = small_market.eviction_time(spot, 0.0)
        if eviction is not None and eviction > 0:
            assert small_market.usable_at(spot, 0.0)
            assert not small_market.usable_at(spot, eviction + 1)

    def test_cost_on_demand(self, small_market):
        od = on_demand_configs(default_catalog())[0]
        cost = small_market.cost(od, 0, 2 * HOURS)
        assert cost == pytest.approx(2 * od.on_demand_rate)

    def test_cost_spot_cheaper_than_od(self, small_market):
        spot = transient_configs(default_catalog())[0]
        od = spot.sibling(Market.ON_DEMAND)
        # Find a window where the spot price stays below on-demand.
        t0 = 0.0
        eviction = small_market.eviction_time(spot, t0) or small_market.horizon
        t1 = min(t0 + HOURS, eviction)
        if t1 > t0:
            assert small_market.cost(spot, t0, t1) < small_market.cost(od, t0, t1)

    def test_eviction_model_only_for_spot(self, small_market):
        od = on_demand_configs(default_catalog())[0]
        with pytest.raises(ValueError):
            small_market.eviction_model(od)

    def test_history_and_eval_traces_differ(self, small_market):
        # Historical stats derive from a disjoint trace: the evaluation
        # trace mean should differ from the historical mean slightly.
        spot = transient_configs(default_catalog())[0]
        hist_mean = small_market.stats_for(spot.instance_type.name).mean_spot_price
        eval_mean = small_market.traces[spot.instance_type.name].mean_price()
        assert hist_mean != eval_mean

    def test_missing_trace_rejected(self, small_market):
        with pytest.raises(ValueError):
            SpotMarket(
                traces={},
                stats=small_market._stats,
                instances=small_market.instances,
            )
