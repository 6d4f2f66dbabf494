"""Vectorized decision-path primitives and the parallel sweep driver.

Covers the batched trace/eviction/market queries against their scalar
counterparts, the ``PriceTrace.slice`` contract (exact coverage, no
zero-width segments, instance-name propagation) and serial/parallel
bit-identity of the sweep driver.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.cloud.eviction import EmpiricalEvictionModel
from repro.cloud.trace import PriceTrace
from repro.core.job import PAGERANK_PROFILE, SSSP_PROFILE
from repro.experiments.common import (
    ExperimentSetup,
    SweepTask,
    parallel_cells,
    run_sweep_tasks,
    sweep_strategy,
)
from repro.utils.units import HOURS
from tests.scalar_oracle import ExponentialEvictionModel


@pytest.fixture(scope="module")
def trace() -> PriceTrace:
    rng = np.random.default_rng(7)
    times = np.concatenate([[0.0], np.cumsum(rng.uniform(60.0, 3600.0, size=200))])
    prices = rng.uniform(0.1, 2.0, size=201)
    return PriceTrace(times=times, prices=prices, instance_name="r4.test")


class TestBatchedTraceQueries:
    def test_price_at_many_matches_scalar(self, trace):
        ts = np.linspace(trace.start, trace.end, 257)
        batched = trace.price_at_many(ts)
        assert batched.tolist() == [trace.price_at(float(t)) for t in ts]

    def test_price_at_many_rejects_beyond_end(self, trace):
        with pytest.raises(ValueError, match="beyond trace end"):
            trace.price_at_many(np.array([trace.start, trace.end + 1.0]))

    def test_integrate_many_matches_scalar(self, trace):
        rng = np.random.default_rng(11)
        t0s = rng.uniform(trace.start, trace.end, size=64)
        t1s = t0s + rng.uniform(0.0, trace.end - t0s)
        batched = trace.integrate_many(t0s, t1s)
        scalar = [trace.integrate(float(a), float(b)) for a, b in zip(t0s, t1s)]
        np.testing.assert_allclose(batched, scalar, rtol=1e-12, atol=1e-15)

    def test_integrate_prefix_sums_match_riemann(self, trace):
        t0, t1 = trace.start + 100.0, trace.end - 100.0
        xs = np.linspace(t0, t1, 200_001)
        riemann = float(np.sum(trace.price_at_many(xs[:-1]) * np.diff(xs))) / HOURS
        assert trace.integrate(t0, t1) == pytest.approx(riemann, rel=1e-4)

    def test_next_crossing_matches_linear_scan(self, trace):
        threshold = float(np.median(trace.prices))
        for t in np.linspace(trace.start, trace.end, 37):
            expected = None
            idx = int(np.searchsorted(trace.times, t, side="right")) - 1
            for j in range(idx, len(trace.prices)):
                if trace.prices[j] > threshold:
                    expected = float(max(t, trace.times[j]))
                    break
            assert trace.next_crossing_above(float(t), threshold) == expected

    def test_uptime_samples_match_scalar_replay(self, trace):
        bid = float(np.quantile(trace.prices, 0.7))
        samples = trace.uptime_samples(bid, sample_interval=1800.0)
        expected = []
        for start in np.arange(trace.start, trace.end, 1800.0):
            if trace.price_at(float(start)) > bid:
                continue
            crossing = trace.next_crossing_above(float(start), bid)
            expected.append((crossing if crossing is not None else trace.end) - start)
        np.testing.assert_allclose(samples, expected)


class TestSlice:
    def test_slice_spans_exactly_and_keeps_name(self, trace):
        t0 = trace.start + 5_000.0
        t1 = trace.end - 5_000.0
        sub = trace.slice(t0, t1)
        assert sub.instance_name == trace.instance_name
        assert sub.start == t0
        assert sub.end == t1
        assert not np.any(np.diff(sub.times) <= 0)

    def test_slice_t1_on_change_point_has_no_zero_width_segment(self, trace):
        t0 = float(trace.times[3]) + 1.0
        t1 = float(trace.times[10])  # exactly a change-point
        sub = trace.slice(t0, t1)
        assert sub.end == t1
        assert not np.any(np.diff(sub.times) <= 0)
        # Right-continuity: the final price is the parent's price AT t1.
        assert sub.price_at(t1) == trace.price_at(t1)

    def test_slice_preserves_prices_and_integrals(self, trace):
        t0, t1 = trace.start + 123.0, trace.start + 50_000.0
        sub = trace.slice(t0, t1)
        ts = np.linspace(t0, t1, 501)
        np.testing.assert_array_equal(sub.price_at_many(ts), trace.price_at_many(ts))
        assert sub.integrate(t0, t1) == pytest.approx(
            trace.integrate(t0, t1), rel=1e-12
        )


class TestBatchedEvictionCdf:
    def test_empirical_cdf_many_matches_scalar(self):
        rng = np.random.default_rng(3)
        model = EmpiricalEvictionModel(rng.exponential(3600.0, size=500))
        us = np.concatenate([[-5.0, 0.0], rng.uniform(0.0, 20_000.0, size=100)])
        batched = model.cdf_many(us)
        assert batched.tolist() == [model.cdf(float(u)) for u in us]

    def test_exponential_cdf_many_matches_scalar(self):
        model = ExponentialEvictionModel(mttf=1800.0)
        us = np.array([-1.0, 0.0, 10.0, 1800.0, 1e6])
        batched = model.cdf_many(us)
        assert batched.tolist() == [model.cdf(float(u)) for u in us]

    def test_empirical_mttf_is_sample_mean(self):
        samples = np.array([10.0, 20.0, 60.0])
        assert EmpiricalEvictionModel(samples).mttf == samples.mean()


class TestMarketRateSnapshot:
    def test_config_rates_matches_scalar(self, small_market):
        setup_catalog = ExperimentSetup(seed=5, trace_days=2).catalog
        t = small_market.start + 3600.0
        rates = small_market.config_rates(setup_catalog, t)
        assert rates.tolist() == [
            small_market.config_rate(c, t) for c in setup_catalog
        ]


class TestParallelSweepDriver:
    @pytest.fixture(scope="class")
    def setup(self) -> ExperimentSetup:
        return ExperimentSetup(seed=7, trace_days=8)

    def test_serial_parallel_bit_identical(self, setup):
        tasks = [
            SweepTask(
                profile=SSSP_PROFILE,
                slack_fraction=0.3,
                strategy="hourglass",
                num_simulations=3,
            ),
            SweepTask(
                profile=SSSP_PROFILE,
                slack_fraction=0.6,
                strategy="spoton+dp",
                num_simulations=3,
            ),
            SweepTask(
                profile=PAGERANK_PROFILE,
                slack_fraction=0.4,
                strategy="proteus",
                num_simulations=2,
                label="ablation-label",
            ),
        ]
        serial = run_sweep_tasks(setup, tasks, max_workers=1)
        parallel = run_sweep_tasks(setup, tasks, max_workers=2)
        assert serial == parallel
        assert parallel[2].strategy == "ablation-label"

    def test_driver_matches_direct_sweep_strategy(self, setup):
        task = SweepTask(
            profile=SSSP_PROFILE,
            slack_fraction=0.5,
            strategy="hourglass",
            num_simulations=3,
        )
        [driven] = run_sweep_tasks(setup, [task], max_workers=1)
        direct = sweep_strategy(
            setup,
            task.profile,
            task.slack_fraction,
            task.strategy,
            num_simulations=task.num_simulations,
        )
        assert driven == direct

    def test_parallel_cells_preserves_item_order(self, setup):
        items = list(range(7))
        assert parallel_cells(setup, _echo_seed_item, items, max_workers=3) == [
            (setup.seed, i) for i in items
        ]


def _echo_seed_item(setup, item):
    return (setup.seed, item)
