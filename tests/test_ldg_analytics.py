"""Tests for the trace/market analytics."""

from __future__ import annotations

import numpy as np
import pytest

from repro.cloud import (
    R4_2XLARGE,
    R4_FAMILY,
    generate_trace,
    market_report,
    summarize_market,
    summarize_trace,
)
from repro.cloud.trace import PriceTrace
from repro.utils.units import HOURS


class TestTraceAnalytics:
    @pytest.fixture(scope="class")
    def summary(self):
        trace = generate_trace(R4_2XLARGE, duration=20 * 24 * HOURS, seed=11)
        return summarize_trace(trace, R4_2XLARGE)

    def test_discount_in_calibrated_band(self, summary):
        # The generator targets ~70-80% discounts overall.
        assert 0.5 < summary.mean_discount < 0.95

    def test_spike_rate_matches_interval(self, summary):
        # mean_spike_interval = 3.2h -> ~7.5 spikes/day expected.
        assert 3.0 < summary.spike_rate_per_day < 12.0

    def test_spike_duration_near_target(self, summary):
        # mean_spike_duration = 10 min.
        assert 3.0 < summary.mean_spike_minutes < 30.0

    def test_uptime_quantiles_ordered(self, summary):
        assert 0 < summary.uptime_p50_hours <= summary.uptime_p90_hours

    def test_flat_trace_no_spikes(self):
        trace = PriceTrace(
            times=np.arange(5) * 3600.0,
            prices=np.full(5, 0.1),
            instance_name="r4.2xlarge",
        )
        summary = summarize_trace(trace, R4_2XLARGE)
        assert summary.spike_rate_per_day == 0.0
        assert summary.mean_spike_minutes == 0.0

    def test_market_summaries(self, small_market):
        rows = summarize_market(small_market)
        assert {s.instance_name for s in rows} == {t.name for t in R4_FAMILY}
        report = market_report(small_market)
        assert "Spot market characterisation" in report
        assert "r4.8xlarge" in report
