"""Tests for the cost-accounting extension module."""

from __future__ import annotations

import pytest

from repro.core import (
    ExecutionSimulator,
    HourglassProvisioner,
    PAGERANK_PROFILE,
    PerformanceModel,
    breakdown,
    format_breakdown,
    job_with_slack,
    last_resort,
)
from repro.cloud import default_catalog


class TestAccounting:
    def make_result(self, market):
        catalog = tuple(default_catalog())
        lrc = last_resort(
            catalog,
            lambda ref: PerformanceModel(profile=PAGERANK_PROFILE, reference=ref),
        )
        perf = PerformanceModel(profile=PAGERANK_PROFILE, reference=lrc)
        sim = ExecutionSimulator(market, perf, catalog, HourglassProvisioner())
        job = job_with_slack(PAGERANK_PROFILE, 0.0, 0.8, perf.fixed_time(lrc))
        return sim.run(job)

    def test_breakdown_sums_to_total(self, long_market):
        result = self.make_result(long_market)
        bd = breakdown(result)
        total = bd.phases.productive + bd.phases.setup + bd.phases.doomed
        assert total == pytest.approx(result.cost, rel=1e-6)
        assert sum(bd.by_config.values()) == pytest.approx(result.cost, rel=1e-6)

    def test_fractions(self, long_market):
        bd = breakdown(self.make_result(long_market))
        assert 0 <= bd.phases.fraction("productive") <= 1
        assert max(bd.by_config.values()) > 0

    def test_requires_events(self, long_market):
        result = self.make_result(long_market)
        stripped = result.__class__(**{**result.__dict__, "events": ()})
        with pytest.raises(ValueError):
            breakdown(stripped)

    def test_format(self, long_market):
        text = format_breakdown(breakdown(self.make_result(long_market)))
        assert "productive" in text and "total" in text
