"""Tests for extension modules: trace IO and cost accounting."""

from __future__ import annotations

import numpy as np
import pytest

from repro.cloud import (
    R4_FAMILY,
    generate_trace,
    market_from_csv,
    read_trace_csv,
    write_trace_csv,
)
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
from repro.utils.units import HOURS


class TestTraceCsv:
    def test_roundtrip(self, tmp_path):
        trace = generate_trace(R4_FAMILY[0], duration=6 * HOURS, seed=4)
        path = tmp_path / "trace.csv"
        write_trace_csv(trace, path)
        restored = read_trace_csv(path)
        assert np.allclose(restored.times, trace.times, atol=1e-3)
        assert np.allclose(restored.prices, trace.prices, atol=1e-6)

    def test_unsorted_rows_sorted(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("timestamp,price\n100,2.0\n0,1.0\n50,3.0\n")
        trace = read_trace_csv(path)
        assert trace.times.tolist() == [0.0, 50.0, 100.0]
        assert trace.price_at(60) == 3.0

    def test_duplicate_timestamps_keep_last(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("timestamp,price\n0,1.0\n0,9.0\n10,2.0\n")
        trace = read_trace_csv(path)
        assert trace.price_at(0) == 9.0

    def test_bad_header(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("time,cost\n0,1.0\n")
        with pytest.raises(ValueError):
            read_trace_csv(path)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("")
        with pytest.raises(ValueError):
            read_trace_csv(path)

    @pytest.mark.parametrize(
        "rows",
        [
            "0,1.0\n10,nan\n20,2.0\n",  # NaN price: mean_price() was NaN
            "0,1.0\ninf,2.0\n",  # inf timestamp: mean_price() was NaN
            "0,1.0\nnan,2.0\n10,3.0\n",  # NaN timestamp: passed the order check
        ],
        ids=["nan-price", "inf-time", "nan-time"],
    )
    def test_non_finite_rows_rejected(self, tmp_path, rows):
        path = tmp_path / "t.csv"
        path.write_text("timestamp,price\n" + rows)
        with pytest.raises(ValueError, match="finite"):
            read_trace_csv(path)

    def test_market_from_csv(self, tmp_path):
        paths = {}
        for itype in R4_FAMILY:
            trace = generate_trace(itype, duration=12 * HOURS, seed=7)
            path = tmp_path / f"{itype.name}.csv"
            write_trace_csv(trace, path)
            paths[itype.name] = path
        market = market_from_csv(list(R4_FAMILY), paths)
        assert market.spot_price(R4_FAMILY[0].name, 0.0) > 0
        stats = market.stats_for(R4_FAMILY[0].name)
        assert stats.mean_spot_price > 0

    def test_market_from_csv_missing_trace(self, tmp_path):
        with pytest.raises(ValueError):
            market_from_csv(list(R4_FAMILY), {})


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
        assert bd.dominant_config() is not None

    def test_requires_events(self, long_market):
        result = self.make_result(long_market)
        stripped = result.__class__(**{**result.__dict__, "events": ()})
        with pytest.raises(ValueError):
            breakdown(stripped)

    def test_format(self, long_market):
        text = format_breakdown(breakdown(self.make_result(long_market)))
        assert "productive" in text and "total" in text
