"""The metrics primitives of :mod:`repro.obs`: labeled counter, gauge
and histogram series, and the Prometheus text the registry renders,
read back by :func:`repro.obs.export.parse_prometheus`."""

from __future__ import annotations

import pytest

from repro.obs import MetricsRegistry, export


class TestMetrics:
    def test_counter_labeled_series(self):
        registry = MetricsRegistry()
        counter = registry.counter("evictions_total", "help text")
        counter.inc(1, tenant="a")
        counter.inc(2, tenant="a")
        counter.inc(5, tenant="b")
        assert counter.value(tenant="a") == 3
        assert counter.value(tenant="b") == 5
        assert counter.value(tenant="c") == 0
        with pytest.raises(ValueError):
            counter.inc(-1)

    def test_gauge_set_and_inc(self):
        gauge = MetricsRegistry().gauge("depth")
        gauge.set(4.0, queue="q")
        gauge.inc(-1.5, queue="q")
        assert gauge.value(queue="q") == pytest.approx(2.5)

    def test_histogram_cumulative_buckets(self):
        hist = MetricsRegistry().histogram("lat", buckets=(0.1, 1.0, 10.0))
        for value in (0.05, 0.5, 0.5, 5.0, 50.0):
            hist.observe(value)
        snap = hist.snapshot()
        assert snap["buckets"] == {0.1: 1, 1.0: 3, 10.0: 4}
        assert snap["count"] == 5
        assert snap["sum"] == pytest.approx(56.05)

    def test_registry_rejects_type_conflicts(self):
        registry = MetricsRegistry()
        registry.counter("x")
        with pytest.raises(TypeError, match="already registered"):
            registry.gauge("x")

    def test_prometheus_round_trip(self):
        registry = MetricsRegistry()
        registry.counter("runs_total", "Runs").inc(3, tenant="a b")
        registry.gauge("depth", "Depth").set(1.5)
        registry.histogram("lat", "Latency", buckets=(1.0,)).observe(0.5, op="put")
        samples = export.parse_prometheus(registry.to_prometheus())
        assert samples[("runs_total", (("tenant", "a b"),))] == 3
        assert samples[("depth", ())] == 1.5
        assert samples[("lat_bucket", (("le", "1"), ("op", "put")))] == 1
        assert samples[("lat_bucket", (("le", "+Inf"), ("op", "put")))] == 1
        assert samples[("lat_sum", (("op", "put"),))] == 0.5
        assert samples[("lat_count", (("op", "put"),))] == 1

    def test_parse_prometheus_rejects_malformed(self):
        with pytest.raises(ValueError, match="no # TYPE"):
            export.parse_prometheus("orphan_metric 1\n")
        with pytest.raises(ValueError, match="malformed value"):
            export.parse_prometheus("# TYPE m counter\nm not-a-number\n")
        with pytest.raises(ValueError, match="unquoted label"):
            export.parse_prometheus('# TYPE m counter\nm{k=v} 1\n')
