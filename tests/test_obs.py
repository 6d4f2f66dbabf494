"""The metrics primitives of :mod:`repro.obs`: labeled counter, gauge
and histogram series, and the Prometheus text the registry renders,
read back by :func:`tools.prometheus.parse_prometheus`."""

from __future__ import annotations

import pytest

from repro.obs import MetricsRegistry
from tools import prometheus
from tools.prometheus import sample


class TestMetrics:
    def test_counter_labeled_series(self):
        registry = MetricsRegistry()
        counter = registry.counter("evictions_total", "help text")
        counter.inc(1, tenant="a")
        counter.inc(2, tenant="a")
        counter.inc(5, tenant="b")
        assert sample(registry, "evictions_total", tenant="a") == 3
        assert sample(registry, "evictions_total", tenant="b") == 5
        assert sample(registry, "evictions_total", tenant="c") == 0
        with pytest.raises(ValueError):
            counter.inc(-1)

    def test_gauge_set_and_inc(self):
        registry = MetricsRegistry()
        gauge = registry.gauge("depth")
        gauge.set(4.0, queue="q")
        gauge.set(2.5, queue="q")
        gauge.set(1.0, queue="r")
        # The last write per label set wins.
        assert sample(registry, "depth", queue="q") == 2.5
        assert sample(registry, "depth", queue="r") == 1.0

    def test_histogram_cumulative_buckets(self):
        registry = MetricsRegistry()
        hist = registry.histogram("lat", buckets=(0.1, 1.0, 10.0))
        for value in (0.05, 0.5, 0.5, 5.0, 50.0):
            hist.observe(value)
        buckets = {le: sample(registry, "lat_bucket", le=le) for le in ("0.1", "1", "10", "+Inf")}
        assert buckets == {"0.1": 1, "1": 3, "10": 4, "+Inf": 5}
        assert sample(registry, "lat_count") == 5
        assert sample(registry, "lat_sum") == pytest.approx(56.05)

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
        samples = prometheus.parse_prometheus(registry.to_prometheus())
        assert samples[("runs_total", (("tenant", "a b"),))] == 3
        assert samples[("depth", ())] == 1.5
        assert samples[("lat_bucket", (("le", "1"), ("op", "put")))] == 1
        assert samples[("lat_bucket", (("le", "+Inf"), ("op", "put")))] == 1
        assert samples[("lat_sum", (("op", "put"),))] == 0.5
        assert samples[("lat_count", (("op", "put"),))] == 1

    def test_parse_prometheus_rejects_malformed(self):
        with pytest.raises(ValueError, match="no # TYPE"):
            prometheus.parse_prometheus("orphan_metric 1\n")
        with pytest.raises(ValueError, match="malformed value"):
            prometheus.parse_prometheus("# TYPE m counter\nm not-a-number\n")
        with pytest.raises(ValueError, match="unquoted label"):
            prometheus.parse_prometheus('# TYPE m counter\nm{k=v} 1\n')
