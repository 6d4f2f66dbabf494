"""Live-operations layer: windows, SLOs, attribution, ops endpoint.

Covers the streaming side of :mod:`repro.obs`:

* histogram quantile estimation (shared by windows, panel and ``/slo``);
* Prometheus exposition round-trips with hostile label values, and the
  registry under concurrent writers and mid-scrape resets;
* :class:`~repro.obs.window.WindowedAggregator` windowed reads;
* :class:`~repro.obs.slo.SloMonitor` burn-rate transitions;
* :class:`~repro.obs.attribution.CostLedger`, plus a real lifecycle
  run metered through the ``on_bill`` hook into ``TracingObserver``'s
  ``billed_*`` series;
* :class:`~repro.obs.server.OpsServer` endpoints over HTTP;
* the harness's ``load_*`` publication: every series equals its report
  field, moves at event time, and a ledger never perturbs the
  fingerprint; a seeded run's tenant table is frozen byte for byte.
"""

from __future__ import annotations

import hashlib
import io
import json
import threading
import time
import urllib.request
from types import SimpleNamespace

import pytest

from repro.cloud import default_catalog, transient_configs
from repro.core import (
    PAGERANK_PROFILE,
    ExecutionSimulator,
    PerformanceModel,
    job_with_slack,
    last_resort,
)
from repro.core.provisioner import Provisioner
from repro.exec import EvictionStormFaults
from repro.load.harness import HarnessConfig, LoadHarness
from repro.load.trace import LoadTraceConfig, generate_trace
from repro.load.watch import WatchLoop, render_panel
from repro.obs.attribution import CostLedger
from repro.obs.export import parse_prometheus
from repro.obs.metrics import MetricsRegistry, estimate_quantile
from repro.obs.observer import TracingObserver
from repro.obs.server import OpsServer
from repro.obs.slo import BurnRateRule, SloMonitor, SloObjective, default_slos
from repro.obs.state import tracing
from repro.obs.window import (
    SamplerThread,
    WindowConfig,
    WindowedAggregator,
)


class FakeClock:
    """Deterministic monotonic source for window tests."""

    def __init__(self, t: float = 0.0):
        self.t = t

    def __call__(self) -> float:
        return self.t


# ----------------------------------------------------------------------
# Quantile estimation
# ----------------------------------------------------------------------
class TestEstimateQuantile:
    def test_empty_series_is_zero(self):
        assert estimate_quantile({"buckets": {1.0: 0}, "sum": 0.0, "count": 0}, 0.9) == 0.0

    def test_q_out_of_range_raises(self):
        snap = {"buckets": {1.0: 1}, "sum": 0.5, "count": 1}
        with pytest.raises(ValueError):
            estimate_quantile(snap, -0.1)
        with pytest.raises(ValueError):
            estimate_quantile(snap, 1.5)

    def test_linear_interpolation_inside_bucket(self):
        # 10 observations: 5 land in (0, 1], 5 in (1, 2].
        snap = {"buckets": {1.0: 5, 2.0: 10}, "sum": 0.0, "count": 10}
        assert estimate_quantile(snap, 0.5) == pytest.approx(1.0)
        # Rank 2.5 of 5 in the first bucket: halfway up from 0.
        assert estimate_quantile(snap, 0.25) == pytest.approx(0.5)
        assert estimate_quantile(snap, 1.0) == pytest.approx(2.0)

    def test_inf_bucket_clamps_to_highest_bound(self):
        # Every observation above the largest finite bound.
        snap = {"buckets": {1.0: 0, 2.0: 0}, "sum": 500.0, "count": 5}
        assert estimate_quantile(snap, 0.99) == pytest.approx(2.0)

    def test_histogram_method_matches_module_function(self):
        registry = MetricsRegistry()
        hist = registry.histogram("h", "", buckets=(0.1, 1.0, 10.0))
        for v in (0.05, 0.5, 0.7, 5.0):
            hist.observe(v, tenant="a")
        assert hist.estimate_quantile(0.5, tenant="a") == pytest.approx(
            estimate_quantile(hist.snapshot(tenant="a"), 0.5)
        )
        # Unseen label set reads as empty, not KeyError.
        assert hist.estimate_quantile(0.5, tenant="nobody") == 0.0


# ----------------------------------------------------------------------
# Exposition round-trip and registry concurrency
# ----------------------------------------------------------------------
class TestExpositionRoundTrip:
    def test_hostile_label_values_round_trip(self):
        registry = MetricsRegistry()
        counter = registry.counter("jobs_total", "help with \\ and\nnewline")
        hostile = [
            'quote " inside',
            "back\\slash",
            "new\nline",
            "literal\\nsequence",  # backslash + n, NOT a newline
            "trailing\\",
        ]
        for i, value in enumerate(hostile):
            counter.inc(i + 1, tenant=value)
        parsed = parse_prometheus(registry.to_prometheus())
        for i, value in enumerate(hostile):
            assert parsed[("jobs_total", (("tenant", value),))] == i + 1

    def test_histogram_sum_count_have_type_lines(self):
        registry = MetricsRegistry()
        registry.histogram("lat_seconds", "latency").observe(0.5)
        text = registry.to_prometheus()
        assert "# TYPE lat_seconds histogram" in text
        assert "# TYPE lat_seconds_sum counter" in text
        assert "# TYPE lat_seconds_count counter" in text
        parsed = parse_prometheus(text)
        assert parsed[("lat_seconds_count", ())] == 1
        assert parsed[("lat_seconds_bucket", (("le", "+Inf"),))] == 1

    def test_every_series_kind_round_trips(self):
        registry = MetricsRegistry()
        registry.counter("c_total").inc(2.5, a="x")
        registry.gauge("g").set(-3.25)
        registry.histogram("h_seconds", buckets=(1.0,)).observe(0.5, a="x")
        parsed = parse_prometheus(registry.to_prometheus())
        assert parsed[("c_total", (("a", "x"),))] == 2.5
        assert parsed[("g", ())] == -3.25
        assert parsed[("h_seconds_bucket", (("a", "x"), ("le", "1")))] == 1


class TestConcurrentRegistry:
    THREADS = 8
    INCS = 4000

    def test_no_lost_increments_while_scraping(self):
        registry = MetricsRegistry()
        start = threading.Barrier(self.THREADS + 1)

        def hammer(tag: str):
            counter = registry.counter("hits_total")
            hist = registry.histogram("lat_seconds", buckets=(0.01, 1.0))
            start.wait()
            for i in range(self.INCS):
                counter.inc(1, worker=tag)
                counter.inc(1, worker="shared")
                hist.observe(0.001 * (i % 7), worker=tag)

        threads = [
            threading.Thread(target=hammer, args=(f"w{n}",), daemon=True)
            for n in range(self.THREADS)
        ]
        for t in threads:
            t.start()
        start.wait()
        # Scrape concurrently with the writers: every exposition must
        # parse, whatever instant it lands on.
        while any(t.is_alive() for t in threads):
            parse_prometheus(registry.to_prometheus())
        for t in threads:
            t.join()

        counter = registry.counter("hits_total")
        assert counter.value(worker="shared") == self.THREADS * self.INCS
        for n in range(self.THREADS):
            assert counter.value(worker=f"w{n}") == self.INCS
        parsed = parse_prometheus(registry.to_prometheus())
        assert parsed[("hits_total", (("worker", "shared"),))] == (
            self.THREADS * self.INCS
        )
        assert parsed[("lat_seconds_count", (("worker", "w0"),))] == self.INCS

    def test_reset_mid_scrape_never_tears(self):
        registry = MetricsRegistry()
        stop = threading.Event()

        def hammer():
            while not stop.is_set():
                # Re-fetch each pass so the get-or-create path races the
                # resets below, like a live harness would.
                registry.counter("hits_total").inc(1, worker="w")
                registry.histogram("lat_seconds").observe(0.01)

        thread = threading.Thread(target=hammer, daemon=True)
        thread.start()
        try:
            for _ in range(200):
                parse_prometheus(registry.to_prometheus())
                registry.reset()
        finally:
            stop.set()
            thread.join()
        parse_prometheus(registry.to_prometheus())


# ----------------------------------------------------------------------
# Windowed aggregation
# ----------------------------------------------------------------------
class TestWindowConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            WindowConfig(windows=())
        with pytest.raises(ValueError):
            WindowConfig(windows=(60.0, 10.0))
        with pytest.raises(ValueError):
            WindowConfig(interval=0.0)
        with pytest.raises(ValueError):
            WindowConfig(capacity=1)

    def test_auto_capacity_spans_longest_window(self):
        config = WindowConfig(windows=(10.0, 300.0), interval=1.0)
        assert config.capacity >= 300


class TestWindowedAggregator:
    def _agg(self, registry, clock):
        return WindowedAggregator(
            registry, WindowConfig(windows=(10.0, 60.0), interval=1.0), clock=clock
        )

    def test_needs_two_samples(self):
        registry = MetricsRegistry()
        agg = self._agg(registry, FakeClock())
        assert agg.delta("x_total", 10.0) == 0.0
        assert agg.rate("x_total", 10.0) == 0.0
        assert agg.quantile("h", 0.5, 10.0) == 0.0
        agg.sample()
        assert agg.rate("x_total", 10.0) == 0.0

    def test_delta_rate_and_label_subset(self):
        registry = MetricsRegistry()
        clock = FakeClock()
        agg = self._agg(registry, clock)
        counter = registry.counter("runs_total")
        counter.inc(5, outcome="met", tenant="a")
        agg.sample()
        counter.inc(10, outcome="met", tenant="a")
        counter.inc(3, outcome="missed", tenant="a")
        clock.t = 10.0
        agg.sample()
        assert agg.delta("runs_total", 10.0) == pytest.approx(13.0)
        assert agg.delta("runs_total", 10.0, {"outcome": "met"}) == pytest.approx(10.0)
        assert agg.rate("runs_total", 10.0, {"outcome": "missed"}) == pytest.approx(0.3)
        assert agg.value("runs_total", {"outcome": "met"}) == pytest.approx(15.0)

    def test_window_clamps_to_oldest_sample(self):
        registry = MetricsRegistry()
        clock = FakeClock()
        agg = self._agg(registry, clock)
        counter = registry.counter("x_total")
        agg.sample()
        counter.inc(7)
        clock.t = 3.0
        agg.sample()
        # 60 s window with only 3 s of history: use what the ring has.
        assert agg.delta("x_total", 60.0) == pytest.approx(7.0)
        assert agg.rate("x_total", 60.0) == pytest.approx(7.0 / 3.0)

    def test_registry_reset_reads_as_idle_not_negative(self):
        registry = MetricsRegistry()
        clock = FakeClock()
        agg = self._agg(registry, clock)
        registry.counter("x_total").inc(100)
        agg.sample()
        registry.reset()
        registry.counter("x_total").inc(5)
        clock.t = 5.0
        agg.sample()
        assert agg.delta("x_total", 10.0) == 0.0
        assert agg.rate("x_total", 10.0) == 0.0

    def test_ratio(self):
        registry = MetricsRegistry()
        clock = FakeClock()
        agg = self._agg(registry, clock)
        counter = registry.counter("runs_total")
        agg.sample()
        counter.inc(9, outcome="met")
        counter.inc(1, outcome="missed")
        clock.t = 10.0
        agg.sample()
        miss = agg.ratio(
            "runs_total", "runs_total", 10.0, bad_labels={"outcome": "missed"}
        )
        assert miss == pytest.approx(0.1)
        # Idle denominator reads 0, not a division error.
        assert agg.ratio("nope_total", "nope_total", 10.0) == 0.0

    def test_windowed_quantile_sees_only_window_observations(self):
        registry = MetricsRegistry()
        clock = FakeClock()
        agg = self._agg(registry, clock)
        hist = registry.histogram("lat_seconds", buckets=(0.01, 0.1, 1.0, 100.0))
        for _ in range(10):
            hist.observe(50.0)  # old, slow regime
        agg.sample()
        for _ in range(100):
            hist.observe(0.05)  # current, fast regime
        clock.t = 10.0
        agg.sample()
        p50 = agg.quantile("lat_seconds", 0.5, 10.0)
        assert 0.0 < p50 <= 0.1  # unpolluted by the pre-window 50 s tail
        assert agg.count("lat_seconds", 10.0) == 100
        # The cumulative estimate, by contrast, straddles both regimes.
        assert hist.estimate_quantile(0.95) > 1.0

    def test_summary_covers_every_window(self):
        registry = MetricsRegistry()
        clock = FakeClock()
        agg = self._agg(registry, clock)
        hist = registry.histogram("lat_seconds")
        agg.sample()
        hist.observe(0.05)
        hist.observe(0.2)
        clock.t = 10.0
        agg.sample()
        summary = agg.summary("lat_seconds")
        assert set(summary) == {10.0, 60.0}
        entry = summary[10.0]
        assert entry.delta == 2.0
        assert entry.rate == pytest.approx(0.2)
        assert set(entry.quantiles) == {0.5, 0.99}
        assert "quantiles" in entry.as_dict()

    def test_sampler_thread_drives_aggregator_and_callbacks(self):
        registry = MetricsRegistry()
        agg = WindowedAggregator(registry, WindowConfig(interval=0.01))
        ticks = []
        with SamplerThread(agg, 0.01, on_sample=(lambda: ticks.append(1),)):
            deadline = time.monotonic() + 2.0
            while agg.samples_taken < 3 and time.monotonic() < deadline:
                time.sleep(0.01)
        assert agg.samples_taken >= 3
        assert len(ticks) == agg.samples_taken
        with pytest.raises(ValueError):
            SamplerThread(agg, 0.0)


# ----------------------------------------------------------------------
# SLO monitoring
# ----------------------------------------------------------------------
def _miss_objective(target=0.05):
    return SloObjective(
        name="deadline_miss_rate",
        kind="ratio",
        target=target,
        metric="load_runs_total",
        bad_labels={"outcome": "missed"},
    )


class TestSloDeclarations:
    def test_rule_validation(self):
        with pytest.raises(ValueError):
            BurnRateRule("page", 10.0, 60.0, 6.0)  # short >= long
        with pytest.raises(ValueError):
            BurnRateRule("page", 60.0, 10.0, 0.0)

    def test_objective_validation(self):
        with pytest.raises(ValueError):
            SloObjective(name="x", kind="mystery", target=1.0, metric="m")
        with pytest.raises(ValueError):
            SloObjective(name="x", kind="ratio", target=0.0, metric="m")
        with pytest.raises(ValueError):
            SloObjective(name="x", kind="ratio", target=1.0, metric="m")

    def test_default_slos_cover_the_stock_four(self):
        names = {o.name for o in default_slos()}
        assert names == {
            "deadline_miss_rate",
            "plan_latency_p99",
            "admission_reject_rate",
            "pool_saturation",
        }

    def test_duplicate_objective_names_rejected(self):
        registry = MetricsRegistry()
        agg = WindowedAggregator(registry)
        with pytest.raises(ValueError):
            SloMonitor(agg, (_miss_objective(), _miss_objective()))

    def test_gauge_objective_with_divisor(self):
        registry = MetricsRegistry()
        clock = FakeClock()
        agg = WindowedAggregator(registry, clock=clock)
        registry.gauge("svc_pool_queue_depth").set(12.0)
        registry.gauge("svc_pool_size").set(3.0)
        agg.sample()
        agg.sample()
        objective = SloObjective(
            name="pool_saturation",
            kind="gauge",
            target=8.0,
            metric="svc_pool_queue_depth",
            divisor_metric="svc_pool_size",
        )
        assert objective.observe(agg, 10.0) == pytest.approx(4.0)
        assert objective.burn_rate(agg, 10.0) == pytest.approx(0.5)


class TestSloMonitor:
    def _setup(self):
        registry = MetricsRegistry()
        clock = FakeClock()
        agg = WindowedAggregator(registry, clock=clock)
        monitor = SloMonitor(agg, (_miss_objective(),), metrics=registry)
        return registry, clock, agg, monitor

    def test_fire_and_resolve_transitions(self):
        registry, clock, agg, monitor = self._setup()
        counter = registry.counter("load_runs_total")
        agg.sample()
        counter.inc(10, outcome="missed")
        clock.t = 1.0
        agg.sample()
        statuses = monitor.evaluate()
        # 100% miss rate vs a 5% budget: burn 20 trips both rules.
        (status,) = statuses
        assert status.firing == ("page", "ticket")
        fired = monitor.alerts()
        assert [a.firing for a in fired] == [True, True]
        assert monitor.as_dict()["firing"] == [
            "deadline_miss_rate:page",
            "deadline_miss_rate:ticket",
        ]

        # Steady state: still firing, but silent (no new transitions).
        monitor.evaluate()
        assert len(monitor.alerts()) == 2

        # Recovery: a flood of met runs dilutes the miss ratio.
        counter.inc(990, outcome="met")
        clock.t = 2.0
        agg.sample()
        (status,) = monitor.evaluate()
        assert status.firing == ()
        alerts = monitor.alerts()
        assert len(alerts) == 4
        assert [a.firing for a in alerts[2:]] == [False, False]
        assert monitor.as_dict()["firing"] == []
        assert monitor.evaluations == 3

    def test_monitor_exports_its_own_series(self):
        registry, clock, agg, monitor = self._setup()
        counter = registry.counter("load_runs_total")
        agg.sample()
        counter.inc(4, outcome="missed")
        clock.t = 1.0
        agg.sample()
        monitor.evaluate()
        burn = registry.gauge("slo_burn_rate").value(
            slo="deadline_miss_rate", window="10s"
        )
        assert burn == pytest.approx(20.0)
        fired = registry.counter("slo_alerts_total").value(
            slo="deadline_miss_rate", severity="page", firing="True"
        )
        assert fired == 1.0
        # The monitor's payload is JSON-serialisable as the /slo body.
        payload = json.loads(json.dumps(monitor.as_dict()))
        assert payload["evaluations"] == 1
        assert payload["objectives"][0]["name"] == "deadline_miss_rate"
        assert set(payload["objectives"][0]["burn_rate"]) == {"10.0", "60.0", "300.0"}


# ----------------------------------------------------------------------
# Cost attribution
# ----------------------------------------------------------------------
def _result(
    cost=2.0,
    spot=100.0,
    on_demand=0.0,
    missed=False,
    finish=500.0,
    evictions=1,
    rescales=0,
):
    return SimpleNamespace(
        cost=cost,
        spot_seconds=spot,
        on_demand_seconds=on_demand,
        missed_deadline=missed,
        finish_time=finish,
        evictions=evictions,
        rescales=rescales,
    )


class TestCostLedger:
    def test_record_run_accumulates_and_splits_idle(self):
        ledger = CostLedger()
        ledger.record_run("acme", _result(), idle_s=20.0, service_s=400.0)
        ledger.record_run("acme", _result(missed=True), idle_s=0.0, service_s=0.0)
        usage = ledger.snapshot()["acme"]
        assert usage.runs == 2
        assert usage.missed == 1
        assert usage.dollars == pytest.approx(4.0)
        assert usage.spot_seconds == pytest.approx(200.0)
        assert usage.on_demand_seconds == 0.0
        assert usage.machine_seconds == pytest.approx(200.0)
        # Idle and service time are the caller's numbers, taken as given.
        assert usage.idle_seconds == pytest.approx(20.0)
        assert usage.service_time_s == pytest.approx(400.0)
        assert usage.slo_compliance == pytest.approx(0.5)
        assert usage.evictions == 2

    def test_totals_fold_every_tenant(self):
        ledger = CostLedger()
        ledger.record_run("a", _result(cost=1.0), 0.0, 0.0)
        ledger.record_run("b", _result(cost=3.0, on_demand=50.0), 0.0, 0.0)
        totals = ledger.totals()
        assert totals.tenant == "*"
        assert totals.runs == 2
        assert totals.dollars == pytest.approx(4.0)
        assert totals.on_demand_seconds == pytest.approx(50.0)

    def test_as_dict_sorted_by_spend(self):
        ledger = CostLedger()
        ledger.record_run("cheap", _result(cost=1.0), 0.0, 0.0)
        ledger.record_run("pricey", _result(cost=9.0), 0.0, 0.0)
        payload = ledger.as_dict()
        assert [row["tenant"] for row in payload["tenants"]] == ["pricey", "cheap"]
        assert payload["totals"]["dollars"] == pytest.approx(10.0)
        json.dumps(payload)  # the /tenants body must serialise

    def test_metrics_mirroring(self):
        registry = MetricsRegistry()
        ledger = CostLedger(metrics=registry)
        ledger.record_run("acme", _result(missed=True), idle_s=60.0, service_s=0.0)
        assert registry.counter("tenant_cost_dollars_total").value(
            tenant="acme"
        ) == pytest.approx(2.0)
        assert registry.counter("tenant_machine_seconds_total").value(
            tenant="acme", segment="spot"
        ) == pytest.approx(100.0)
        assert registry.counter("tenant_runs_total").value(
            tenant="acme", outcome="missed"
        ) == 1.0
        assert registry.counter("tenant_idle_machine_seconds_total").value(
            tenant="acme"
        ) == pytest.approx(60.0)

    def test_snapshot_is_immutable_view(self):
        ledger = CostLedger()
        ledger.record_run("a", _result(), 0.0, 0.0)
        before = ledger.snapshot()["a"]
        ledger.record_run("a", _result(), 0.0, 0.0)
        assert before.runs == 1
        assert ledger.snapshot()["a"].runs == 2


class _PinnedProvisioner(Provisioner):
    """Always deploys one fixed configuration (test scaffolding)."""

    name = "pinned"

    def __init__(self, config):
        self.config = config

    def select(self, ctx):
        """Pick the configuration to run next (always the pinned one)."""
        return self.config


def _run_pinned(market, observers):
    catalog = tuple(default_catalog())
    lrc = last_resort(
        catalog,
        lambda ref: PerformanceModel(profile=PAGERANK_PROFILE, reference=ref),
    )
    perf = PerformanceModel(profile=PAGERANK_PROFILE, reference=lrc)
    sim = ExecutionSimulator(
        market,
        perf,
        catalog,
        _PinnedProvisioner(transient_configs(catalog)[0]),
        observers=observers,
    )
    job = job_with_slack(PAGERANK_PROFILE, 0.0, 0.5, perf.fixed_time(lrc))
    return sim.run(job)


class TestLiveBilling:
    def test_billed_series_match_run_result(self, small_market):
        # The meter's on_bill feed, summed by TracingObserver over every
        # interval of an evicted run, must reproduce the run's own bill.
        with tracing() as (_tracer, metrics):
            result = _run_pinned(
                small_market,
                (
                    EvictionStormFaults(uptime_seconds=900.0, max_evictions=2),
                    TracingObserver(tenant="acme"),
                ),
            )
        assert result.evictions >= 1
        dollars = metrics.counter("billed_dollars_total").series()
        machine = metrics.counter("billed_machine_seconds_total").series()
        assert sum(dollars.values()) == pytest.approx(result.cost, abs=1e-9)
        assert sum(machine.values()) == pytest.approx(
            result.spot_seconds + result.on_demand_seconds, abs=1e-6
        )

    def test_partial_observer_is_tolerated(self, small_market):
        # The lifecycle bus must skip hooks an observer does not define
        # (duck-typed plug-ins only implement what they care about).
        finished = []

        class FinishOnly:
            def on_finish(self, t, result):
                finished.append(result)

        result = _run_pinned(small_market, (FinishOnly(),))
        assert finished == [result]


# ----------------------------------------------------------------------
# Ops endpoint
# ----------------------------------------------------------------------
def _get(url: str):
    with urllib.request.urlopen(url, timeout=10) as response:
        return response.status, response.headers.get("Content-Type"), response.read().decode()


class TestOpsServer:
    def test_endpoints_round_trip(self):
        registry = MetricsRegistry()
        registry.counter("load_runs_total", "runs").inc(3, outcome="met")
        clock = FakeClock()
        agg = WindowedAggregator(registry, clock=clock)
        monitor = SloMonitor(agg, (_miss_objective(),), metrics=registry)
        ledger = CostLedger()
        ledger.record_run("acme", _result(), 0.0, 0.0)
        agg.sample()
        clock.t = 1.0
        agg.sample()
        monitor.evaluate()
        with OpsServer(registry, aggregator=agg, monitor=monitor, ledger=ledger) as server:
            status, ctype, body = _get(server.url + "/metrics")
            assert status == 200
            assert ctype.startswith("text/plain")
            parsed = parse_prometheus(body)
            assert parsed[("load_runs_total", (("outcome", "met"),))] == 3.0

            status, _, body = _get(server.url + "/health")
            health = json.loads(body)
            assert status == 200
            assert health["status"] == "ok"
            assert health["samples"] == 2
            assert health["slo_evaluations"] == 1

            status, _, body = _get(server.url + "/slo")
            slo = json.loads(body)
            assert slo["objectives"][0]["name"] == "deadline_miss_rate"

            status, _, body = _get(server.url + "/tenants")
            tenants = json.loads(body)
            assert tenants["tenants"][0]["tenant"] == "acme"

            # Trailing slashes and query strings route the same.
            assert _get(server.url + "/metrics/?foo=1")[0] == 200

    def test_absent_components_are_404(self):
        with OpsServer(MetricsRegistry()) as server:
            for path in ("/slo", "/tenants", "/nope"):
                with pytest.raises(urllib.error.HTTPError) as err:
                    _get(server.url + path)
                assert err.value.code == 404
            # Health still answers without aggregator or monitor.
            status, _, body = _get(server.url + "/health")
            assert status == 200
            assert "samples" not in json.loads(body)

    def test_owned_sampler_feeds_aggregator(self):
        registry = MetricsRegistry()
        agg = WindowedAggregator(registry, WindowConfig(interval=0.01))
        monitor = SloMonitor(agg, (_miss_objective(),), metrics=registry)
        with OpsServer(
            registry, aggregator=agg, monitor=monitor, sample_interval=0.01
        ):
            deadline = time.monotonic() + 2.0
            while monitor.evaluations < 2 and time.monotonic() < deadline:
                time.sleep(0.01)
        assert agg.samples_taken >= 2
        assert monitor.evaluations >= 2


# ----------------------------------------------------------------------
# Watch panel
# ----------------------------------------------------------------------
class TestWatchPanel:
    def _live(self):
        registry = MetricsRegistry()
        clock = FakeClock()
        agg = WindowedAggregator(registry, clock=clock)
        counter = registry.counter("load_runs_total")
        agg.sample()
        counter.inc(9, outcome="met")
        counter.inc(1, outcome="missed")
        registry.counter("load_user_cost_dollars_total").inc(5.0)
        clock.t = 10.0
        agg.sample()
        monitor = SloMonitor(agg, (_miss_objective(target=0.5),), metrics=registry)
        monitor.evaluate()
        ledger = CostLedger()
        ledger.record_run("acme", _result(), 0.0, 0.0)
        return agg, monitor, ledger

    def test_render_panel_reads_windowed_aggregates(self):
        agg, monitor, ledger = self._live()
        frame = render_panel(agg, monitor, ledger)
        assert "last 10s" in frame
        assert "miss rate  10.00%" in frame
        assert "0.5000 $/s" in frame
        assert "all objectives within budget" in frame
        assert "tenants 1" in frame

    def test_watch_loop_prints_frames(self):
        agg, monitor, ledger = self._live()
        stream = io.StringIO()
        with WatchLoop(agg, monitor, ledger, interval=0.01, stream=stream) as loop:
            deadline = time.monotonic() + 2.0
            while loop.frames < 2 and time.monotonic() < deadline:
                time.sleep(0.01)
        assert loop.frames >= 2
        assert "load run" in stream.getvalue()
        with pytest.raises(ValueError):
            WatchLoop(agg, interval=0.0)


# ----------------------------------------------------------------------
# Harness publication: one path, at event time
# ----------------------------------------------------------------------
def _harness_config(seed=17, num_jobs=40, **overrides):
    return HarnessConfig(
        trace=LoadTraceConfig(
            seed=seed, num_jobs=num_jobs, num_tenants=6, arrivals_per_hour=240.0
        ),
        window_s=60.0,
        capacity_per_window=16,
        queue_limit=64,
        trace_days=8,
        recurring_tenants=2,
        recurring_periods=3,
        **overrides,
    )


class TestHarnessPublication:
    @pytest.mark.parametrize("frontend", [False, True], ids=["windowed", "frontend"])
    def test_every_series_equals_its_report_field(self, frontend):
        registry = MetricsRegistry()
        report = LoadHarness(
            _harness_config(frontend=frontend), metrics=registry
        ).run()
        assert report.planned > 0 and report.executed > 0
        assert report.recurring_runs > 0

        jobs = registry.counter("load_jobs_total")
        for outcome in (
            "planned", "rejected_overload", "rejected_invalid", "deadline_lost"
        ):
            assert jobs.value(outcome=outcome) == getattr(report, outcome), outcome
        runs = registry.counter("load_runs_total")
        assert runs.value(outcome="missed") == report.missed
        assert runs.value(outcome="met") == report.executed - report.missed
        windows = registry.counter("load_recurring_windows_total")
        assert windows.value(outcome="missed") == report.recurring_missed
        assert windows.value(outcome="met") == (
            report.recurring_runs - report.recurring_missed
        )
        assert windows.value(outcome="skipped") == report.recurring_skipped
        # The float totals accumulate in the same order on both sides.
        for name, field in (
            ("load_provider_idle_machine_seconds_total", "provider_idle_machine_s"),
            ("load_user_cost_dollars_total", "user_cost_dollars"),
            ("load_service_time_seconds_total", "service_time_s"),
        ):
            assert registry.counter(name).value() == getattr(report, field), name
        assert registry.gauge("load_queue_peak").value() == report.queue_peak
        for name in ("load_plan_latency_seconds", "load_plan_queue_wait_seconds"):
            assert registry.histogram(name).snapshot()["count"] == report.planned
        # Not an elastic strategy: no rescale series are declared.
        assert registry.get("load_rescales_total") is None

    def test_publication_is_event_time_by_default(self):
        registry = MetricsRegistry()
        harness = LoadHarness(_harness_config(), metrics=registry)
        planned = registry.counter("load_jobs_total")
        seen = []
        harness.service.add_decision_hook(
            lambda request, result: seen.append(planned.value(outcome="planned"))
        )
        report = harness.run()
        # Some decision was taken while the planned count was partway up.
        assert any(0 < value < report.planned for value in seen)
        assert planned.value(outcome="planned") == report.planned

    def test_ledger_matches_report(self):
        config = _harness_config()
        trace = generate_trace(config.trace)
        plain = LoadHarness(config, metrics=MetricsRegistry()).run(trace)

        registry = MetricsRegistry()
        ledger = CostLedger(metrics=registry)
        report = LoadHarness(config, metrics=registry, ledger=ledger).run(trace)

        # Attribution must be invisible to the outcome...
        assert report.fingerprint() == plain.fingerprint()
        # ...and the ledger is the report's cost section, keyed by tenant.
        assert ledger.totals().dollars == pytest.approx(
            report.user_cost_dollars, abs=1e-6
        )
        assert ledger.totals().runs == report.executed + report.recurring_runs
        assert len(ledger.snapshot()) >= 2  # real multi-tenant attribution

    def test_ledger_golden(self):
        """A seeded 100-job run's tenant table, frozen byte for byte."""
        registry = MetricsRegistry()
        ledger = CostLedger(metrics=registry)
        report = LoadHarness(
            _harness_config(seed=42, num_jobs=100), metrics=registry, ledger=ledger
        ).run()
        blob = json.dumps(ledger.as_dict(), sort_keys=True, separators=(",", ":"))
        assert hashlib.sha256(blob.encode()).hexdigest() == (
            "6f928006ba8bb2747dfa806e490ff0982e638d37edeb9cea5e5a44a3afbd5f5d"
        )
        assert ledger.totals().dollars == pytest.approx(
            report.user_cost_dollars, abs=1e-9
        )
