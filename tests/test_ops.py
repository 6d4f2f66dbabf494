"""Live-operations layer: windows, SLOs, attribution, watch panel.

Covers the streaming side of :mod:`repro.obs`, on the simulated clock:

* the one quantile rule, :func:`~repro.obs.window.percentile`, shared by
  the report, the windows and ``/slo``;
* Prometheus exposition round-trips with hostile label values, and the
  registry under concurrent writers and mid-scrape resets;
* windows as folds over records (:class:`~repro.obs.window.Frame`),
  held to the brute-force filter in ``tests/window_oracle.py``, and the
  :class:`~repro.obs.window.RecordLog` clock that calls listeners at
  its ticks;
* :class:`~repro.obs.slo.SloMonitor` burn-rate transitions, and the
  alert sequence as a pure function of the records;
* :class:`~repro.obs.attribution.CostLedger`;
* the harness's ``load_*`` publication and record log: every series
  equals its report field, a ledger never perturbs the fingerprint, a
  seeded run's tenant table and alert sequence are frozen, and the live
  monitor equals the fold over the final log.
"""

from __future__ import annotations

import hashlib
import json
import threading
import time
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cloud import default_catalog
from repro.exec import EvictionStormFaults
from repro.load.__main__ import main as load_main
from repro.load.harness import HarnessConfig, LoadHarness
from repro.load.trace import LoadTraceConfig, generate_trace
from repro.load.watch import render_panel
from repro.obs.attribution import CostLedger
from repro.obs.metrics import MetricsRegistry
from repro.obs.slo import (
    BurnRateRule,
    SloMonitor,
    SloObjective,
    default_slos,
    statuses,
)
from repro.obs.window import DEFAULT_WINDOWS, Frame, Record, RecordLog, percentile
from tests import window_oracle as oracle
from tests.test_observer_dispatch import run_pinned
from tools.prometheus import parse_prometheus


def _run(t, outcome="met", dollars=0.0):
    return Record(t, "run", outcome, dollars)


def _plan(t, latency):
    return Record(t, "job", "planned", latency)


def _log(records=(), tick_s=60.0):
    log = RecordLog(origin=0.0, tick_s=tick_s)
    for record in records:
        log.append(record)
    return log


# ----------------------------------------------------------------------
# The one quantile rule
# ----------------------------------------------------------------------
class TestEstimateQuantile:
    def test_empty_series_is_zero(self):
        assert percentile([], 90) == 0.0
        assert Frame([]).quantile(10.0, 10.0, 90, "job", "planned") == 0.0

    def test_q_out_of_range_raises(self):
        frame = Frame([_plan(1.0, 0.5)])
        for q in (-0.1, 100.5):
            with pytest.raises(ValueError):
                percentile([0.5], q)
            with pytest.raises(ValueError):
                frame.quantile(10.0, 10.0, q, "job", "planned")

    def test_linear_interpolation_inside_bucket(self):
        # Between two neighbouring ranks the estimate is linear.
        values = [0.0, 1.0, 2.0, 3.0, 4.0]
        assert percentile(values, 50) == 2.0
        assert percentile(values, 12.5) == pytest.approx(0.5)
        assert percentile(values, 100) == 4.0

    def test_inf_bucket_clamps_to_highest_bound(self):
        # The top rank is the largest observation, never beyond it.
        values = [1.0, 2.0, 500.0]
        assert percentile(values, 100) == 500.0
        assert percentile(values, 99.9) <= 500.0

    def test_histogram_method_matches_module_function(self):
        # The windowed method is the module rule over the window's values.
        records = [_plan(float(i), 0.01 * i) for i in range(20)]
        frame = Frame(records)
        inside = [r.value for r in records if 5.0 <= r.t < 15.0]
        assert frame.quantile(15.0, 10.0, 90, "job", "planned") == percentile(inside, 90)
        # An unseen kind reads as empty, not KeyError.
        assert frame.quantile(15.0, 10.0, 90, "nobody") == 0.0


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
# Windows as folds over records
# ----------------------------------------------------------------------
class TestWindowConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            RecordLog(tick_s=0.0)
        log = _log()
        with pytest.raises(ValueError):
            log.every(0.0, print)
        log.advance(100.0)
        # No record may land earlier than the clock...
        with pytest.raises(ValueError):
            log.append(_run(50.0))
        # ...and the clock never moves back.
        log.advance(10.0)
        assert log.clock == 100.0
        log.append(_run(100.0))
        assert len(log) == 1 and log.end == 100.0


class TestWindowedAggregator:
    """Windowed reads are folds over the records: ``[t - w, t)``."""

    def test_delta_rate_and_label_subset(self):
        records = [_run(1.0, dollars=1.0) for _ in range(5)]
        records += [_run(12.0 + 0.5 * i, dollars=2.0) for i in range(10)]
        records += [_run(15.5, "missed", dollars=4.0) for _ in range(3)]
        frame = Frame(records)
        assert frame.count(20.0, 10.0, "run") == 13
        assert frame.count(20.0, 10.0, "run", "met") == 10
        assert frame.count(20.0, 10.0, "run", "missed") == 3
        assert frame.total(20.0, 10.0, "run") == pytest.approx(32.0)
        assert frame.total(20.0, 10.0, "run", "missed") == pytest.approx(12.0)
        assert frame.count(20.0, 10.0, "job") == 0

    def test_window_clamps_to_oldest_sample(self):
        frame = Frame([_run(5.0), _run(6.0), _run(7.0)])
        # A window reaching back past the first record covers what is there.
        assert frame.count(10.0, 60.0, "run") == 3
        # Edges are half-open: a record at t - w is in, one at t is out.
        assert frame.count(7.0, 2.0, "run") == 2
        assert frame.count(7.0, 1.0, "run") == 1

    def test_registry_reset_reads_as_idle_not_negative(self):
        # The fold never reads the registry: resetting it mid-run leaves
        # every window exactly as the records say.
        registry = MetricsRegistry()
        harness = LoadHarness(_harness_config(), metrics=registry)
        harness.log.every(None, lambda t: registry.reset())
        report = harness.run()
        frame = harness.log.frame()
        t = harness.log.end + 1.0
        whole = t - harness.log.origin
        assert frame.count(t, whole, "job", "planned") == report.planned
        assert frame.count(t, whole, "run") == report.executed
        assert frame.ratio(t, whole, "run", "missed") == report.miss_rate

    def test_ratio(self):
        frame = Frame([_run(1.0)] * 9 + [_run(2.0, "missed")])
        assert frame.ratio(10.0, 10.0, "run", "missed") == pytest.approx(0.1)
        # An idle window reads 0, not a division error.
        assert frame.ratio(100.0, 10.0, "run", "missed") == 0.0
        assert frame.ratio(10.0, 10.0, "nope", "missed") == 0.0

    def test_windowed_quantile_sees_only_window_observations(self):
        records = [_plan(float(i), 50.0) for i in range(10)]  # old, slow regime
        records += [_plan(100.0 + i, 0.05) for i in range(100)]  # current, fast
        frame = Frame(records)
        assert frame.quantile(200.0, 150.0, 50, "job", "planned") == 0.05
        assert frame.count(200.0, 150.0, "job", "planned") == 100
        # A window over both regimes straddles them.
        assert frame.quantile(200.0, 200.0, 95, "job", "planned") == 50.0

    def test_summary_covers_every_window(self):
        frame = Frame([_run(10.0, "missed"), _run(20.0)])
        (status,) = statuses((_miss_objective(),), frame, 60.0)
        assert set(status.windows) == set(DEFAULT_WINDOWS)
        assert status.windows[300.0] == 0.5
        assert status.burn_rates[300.0] == pytest.approx(10.0)
        assert set(status.as_dict()["burn_rate"]) == {"300.0", "3600.0", "21600.0"}

    def test_clock_runs_listeners_at_ticks(self):
        log = _log(tick_s=60.0)
        seen = []
        log.every(None, lambda t: seen.append((t, "a")))
        log.every(90.0, lambda t: seen.append((t, "b")))
        log.advance(200.0)
        assert seen == [(60.0, "a"), (90.0, "b"), (120.0, "a"), (180.0, "a"), (180.0, "b")]
        log.advance(100.0)  # never back, never a tick twice
        log.advance(240.0)
        assert seen[5:] == [(240.0, "a")]
        assert oracle.ticks(log) == [60.0, 120.0, 180.0, 240.0]


_times = st.integers(0, 40).map(lambda k: 600.0 * k)
_records = st.lists(
    st.builds(
        Record,
        t=_times,
        kind=st.sampled_from(["job", "run"]),
        outcome=st.sampled_from(["planned", "rejected_overload", "met", "missed"]),
        value=st.floats(0.0, 10.0),
    ),
    max_size=40,
)


class TestFoldProperties:
    @settings(max_examples=40, deadline=None)
    @given(
        records=_records,
        t=_times,
        window_s=st.sampled_from([600.0, 1800.0, 3600.0, 7200.0, 25000.0]),
        kind=st.sampled_from(["job", "run"]),
        outcome=st.sampled_from([None, "planned", "met", "missed"]),
        q=st.floats(0.0, 100.0),
    )
    def test_fold_equals_brute_force_filter(self, records, t, window_s, kind, outcome, q):
        frame = Frame(records)
        args = (t, window_s, kind, outcome)
        assert frame.count(*args) == oracle.count(records, *args)
        assert frame.quantile(t, window_s, q, kind, outcome) == oracle.quantile(
            records, t, window_s, q, kind, outcome
        )
        bad = outcome or "missed"
        assert frame.ratio(t, window_s, kind, bad) == oracle.ratio(
            records, t, window_s, kind, bad
        )

    @settings(max_examples=25, deadline=None)
    @given(records=_records, data=st.data())
    def test_alerts_ignore_append_order(self, records, data):
        objectives = (
            _miss_objective(),
            SloObjective("p90", "quantile", 5.0, "job", outcome="planned", q=90.0),
        )
        shuffled = data.draw(st.permutations(records))
        log = _log(shuffled, tick_s=600.0)
        monitor = SloMonitor(log, objectives, metrics=MetricsRegistry())
        log.advance(log.end + 600.0)
        assert list(monitor.alerts()) == oracle.alerts(objectives, records, oracle.ticks(log))


# ----------------------------------------------------------------------
# SLO monitoring
# ----------------------------------------------------------------------
def _miss_objective(target=0.05):
    return SloObjective(
        name="deadline_miss_rate",
        kind="ratio",
        target=target,
        source="run",
        bad="missed",
    )


class TestSloDeclarations:
    def test_rule_validation(self):
        with pytest.raises(ValueError):
            BurnRateRule("page", 10.0, 60.0, 6.0)  # short >= long
        with pytest.raises(ValueError):
            BurnRateRule("page", 60.0, 10.0, 0.0)

    def test_objective_validation(self):
        with pytest.raises(ValueError):
            SloObjective(name="x", kind="mystery", target=1.0, source="run")
        with pytest.raises(ValueError):
            SloObjective(name="x", kind="ratio", target=0.0, source="run", bad="missed")
        with pytest.raises(ValueError):
            SloObjective(name="x", kind="ratio", target=1.0, source="run")

    def test_default_slos_cover_the_stock_three(self):
        names = {o.name for o in default_slos()}
        assert names == {
            "deadline_miss_rate",
            "plan_latency_p99",
            "admission_reject_rate",
        }
        # Every default rule reads default windows.
        for objective in default_slos():
            assert objective.windows == DEFAULT_WINDOWS

    def test_duplicate_objective_names_rejected(self):
        with pytest.raises(ValueError):
            SloMonitor(_log(), (_miss_objective(), _miss_objective()))


class TestSloMonitor:
    def _setup(self):
        registry = MetricsRegistry()
        log = _log(tick_s=60.0)
        monitor = SloMonitor(log, (_miss_objective(),), metrics=registry)
        return registry, log, monitor

    def test_fire_and_resolve_transitions(self):
        registry, log, monitor = self._setup()
        for _ in range(10):
            log.append(_run(10.0, "missed"))
        for _ in range(990):
            log.append(_run(200.0))
        log.advance(60.0)
        # 100% miss rate vs a 5% budget: burn 20 trips both rules.
        (status,) = monitor.statuses()
        assert status.firing == ("page", "ticket")
        fired = monitor.alerts()
        assert [(a.t, a.firing) for a in fired] == [(60.0, True), (60.0, True)]
        assert monitor.as_dict()["firing"] == [
            "deadline_miss_rate:page",
            "deadline_miss_rate:ticket",
        ]

        # Steady state: still firing, but silent (no new transitions).
        log.advance(180.0)
        assert len(monitor.alerts()) == 2

        # Recovery: a flood of met runs dilutes the miss ratio.
        log.advance(240.0)
        (status,) = monitor.statuses()
        assert status.firing == ()
        transitions = monitor.alerts()
        assert len(transitions) == 4
        assert [(a.t, a.firing) for a in transitions[2:]] == [(240.0, False)] * 2
        assert monitor.as_dict()["firing"] == []
        assert monitor.evaluations == 4
        # The live sequence is the pure one over the same ticks.
        assert list(transitions) == oracle.alerts(monitor.objectives, log.records(), oracle.ticks(log))

    def test_monitor_exports_its_own_series(self):
        registry, log, monitor = self._setup()
        for _ in range(4):
            log.append(_run(10.0, "missed"))
        log.advance(60.0)
        burn = registry.gauge("slo_burn_rate").value(
            slo="deadline_miss_rate", window="300s"
        )
        assert burn == pytest.approx(20.0)
        fired = registry.counter("slo_alerts_total").value(
            slo="deadline_miss_rate", severity="page", firing="True"
        )
        assert fired == 1.0
        # The monitor's payload is JSON-serialisable as the /slo body.
        payload = json.loads(json.dumps(monitor.as_dict()))
        assert payload["t"] == 60.0
        assert payload["evaluations"] == 1
        assert payload["objectives"][0]["name"] == "deadline_miss_rate"
        assert set(payload["objectives"][0]["burn_rate"]) == {"300.0", "3600.0", "21600.0"}


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
):
    return SimpleNamespace(
        cost=cost,
        spot_seconds=spot,
        on_demand_seconds=on_demand,
        missed_deadline=missed,
        finish_time=finish,
        evictions=evictions,
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


# ----------------------------------------------------------------------
# Live billing under observers
# ----------------------------------------------------------------------
class TestLiveBilling:
    def test_partial_observer_is_tolerated(self, small_market):
        # The lifecycle bus must skip hooks an observer does not define
        # (duck-typed plug-ins only implement what they care about): an
        # evicted run watched by a start-only observer is billed exactly
        # as the same run without it.
        started = []

        class StartOnly:
            def on_run_start(self, t):
                started.append(t)

        catalog = tuple(default_catalog())
        config = [c for c in catalog if c.is_transient][0]

        def faults():
            return EvictionStormFaults(uptime_seconds=900.0, max_evictions=2)

        watched = run_pinned(small_market, catalog, config, (faults(), StartOnly()))
        plain = run_pinned(small_market, catalog, config, (faults(),))
        assert watched.evictions >= 1
        assert started == [watched.release_time]
        assert watched == plain


# ----------------------------------------------------------------------
# Watch panel
# ----------------------------------------------------------------------
class TestWatchPanel:
    def test_render_panel_reads_windowed_aggregates(self):
        records = [_run(10.0 * i, dollars=0.5) for i in range(9)]
        records += [_run(95.0, "missed", dollars=0.5), _plan(50.0, 0.01)]
        log = _log(records, tick_s=300.0)
        monitor = SloMonitor(log, (_miss_objective(target=0.5),), metrics=MetricsRegistry())
        log.advance(300.0)
        frame = render_panel(log, 300.0, monitor)
        assert "t+0.08 h · last 300 s" in frame
        assert "planned    12.00/h" in frame
        assert "runs   120.00/h" in frame
        assert "miss rate  10.00%" in frame
        assert "spend      60.00 $/h" in frame
        assert "all objectives within budget" in frame

    def test_watch_loop_prints_frames(self, capsys):
        argv = [
            "--jobs", "20", "--seed", "42", "--trace-days", "8",
            "--recurring-tenants", "0", "--watch", "600",
        ]
        assert load_main(argv) == 0
        frames = capsys.readouterr().err.split("-- load run")[1:]
        assert len(frames) >= 2
        # One frame per 600 s tick of the simulated clock, in order.
        for k, frame in enumerate(frames, start=1):
            assert frame.startswith(f" · t+{600 * k / 3600:.2f} h · last 300 s --")


# ----------------------------------------------------------------------
# Harness publication: one path, at event time
# ----------------------------------------------------------------------
def _harness_config(seed=17, num_jobs=40):
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
    )


class TestHarnessPublication:
    def test_every_series_equals_its_report_field(self):
        registry = MetricsRegistry()
        report = LoadHarness(_harness_config(), metrics=registry).run()
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

    def test_ledger_golden(self, seed42):
        """A seeded 100-job run's tenant table, frozen byte for byte."""
        blob = json.dumps(seed42.ledger.as_dict(), sort_keys=True, separators=(",", ":"))
        assert hashlib.sha256(blob.encode()).hexdigest() == (
            "10f4a71a02a347b0bc30b1d5de16339b934ff42b6df21ca261178373abba5898"
        )
        assert seed42.ledger.totals().dollars == pytest.approx(
            seed42.report.user_cost_dollars, abs=1e-9
        )

    def test_alert_sequence_golden(self, seed42):
        """The same run's alert sequence, on the simulated clock."""
        assert _seed_part(seed42.monitor.alerts(), seed42.harness.log) == SEED42_ALERTS

    def test_alert_sequence_survives_slow_decisions(self):
        # A box twice as slow (every decision 2 ms late) moves no alert.
        harness = LoadHarness(
            _harness_config(seed=42, num_jobs=100), metrics=MetricsRegistry()
        )
        harness.service.add_decision_hook(lambda request, result: time.sleep(0.002))
        harness.run()
        log = harness.log
        assert _seed_part(oracle.alerts(default_slos(), log.records(), oracle.ticks(log)), log) == (
            SEED42_ALERTS
        )

    def test_live_alerts_equal_the_fold(self, seed42):
        log, monitor = seed42.harness.log, seed42.monitor
        assert monitor.alerts()
        assert list(monitor.alerts()) == oracle.alerts(monitor.objectives, log.records(), oracle.ticks(log))
        # Every live /slo payload is the fold at its t over the final log.
        frame = log.frame()
        assert len(seed42.payloads) == len(oracle.ticks(log)) == monitor.evaluations
        for payload in seed42.payloads:
            pure = statuses(monitor.objectives, frame, payload["t"])
            assert payload["objectives"] == [s.as_dict() for s in pure]
        # The log holds one run; a second would land records before the clock.
        with pytest.raises(RuntimeError):
            seed42.harness.run()

    def test_whole_run_window_reproduces_the_report(self, seed42):
        log, report = seed42.harness.log, seed42.report
        frame = log.frame()
        t = log.end + 1.0
        whole = t - log.origin
        assert 1000 * frame.quantile(t, whole, 99, "job", "planned") == report.plan_p99_ms
        assert frame.ratio(t, whole, "run", "missed") == report.miss_rate
        assert frame.count(t, whole, "run") == report.executed


#: ``(simulated t, objective, severity, firing)`` for the seed-42,
#: 100-job run: its 12 misses all finish in the first simulated hour.
SEED42_ALERTS = [
    (240.0, "deadline_miss_rate", "page", True),
    (240.0, "deadline_miss_rate", "ticket", True),
    (660.0, "deadline_miss_rate", "page", False),
    (4140.0, "deadline_miss_rate", "ticket", False),
    (4260.0, "deadline_miss_rate", "ticket", True),
    (4380.0, "deadline_miss_rate", "ticket", False),
]


def _seed_part(transitions, log) -> list[tuple]:
    """The seed-determined alerts; plan latency is wall clock."""
    return [
        (a.t - log.origin, a.objective, a.severity, a.firing)
        for a in transitions
        if a.objective in ("deadline_miss_rate", "admission_reject_rate")
    ]


def _observed_run(config, ledger=None):
    """One harness run with an SLO monitor and its payload at every tick."""
    registry = MetricsRegistry()
    harness = LoadHarness(config, metrics=registry, ledger=ledger)
    monitor = SloMonitor(harness.log, default_slos(), metrics=registry)
    payloads = []
    harness.log.every(None, lambda t: payloads.append(monitor.as_dict()))
    report = harness.run()
    return SimpleNamespace(
        harness=harness, monitor=monitor, ledger=ledger, report=report, payloads=payloads
    )


@pytest.fixture(scope="module")
def seed42():
    """The seeded 100-job run the ledger and alert goldens share."""
    return _observed_run(
        _harness_config(seed=42, num_jobs=100), ledger=CostLedger(metrics=MetricsRegistry())
    )
