"""Load harness + overload paths: admission, partial batches, skipped windows.

The overload regime is exactly where the old bugs lived: one
inadmissible request poisoning a whole ``plan_many`` batch, batch
position leaking into latency telemetry, and overrun-skipped recurring
windows vanishing from the miss statistics.  These tests pin the fixed
behaviour, plus the harness's own contracts: a bit-identical arrival
trace per seed, graceful tail-drop under saturation, and a
deterministic simulated-outcome fingerprint.
"""

from __future__ import annotations

import time

import pytest

from repro.core.job import PAGERANK_PROFILE, SSSP_PROFILE, job_with_slack
from repro.core.recurring import (
    InterleavedRecurringDriver,
    RecurringJobDriver,
    RecurringJobSpec,
    RecurringOutcome,
)
from repro.core.slack import SlackModel
from repro.exec.events import RunResult
from repro.experiments.common import ExperimentSetup
from repro.load import (
    AdmissionController,
    HarnessConfig,
    LoadHarness,
    LoadTraceConfig,
    generate_trace,
)
from repro.load.trace import ArrivalTrace
from repro.obs.metrics import MetricsRegistry
from repro.obs.window import percentile
from repro.service import (
    BatchPlanError,
    PlanError,
    PlanningService,
    PlanRequest,
    PlanResult,
)


@pytest.fixture(scope="module")
def setup() -> ExperimentSetup:
    return ExperimentSetup(seed=42, trace_days=12)


def _slack_model(setup, profile, slack=0.5, start=0.0):
    perf = setup.perf_model(profile)
    lrc = setup.lrc(perf)
    job = job_with_slack(profile, start, slack, perf.fixed_time(lrc))
    return SlackModel(perf=perf, lrc=lrc, deadline=job.deadline)


# ----------------------------------------------------------------------
# Bugfix: one inadmissible request must not poison the batch
# ----------------------------------------------------------------------
class TestPlanManyPartialBatches:
    def _mixed_requests(self, setup, bad_at=2, n=5):
        sm = _slack_model(setup, PAGERANK_PROFILE)
        requests = [
            PlanRequest(slack_model=sm, catalog=setup.catalog, work_left=1.0 - 0.1 * i)
            for i in range(n)
        ]
        requests[bad_at] = PlanRequest(slack_model=sm, catalog=())  # inadmissible
        return requests

    def test_return_exceptions_gives_per_slot_outcomes(self, setup):
        service = PlanningService(setup.market)
        requests = self._mixed_requests(setup)
        slots = service.plan_many(requests, return_exceptions=True)
        assert len(slots) == len(requests)
        assert isinstance(slots[2], PlanError)
        good = [s for i, s in enumerate(slots) if i != 2]
        assert all(isinstance(s, PlanResult) for s in good)
        # The surviving slots decide exactly what a clean batch decides.
        clean = service.plan_many([r for i, r in enumerate(requests) if i != 2])
        assert [s.decision for s in good] == [s.decision for s in clean]

    def test_default_raises_after_planning_the_rest(self, setup):
        service = PlanningService(setup.market)
        requests = self._mixed_requests(setup)
        with pytest.raises(BatchPlanError) as excinfo:
            service.plan_many(requests)
        err = excinfo.value
        assert isinstance(err, PlanError)  # back-compat: it is a PlanError
        assert len(err.results) == len(requests)
        assert [i for i, _ in err.errors] == [2]
        planned = [r for r in err.results if isinstance(r, PlanResult)]
        assert len(planned) == len(requests) - 1  # partial results survive

    def test_unknown_strategy_is_per_slot_too(self, setup):
        service = PlanningService(setup.market)
        sm = _slack_model(setup, PAGERANK_PROFILE)
        requests = [
            PlanRequest(slack_model=sm, catalog=setup.catalog),
            PlanRequest(slack_model=sm, catalog=setup.catalog, strategy="nope"),
            PlanRequest(slack_model=sm, catalog=setup.catalog, strategy="on-demand"),
        ]
        slots = service.plan_many(requests, return_exceptions=True)
        assert isinstance(slots[0], PlanResult)
        assert isinstance(slots[1], PlanError)
        assert isinstance(slots[2], PlanResult)

    def test_all_bad_batch_plans_nothing(self, setup):
        service = PlanningService(setup.market)
        sm = _slack_model(setup, PAGERANK_PROFILE)
        slots = service.plan_many(
            [PlanRequest(slack_model=sm, catalog=())] * 3, return_exceptions=True
        )
        assert all(isinstance(s, PlanError) for s in slots)

    def test_hooks_fire_only_for_planned_slots(self, setup):
        service = PlanningService(setup.market)
        seen = []
        service.add_decision_hook(lambda request, result: seen.append(result))
        requests = self._mixed_requests(setup)
        service.plan_many(requests, return_exceptions=True)
        assert len(seen) == len(requests) - 1
        assert all(isinstance(r, PlanResult) for r in seen)


# ----------------------------------------------------------------------
# Bugfix: latency telemetry must not absorb batch-position wait
# ----------------------------------------------------------------------
class TestPlanManyLatencySemantics:
    def test_service_time_excludes_queue_wait(self, setup):
        """Sum of per-slot service times stays near the batch wall clock.

        With the old semantics every slot's latency included all earlier
        groups' planning, so the sum over a warm same-key batch of N
        requests approached N/2 x the batch wall clock.  Now latency_s
        is each slot's own service time, so the sum is bounded by the
        wall clock (small tolerance for timer overhead per slot).
        """
        sm = _slack_model(setup, PAGERANK_PROFILE)
        service = PlanningService(setup.market)
        grids = service.resolved_grids(sm, 0.0, 1.0)
        requests = [
            PlanRequest(
                slack_model=sm,
                catalog=setup.catalog,
                work_left=1.0 - 0.002 * i,
                slack_grid=grids[0],
                work_grid=grids[1],
            )
            for i in range(50)
        ]
        started = time.perf_counter()
        slots = service.plan_many(requests)
        wall = time.perf_counter() - started
        total_service = sum(s.telemetry.latency_s for s in slots)
        assert total_service <= wall * 1.5 + 1e-3
        assert all(s.telemetry.queue_wait_s >= 0.0 for s in slots)
        assert all(s.telemetry.latency_s > 0.0 for s in slots)
        # total_s is the admission-to-decision wall clock.
        for s in slots:
            assert s.telemetry.total_s == pytest.approx(
                s.telemetry.queue_wait_s + s.telemetry.latency_s
            )

    def test_plan_exposes_queue_wait_field(self, setup):
        service = PlanningService(setup.market)
        sm = _slack_model(setup, SSSP_PROFILE)
        result = service.plan(PlanRequest(slack_model=sm, catalog=setup.catalog))
        assert result.telemetry.queue_wait_s >= 0.0
        assert result.telemetry.total_s >= result.telemetry.latency_s


# ----------------------------------------------------------------------
# Bugfix: skipped recurring windows are SLO violations, not nothing
# ----------------------------------------------------------------------
class _OverrunSimulator:
    """Fake simulator whose runs always take *overrun_factor* periods."""

    def __init__(self, overrun_s: float):
        self.overrun_s = overrun_s

    def run(self, job) -> RunResult:
        finish = job.release_time + self.overrun_s
        return RunResult(
            cost=1.0,
            release_time=job.release_time,
            finish_time=finish,
            deadline=job.deadline,
            evictions=0,
            deployments=1,
            checkpoints=0,
            spot_seconds=0.0,
            on_demand_seconds=8 * self.overrun_s,
            events=(),
            provisioner_name="fake",
        )


class _PunctualSimulator:
    """Fake simulator that always finishes comfortably inside the window."""

    def run(self, job) -> RunResult:
        return RunResult(
            cost=1.0,
            release_time=job.release_time,
            finish_time=job.release_time + 1.0,
            deadline=job.deadline,
            evictions=0,
            deployments=1,
            checkpoints=0,
            spot_seconds=8.0,
            on_demand_seconds=0.0,
            events=(),
            provisioner_name="fake",
        )


class TestSkippedWindows:
    def test_driver_counts_blown_through_windows(self):
        # Every run takes 2.5 periods: run window 0, blow through 1-2,
        # run 3 (started late, inside 2's window? no: release anchored),
        # etc.  With period 100 and overrun 250: windows hit are 0, 3, 6, 9.
        driver = RecurringJobDriver(
            _OverrunSimulator(overrun_s=250.0), SSSP_PROFILE, period=100.0
        )
        outcome = driver.run(0.0, 10)
        assert outcome.runs == 4
        assert outcome.skipped == 6
        assert outcome.windows == 10
        assert outcome.missed == 4  # every run overruns its own deadline
        assert outcome.miss_rate == 1.0
        assert outcome.skipped_rate == pytest.approx(0.6)
        assert outcome.violations == 10
        assert outcome.violation_rate == 1.0

    def test_miss_rate_alone_understates_overload(self):
        # A run that *meets* its own deadline but blew through earlier
        # windows: overrun 150 of period 100 -> each run finishes 50 s
        # into the next window (missing it) ... use 199: finishes within
        # the next window, missing its own deadline never happens only
        # if finish <= deadline; craft overrun < period so no skips, and
        # overrun in (period, 2*period) so exactly one skip per run.
        outcome = RecurringJobDriver(
            _OverrunSimulator(overrun_s=150.0), SSSP_PROFILE, period=100.0
        ).run(0.0, 10)
        # miss_rate counts executed runs only; violation_rate also sees
        # the windows those runs blew through.
        assert outcome.skipped > 0
        assert outcome.violation_rate > outcome.miss_rate or outcome.miss_rate == 1.0
        assert outcome.violation_rate == (outcome.missed + outcome.skipped) / (
            outcome.runs + outcome.skipped
        )

    def test_interleaved_matches_private_driver_and_isolates_tenants(self):
        specs = [
            RecurringJobSpec(
                name="overloaded",
                simulator=_OverrunSimulator(overrun_s=250.0),
                profile=SSSP_PROFILE,
                period=100.0,
            ),
            RecurringJobSpec(
                name="healthy",
                simulator=_PunctualSimulator(),
                profile=PAGERANK_PROFILE,
                period=100.0,
                offset=10.0,
            ),
        ]
        outcomes = InterleavedRecurringDriver(specs).run(0.0, 10)
        private = RecurringJobDriver(
            _OverrunSimulator(overrun_s=250.0), SSSP_PROFILE, period=100.0
        ).run(0.0, 10)
        assert outcomes["overloaded"].runs == private.runs
        assert outcomes["overloaded"].skipped == private.skipped
        assert outcomes["overloaded"].violation_rate == private.violation_rate
        # The healthy tenant is untouched by its neighbour's overload.
        assert outcomes["healthy"].runs == 10
        assert outcomes["healthy"].skipped == 0
        assert outcomes["healthy"].missed == 0

    def test_outcome_backward_compatible_default(self):
        outcome = RecurringOutcome(results=(), period=60.0)
        assert outcome.skipped == 0
        assert outcome.windows == 0
        assert outcome.violation_rate == 0.0


# ----------------------------------------------------------------------
# Trace generation: determinism and round-trip
# ----------------------------------------------------------------------
class TestTraceDeterminism:
    def test_same_seed_bit_identical(self):
        config = LoadTraceConfig(seed=123, num_jobs=300)
        a = generate_trace(config)
        b = generate_trace(config)
        assert a.jobs == b.jobs  # dataclass equality: every field, every job
        assert a.checksum() == b.checksum()

    def test_different_seeds_differ(self):
        a = generate_trace(LoadTraceConfig(seed=1, num_jobs=100))
        b = generate_trace(LoadTraceConfig(seed=2, num_jobs=100))
        assert a.checksum() != b.checksum()

    def test_jsonl_round_trip(self, tmp_path):
        trace = generate_trace(LoadTraceConfig(seed=5, num_jobs=50))
        path = tmp_path / "trace.jsonl"
        trace.to_jsonl(path)
        loaded = ArrivalTrace.from_jsonl(path)
        assert loaded.config == trace.config
        assert loaded.jobs == trace.jobs
        assert loaded.checksum() == trace.checksum()

    def test_arrivals_are_ordered_and_mixed(self):
        trace = generate_trace(LoadTraceConfig(seed=9, num_jobs=400))
        arrivals = [job.arrival_s for job in trace.jobs]
        assert arrivals == sorted(arrivals)
        assert len({job.tenant for job in trace.jobs}) > 1
        assert len({job.app for job in trace.jobs}) > 1
        assert len({job.scale for job in trace.jobs}) > 1

    def test_config_validation(self):
        with pytest.raises(ValueError):
            LoadTraceConfig(num_jobs=0)
        with pytest.raises(ValueError):
            LoadTraceConfig(app_mix=(("unknown-app", 1.0),))
        with pytest.raises(ValueError):
            LoadTraceConfig(diurnal_amplitude=1.5)


# ----------------------------------------------------------------------
# Admission control
# ----------------------------------------------------------------------
class TestAdmissionController:
    def test_capacity_then_queue_then_tail_drop(self):
        controller = AdmissionController(capacity_per_window=2, queue_limit=3)
        admitted, rejected = controller.offer(list(range(7)))
        assert [a.item for a in admitted] == [0, 1]
        assert rejected == [5, 6]  # 2 admitted + 3 queued, rest dropped
        assert controller.backlog == 3

    def test_fifo_across_windows_with_wait_accounting(self):
        controller = AdmissionController(capacity_per_window=2, queue_limit=10)
        controller.offer(["a", "b", "c", "d"])
        admitted, rejected = controller.offer(["e"])
        assert [a.item for a in admitted] == ["c", "d"]  # backlog first, FIFO
        assert [a.waited_windows for a in admitted] == [1, 1]
        assert rejected == []
        assert controller.backlog == 1  # "e" waits

    def test_empty_offers_flush_backlog(self):
        controller = AdmissionController(capacity_per_window=2, queue_limit=10)
        controller.offer(["a", "b", "c", "d", "e"])
        drained = []
        while controller.backlog:
            admitted, rejected = controller.offer(())
            assert rejected == []
            drained.extend(a.item for a in admitted)
        assert drained == ["c", "d", "e"]
        stats = controller.stats
        assert (stats.offered, stats.admitted, stats.rejected) == (5, 5, 0)
        assert stats.queued == 3

    def test_validation(self):
        with pytest.raises(ValueError):
            AdmissionController(capacity_per_window=0, queue_limit=1)
        with pytest.raises(ValueError):
            AdmissionController(capacity_per_window=1, queue_limit=-1)


# ----------------------------------------------------------------------
# Report plumbing
# ----------------------------------------------------------------------
class TestPercentile:
    def test_interpolation(self):
        values = [10.0, 20.0, 30.0, 40.0]
        assert percentile(values, 0) == 10.0
        assert percentile(values, 100) == 40.0
        assert percentile(values, 50) == pytest.approx(25.0)
        assert percentile([], 99) == 0.0
        assert percentile([7.0], 95) == 7.0
        with pytest.raises(ValueError):
            percentile(values, 101)


# ----------------------------------------------------------------------
# The harness end to end
# ----------------------------------------------------------------------
def _small_config(**overrides) -> HarnessConfig:
    trace = LoadTraceConfig(
        seed=overrides.pop("seed", 17),
        num_jobs=overrides.pop("num_jobs", 50),
        num_tenants=8,
        arrivals_per_hour=overrides.pop("arrivals_per_hour", 240.0),
    )
    defaults = dict(
        trace=trace,
        window_s=60.0,
        capacity_per_window=16,
        queue_limit=64,
        trace_days=8,
        recurring_tenants=2,
        recurring_periods=3,
    )
    defaults.update(overrides)
    return HarnessConfig(**defaults)


class TestLoadHarness:
    def test_end_to_end_counts_and_report(self):
        metrics = MetricsRegistry()
        harness = LoadHarness(_small_config(), metrics=metrics)
        report = harness.run()
        assert report.fingerprint() == (
            "7efa9cb08e1e410e332e5854165483d210813733de9039954af53ba7ca89e2f4"
        )
        # hourglass owns no rescale_policy: no frontier curves, no section.
        assert not report.elastic
        assert all(s.frontier_curve is None for s in harness._simulators.values())
        assert "Elastic rescaling" not in report.render()
        assert report.offered == 50
        assert report.admitted > 0
        assert report.planned > 0
        assert report.executed == report.planned
        assert report.plan_p99_ms >= report.plan_p50_ms >= 0.0
        assert 0.0 <= report.cache_hit_rate <= 1.0
        assert report.recurring_tenants == 2
        assert report.recurring_runs > 0
        assert report.user_cost_dollars > 0.0
        assert report.service_time_s > 0.0
        rendered = report.render()
        for heading in ("workload", "Admission", "Plan latency", "Granny"):
            assert heading in rendered
        # The load_* series made it into the registry.
        assert metrics.counter("load_jobs_total").value(outcome="planned") == float(
            report.planned
        )
        assert metrics.counter("load_runs_total").value(outcome="missed") == float(
            report.missed
        )

    def test_simulated_outcomes_deterministic(self):
        a = LoadHarness(_small_config(), metrics=MetricsRegistry()).run()
        b = LoadHarness(_small_config(), metrics=MetricsRegistry()).run()
        assert a.fingerprint() == b.fingerprint()
        assert a.trace_checksum == b.trace_checksum
        assert (a.missed, a.executed, a.recurring_skipped) == (
            b.missed,
            b.executed,
            b.recurring_skipped,
        )
        assert a.user_cost_dollars == b.user_cost_dollars

    def test_fingerprint_excludes_wall_clock(self):
        report = LoadHarness(_small_config(), metrics=MetricsRegistry()).run()
        from dataclasses import replace

        jittered = replace(report, plan_p99_ms=report.plan_p99_ms + 123.0)
        assert jittered.fingerprint() == report.fingerprint()

    def test_saturation_degrades_gracefully(self):
        config = _small_config(
            num_jobs=80,
            arrivals_per_hour=900.0,
            capacity_per_window=6,
            queue_limit=8,
            execute=False,
            recurring_tenants=0,
        )
        report = LoadHarness(config, metrics=MetricsRegistry()).run()
        assert report.fingerprint() == (
            "4ccddec17736ca2bc030dbc983813b656b722b96c22bc3f1837642b0a7f09def"
        )
        assert report.deadline_lost > 0  # queued past its whole deadline
        assert report.rejected_overload > 0  # tail-drop, not an exception
        assert report.planned > 0  # the admitted majority still planned
        assert report.queue_peak <= config.queue_limit
        assert (
            report.planned
            + report.rejected_overload
            + report.rejected_invalid
            + report.deadline_lost
            == report.offered
        )

    def test_plan_only_skips_execution(self):
        config = _small_config(execute=False, recurring_tenants=0)
        report = LoadHarness(config, metrics=MetricsRegistry()).run()
        assert report.planned > 0
        assert report.executed == 0
        assert report.user_cost_dollars == 0.0

    def test_market_too_short_raises(self):
        config = _small_config(trace_days=1, num_jobs=30)
        with pytest.raises(ValueError, match="market trace too short"):
            LoadHarness(config, metrics=MetricsRegistry()).run()

    def test_report_describes_the_trace_that_ran(self, tmp_path):
        """A replayed trace's identity wins over the configured one."""
        replayed = generate_trace(
            LoadTraceConfig(seed=9, num_jobs=12, num_tenants=3)
        )
        replayed.to_jsonl(tmp_path / "trace.jsonl")
        loaded = ArrivalTrace.from_jsonl(tmp_path / "trace.jsonl")
        config = HarnessConfig(
            trace=LoadTraceConfig(seed=3, num_jobs=30, num_tenants=6),
            trace_days=8,
            recurring_tenants=0,
            execute=False,
        )
        report = LoadHarness(config, metrics=MetricsRegistry()).run(loaded)
        assert (report.seed, report.num_jobs, report.num_tenants) == (9, 12, 3)
        assert report.offered == 12
        assert report.trace_checksum == replayed.checksum()


class TestHarnessConfigValidation:
    @pytest.mark.parametrize(
        "overrides, message",
        [
            (dict(window_s=0.0), "window_s"),
            (dict(capacity_per_window=0), "capacity_per_window must be >= 1"),
            # Used to surface inside run() as FrontendConfig's "max_batch".
            (dict(frontend=True, capacity_per_window=0), "capacity_per_window"),
            (dict(queue_limit=-1), "queue_limit must be >= 0"),
            (dict(recurring_tenants=-1), "recurring_tenants"),
            (dict(recurring_periods=0), "recurring_periods"),
            (dict(frontend_min_workers=0), "frontend_min_workers"),
            (dict(frontend_min_workers=3, frontend_max_workers=2), "frontend_max_workers"),
            (dict(time_scale=-1.0), "time_scale"),
        ],
    )
    def test_rejected_at_construction(self, overrides, message):
        with pytest.raises(ValueError, match=message):
            HarnessConfig(**overrides)


# ----------------------------------------------------------------------
# Behaviour contract: fingerprints frozen before the one-pipeline
# refactor (with the bench pin (42, 600) in bench/workloads/serve_mixed.py)
# ----------------------------------------------------------------------
class TestFrozenFingerprints:
    """The windowed and saturation literals ride on
    ``TestLoadHarness.test_end_to_end_counts_and_report`` and
    ``test_saturation_degrades_gracefully``, which already run those
    configs."""

    def test_frontend_without_overload(self):
        config = HarnessConfig(
            trace=LoadTraceConfig(seed=11, num_jobs=40, num_tenants=6),
            trace_days=8,
            recurring_tenants=1,
            recurring_periods=2,
            frontend=True,
            frontend_min_workers=1,
            frontend_max_workers=4,
        )
        report = LoadHarness(config, metrics=MetricsRegistry()).run()
        assert report.rejected_overload == 0
        assert report.fingerprint() == (
            "f806ddd03fed2c73fefc6203a55395bfc963133dbde83c9bf454ecbc63663f3f"
        )

    def test_elastic_strategy_needs_no_flag(self):
        """The CI elastic smoke, shrunk to six jobs (two shrinks land)."""
        config = HarnessConfig(
            trace=LoadTraceConfig(
                seed=42, num_jobs=6, scales=(16.0,), slack_range=(0.6, 1.0)
            ),
            strategy="elastic",
            recurring_tenants=0,
            trace_days=30,
        )
        registry = MetricsRegistry()
        harness = LoadHarness(config, metrics=registry)
        report = harness.run()
        assert report.fingerprint() == (
            "fae827ae9a2af12162c16e6b973c27f98ec113fe6b401273615692c71193cbbb"
        )
        # The strategy's rescale_policy alone turns the elastic path on.
        assert report.elastic
        assert report.rescale_shrinks == 2 and report.missed == 0
        assert all(
            s.frontier_curve is not None for s in harness._simulators.values()
        )
        assert "Elastic rescaling" in report.render()
        rescales = registry.counter("load_rescales_total")
        assert rescales.value(action="shrink") == report.rescale_shrinks
        assert rescales.value(action="other") == (
            report.rescales - report.rescale_shrinks
        )
        assert registry.counter("load_rescale_seconds_total").value() == (
            report.rescale_seconds
        )


class TestLoadCli:
    def test_cli_smoke(self, tmp_path, capsys):
        from repro.load.__main__ import main

        out = tmp_path / "artifacts"
        code = main(
            [
                "--jobs", "30",
                "--seed", "3",
                "--trace-days", "8",
                "--recurring-tenants", "1",
                "--recurring-periods", "2",
                "--out", str(out),
            ]
        )
        assert code == 0
        printed = capsys.readouterr().out
        assert "Load harness — workload" in printed
        assert (out / "report.txt").exists()
        assert (out / "metrics.prom").read_text().startswith("# ")
        reloaded = ArrivalTrace.from_jsonl(out / "trace.jsonl")
        assert len(reloaded.jobs) == 30
