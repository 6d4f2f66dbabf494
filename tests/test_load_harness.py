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

import json
import math
import time
from dataclasses import fields

import pytest

from repro.core.job import PAGERANK_PROFILE, SSSP_PROFILE, job_with_slack
from repro.core.recurring import (
    InterleavedRecurringDriver,
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
from repro.obs.metrics import MetricsRegistry
from repro.obs.window import percentile
from repro.service import PlanError, PlanningService, PlanRequest, PlanResult
from tools.prometheus import sample

#: The ``# TYPE`` families of ``python -m repro.load --jobs 30 --seed 3
#: --trace-days 8 --recurring-tenants 1 --recurring-periods 2 --out DIR``.
PLAIN_FAMILIES = (
    "load_jobs_total",
    "load_plan_latency_seconds",
    "load_plan_latency_seconds_sum",
    "load_plan_latency_seconds_count",
    "load_plan_queue_wait_seconds",
    "load_plan_queue_wait_seconds_sum",
    "load_plan_queue_wait_seconds_count",
    "load_provider_idle_machine_seconds_total",
    "load_queue_peak",
    "load_recurring_windows_total",
    "load_runs_total",
    "load_service_time_seconds_total",
    "load_user_cost_dollars_total",
)
#: What ``--watch 600`` adds: SLO and tenant series.
WATCH_FAMILIES = (
    "slo_alerts_total",
    "slo_burn_rate",
    "tenant_cost_dollars_total",
    "tenant_idle_machine_seconds_total",
    "tenant_machine_seconds_total",
    "tenant_runs_total",
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
        slots = service.plan_many(requests)
        assert len(slots) == len(requests)
        assert isinstance(slots[2], PlanError)
        good = [s for i, s in enumerate(slots) if i != 2]
        assert all(isinstance(s, PlanResult) for s in good)
        # The surviving slots decide exactly what a clean batch decides.
        clean = service.plan_many([r for i, r in enumerate(requests) if i != 2])
        assert [s.decision for s in good] == [s.decision for s in clean]

    def test_unknown_strategy_is_per_slot_too(self, setup):
        service = PlanningService(setup.market)
        sm = _slack_model(setup, PAGERANK_PROFILE)
        requests = [
            PlanRequest(slack_model=sm, catalog=setup.catalog),
            PlanRequest(slack_model=sm, catalog=setup.catalog, strategy="nope"),
            PlanRequest(slack_model=sm, catalog=setup.catalog, strategy="on-demand"),
        ]
        slots = service.plan_many(requests)
        assert isinstance(slots[0], PlanResult)
        assert isinstance(slots[1], PlanError)
        assert isinstance(slots[2], PlanResult)

    def test_all_bad_batch_plans_nothing(self, setup):
        service = PlanningService(setup.market)
        sm = _slack_model(setup, PAGERANK_PROFILE)
        slots = service.plan_many([PlanRequest(slack_model=sm, catalog=())] * 3)
        assert all(isinstance(s, PlanError) for s in slots)

    def test_hooks_fire_only_for_planned_slots(self, setup):
        service = PlanningService(setup.market)
        seen = []
        service.add_decision_hook(lambda request, result: seen.append(result))
        requests = self._mixed_requests(setup)
        service.plan_many(requests)
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

    def test_plan_exposes_queue_wait_field(self, setup):
        service = PlanningService(setup.market)
        sm = _slack_model(setup, SSSP_PROFILE)
        result = service.plan(PlanRequest(slack_model=sm, catalog=setup.catalog))
        assert result.telemetry.queue_wait_s >= 0.0


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


def _one_schedule(simulator, profile, period: float, num_periods: int = 10):
    """One recurring schedule: a one-spec interleaved driver from t=0."""
    spec = RecurringJobSpec("solo", simulator, profile, period)
    return InterleavedRecurringDriver([spec]).run(0.0, num_periods)["solo"]


class TestSkippedWindows:
    def test_driver_counts_blown_through_windows(self):
        # Every run takes 2.5 periods: run window 0, blow through 1-2,
        # run 3 (started late, inside 2's window? no: release anchored),
        # etc.  With period 100 and overrun 250: windows hit are 0, 3, 6, 9.
        outcome = _one_schedule(
            _OverrunSimulator(overrun_s=250.0), SSSP_PROFILE, period=100.0
        )
        assert outcome.runs == 4
        assert outcome.skipped == 6
        assert outcome.missed == 4  # every run overruns its own deadline

    def test_miss_rate_alone_understates_overload(self):
        # A run that *meets* its own deadline but blew through earlier
        # windows: overrun 150 of period 100 -> each run finishes 50 s
        # into the next window (missing it) ... use 199: finishes within
        # the next window, missing its own deadline never happens only
        # if finish <= deadline; craft overrun < period so no skips, and
        # overrun in (period, 2*period) so exactly one skip per run.
        outcome = _one_schedule(
            _OverrunSimulator(overrun_s=150.0), SSSP_PROFILE, period=100.0
        )
        # The miss rate counts executed runs only; the violation rate
        # also sees the windows those runs blew through.
        assert outcome.skipped > 0
        miss_rate = outcome.missed / outcome.runs
        violation_rate = (outcome.missed + outcome.skipped) / (
            outcome.runs + outcome.skipped
        )
        assert violation_rate > miss_rate or miss_rate == 1.0

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
        private = _one_schedule(
            _OverrunSimulator(overrun_s=250.0), SSSP_PROFILE, period=100.0
        )
        assert outcomes["overloaded"].runs == private.runs
        assert outcomes["overloaded"].skipped == private.skipped
        assert outcomes["overloaded"].missed == private.missed
        # The healthy tenant is untouched by its neighbour's overload.
        assert outcomes["healthy"].runs == 10
        assert outcomes["healthy"].skipped == 0
        assert outcomes["healthy"].missed == 0

    def test_outcome_backward_compatible_default(self):
        outcome = RecurringOutcome(results=(), period=60.0)
        assert outcome.skipped == 0
        assert outcome.runs == 0


# ----------------------------------------------------------------------
# Trace generation: determinism
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

    # Each of these used to hang generate_trace, build a degenerate trace
    # or fail deep inside it; construction alone must now refuse them.
    DEGENERATE = [
        ("burst_rate_multiplier", math.inf),
        ("arrivals_per_hour", math.inf),
        ("arrivals_per_hour", math.nan),
        ("burst_rate_multiplier", math.nan),
        ("burst_probability_per_hour", -0.5),
        ("burst_probability_per_hour", 3.0),
        ("scales", (-1.0,)),
        ("scales", ()),
        ("slack_range", (0.1, math.inf)),
        ("app_mix", (("sssp", math.nan), ("pagerank", 1.0))),
    ]

    @pytest.mark.parametrize(
        "field, value", DEGENERATE, ids=[f"{f}={v!r}" for f, v in DEGENERATE]
    )
    def test_config_rejects_degenerate_values(self, field, value):
        with pytest.raises(ValueError, match=field):
            LoadTraceConfig(**{field: value})


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
        assert sample(metrics, "load_jobs_total", outcome="planned") == report.planned
        assert sample(metrics, "load_runs_total", outcome="missed") == report.missed

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
        # Simulated outcomes and both memo rates are hashed.
        for moved in (
            dict(planned=report.planned + 1),
            dict(cache_hit_rate=0.123),
            dict(snapshot_hit_rate=0.456),
        ):
            assert replace(report, **moved).fingerprint() != report.fingerprint()

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

    def test_report_describes_the_trace_that_ran(self):
        """A given trace's identity wins over the configured one."""
        replayed = generate_trace(
            LoadTraceConfig(seed=9, num_jobs=12, num_tenants=3)
        )
        config = HarnessConfig(
            trace=LoadTraceConfig(seed=3, num_jobs=30, num_tenants=6),
            trace_days=8,
            recurring_tenants=0,
            execute=False,
        )
        report = LoadHarness(config, metrics=MetricsRegistry()).run(replayed)
        assert (report.seed, report.num_jobs, report.num_tenants) == (9, 12, 3)
        assert report.offered == 12
        assert report.trace_checksum == replayed.checksum()


class TestHarnessConfigValidation:
    @pytest.mark.parametrize(
        "overrides, message",
        [
            (dict(window_s=0.0), "window_s"),
            (dict(capacity_per_window=0), "capacity_per_window must be >= 1"),
            (dict(capacity_per_window=-1), "capacity_per_window"),
            (dict(queue_limit=-1), "queue_limit must be >= 0"),
            (dict(recurring_tenants=-1), "recurring_tenants"),
            (dict(recurring_periods=0), "recurring_periods"),
            (dict(strategy="bogus"), "unknown strategy 'bogus'"),
        ],
    )
    def test_rejected_at_construction(self, overrides, message):
        with pytest.raises(ValueError, match=message):
            HarnessConfig(**overrides)


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
        header, *jobs = (out / "trace.jsonl").read_text().splitlines()
        assert json.loads(header)["trace_config"]["num_jobs"] == 30
        assert len(jobs) == 30

    def test_metric_families_are_frozen(self, tmp_path):
        """Every ``# TYPE`` family ``metrics.prom`` carries, plain and with
        ``--watch``: no shipped artifact loses a series."""
        from repro.load.__main__ import main

        argv = [
            "--jobs", "30",
            "--seed", "3",
            "--trace-days", "8",
            "--recurring-tenants", "1",
            "--recurring-periods", "2",
        ]
        families = {}
        for mode, extra in (("plain", []), ("watch", ["--watch", "600"])):
            out = tmp_path / mode
            assert main([*argv, *extra, "--out", str(out)]) == 0
            families[mode] = {
                line.split()[2]
                for line in (out / "metrics.prom").read_text().splitlines()
                if line.startswith("# TYPE ")
            }
        assert families["plain"] == set(PLAIN_FAMILIES)
        assert families["watch"] == set(PLAIN_FAMILIES + WATCH_FAMILIES)

    @pytest.mark.parametrize(
        "argv",
        [
            ["--frontend"],
            ["--workers", "1:6"],
            ["--time-scale", "3600"],
            ["--require-scaling"],
            ["--slack-quantum", "0.1"],
        ],
        ids=lambda argv: argv[0],
    )
    def test_removed_flags_are_refused(self, argv):
        from repro.load.__main__ import build_parser

        with pytest.raises(SystemExit) as exit_info:
            build_parser().parse_args(argv)
        assert exit_info.value.code == 2

    def test_config_fields(self):
        """One planner path: no mode, pool band, pacing or slack quantum."""
        assert tuple(f.name for f in fields(HarnessConfig)) == (
            "trace",
            "window_s",
            "capacity_per_window",
            "queue_limit",
            "strategy",
            "execute",
            "trace_days",
            "recurring_tenants",
            "recurring_periods",
        )
        assert tuple(f.name for f in fields(LoadTraceConfig)) == (
            "seed",
            "num_jobs",
            "num_tenants",
            "arrivals_per_hour",
            "burst_rate_multiplier",
            "burst_probability_per_hour",
            "app_mix",
            "scales",
            "slack_range",
        )
