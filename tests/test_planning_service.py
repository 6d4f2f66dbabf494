"""The multi-tenant planning service: admission, equivalence, caching.

The service's contract is *bit-identity with a private estimator*:
routing decisions through shared estimator caches, shared market
snapshots, a batched API, or a thread pool must never change what is
decided — only how fast.  These tests pin that contract with fig5/fig9
cells as oracles (``tests/test_decision_goldens.py`` holds the frozen
outputs of the retired per-job provisioner), plus the
admission/invalidations/telemetry behaviour the service adds on top.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace

import pytest

from repro.cloud.instance import R4_FAMILY
from repro.cloud.market import SpotMarket
from repro.core.expected_cost import PRICE_TOLERANCE, ApproximateCostEstimator
from repro.core.job import COLORING_PROFILE, PAGERANK_PROFILE, SSSP_PROFILE, job_with_slack
from repro.core.provisioner import HourglassProvisioner, ProvisioningContext
from repro.core.recurring import InterleavedRecurringDriver, RecurringJobSpec
from repro.core.simulator import ExecutionSimulator
from repro.core.slack import SlackModel
from repro.experiments.common import ExperimentSetup
from repro.service import PlanError, PlanningService, PlanRequest
from repro.service.planning import RescaleQuery
from repro.utils.units import HOURS


@pytest.fixture(scope="module")
def setup() -> ExperimentSetup:
    return ExperimentSetup(seed=42, trace_days=12)


def _slack_model(setup, profile, slack=0.5, start=0.0):
    perf = setup.perf_model(profile)
    lrc = setup.lrc(perf)
    job = job_with_slack(profile, start, slack, perf.fixed_time(lrc))
    return SlackModel(perf=perf, lrc=lrc, deadline=job.deadline)


class TestAdmission:
    def test_empty_catalog_rejected(self, setup):
        service = PlanningService(setup.market)
        sm = _slack_model(setup, PAGERANK_PROFILE)
        with pytest.raises(PlanError, match="empty catalogue"):
            service.plan(PlanRequest(slack_model=sm, catalog=()))

    def test_transient_only_catalog_rejected(self, setup):
        service = PlanningService(setup.market)
        sm = _slack_model(setup, PAGERANK_PROFILE)
        transient = tuple(c for c in setup.catalog if c.is_transient)
        with pytest.raises(PlanError, match="on-demand"):
            service.plan(PlanRequest(slack_model=sm, catalog=transient))

    def test_unknown_strategy_rejected(self, setup):
        service = PlanningService(setup.market)
        sm = _slack_model(setup, PAGERANK_PROFILE)
        with pytest.raises(PlanError, match="unknown strategy"):
            service.plan(
                PlanRequest(slack_model=sm, catalog=setup.catalog, strategy="nope")
            )
        # A request that produced no PlanResult is not a plan.
        assert service.service_stats()["plans"] == 0

    @pytest.mark.parametrize(
        "grids",
        [
            {"slack_grid": 0},
            {"slack_grid": -5.0},
            {"slack_grid": float("nan")},
            {"work_grid": 0.0},
            {"work_grid": float("inf")},
        ],
    )
    def test_unusable_grid_rejected_everywhere(self, setup, grids):
        """A grid the bucket arithmetic cannot divide by is an admission
        error on every entry point — never a ZeroDivisionError from
        inside the DP — and spares its batch-mates."""
        sm = _slack_model(setup, PAGERANK_PROFILE)
        good = PlanRequest(slack_model=sm, catalog=setup.catalog)
        bad = PlanRequest(slack_model=sm, catalog=setup.catalog, **grids)
        service = PlanningService(setup.market)
        with pytest.raises(PlanError, match="_grid must be a positive finite"):
            service.plan(bad)
        with pytest.raises(PlanError, match="_grid"):
            service.request_key(bad)
        with pytest.raises(PlanError, match="_grid"):
            service.plan_rescale(
                RescaleQuery(
                    slack_model=sm,
                    catalog=setup.catalog,
                    t=0.0,
                    work_left=1.0,
                    current_config=setup.catalog[0],
                    **grids,
                )
            )
        slots = service.plan_many([good, bad, good])
        assert isinstance(slots[1], PlanError)
        alone = PlanningService(setup.market).plan(good).decision
        assert slots[0].decision == alone and slots[2].decision == alone

    @pytest.mark.parametrize(
        "field, value, match, strategy",
        [
            ("t", lambda market: math.nan, "decision time", "hourglass"),
            ("t", lambda market: math.inf, "decision time", "hourglass"),
            ("t", lambda market: -math.inf, "decision time", "hourglass"),
            ("t", lambda market: market.start - 60.0, "decision time", "hourglass"),
            ("t", lambda market: market.horizon + 10.0, "decision time", "hourglass"),
            ("work_left", lambda market: math.nan, "work_left", "hourglass"),
            ("work_left", lambda market: math.inf, "work_left", "hourglass"),
            ("work_left", lambda market: -0.5, "work_left", "hourglass"),
            ("t", lambda market: market.horizon + 5.0, "decision time", "spoton"),
            ("t", lambda market: math.nan, "decision time", "proteus+dp"),
            ("t", lambda market: market.start - 60.0, "decision time", "on-demand"),
            ("work_left", lambda market: math.nan, "work_left", "spoton"),
            ("work_left", lambda market: -1.0, "work_left", "proteus"),
            ("work_left", lambda market: math.inf, "work_left", "hourglass-naive"),
        ],
        ids=[
            "t-nan", "t-inf", "t-neg-inf", "t-before", "t-after",
            "w-nan", "w-inf", "w-neg",
            "spoton-t-after", "proteus+dp-t-nan", "on-demand-t-before",
            "spoton-w-nan", "proteus-w-neg", "hourglass-naive-w-inf",
        ],
    )
    def test_unplannable_state_rejected_everywhere(
        self, setup, field, value, match, strategy
    ):
        """A decision the market cannot price (or a nonsense work
        fraction) is an admission error on every entry point and for
        every strategy — never a raw ValueError/OverflowError that takes
        its batch-mates down, nor a decision echoing the bad state."""
        sm = _slack_model(setup, SSSP_PROFILE)
        good = PlanRequest(slack_model=sm, catalog=setup.catalog)
        bad = replace(good, strategy=strategy, **{field: value(setup.market)})
        service = PlanningService(setup.market)
        with pytest.raises(PlanError, match=match):
            service.plan(bad)
        with pytest.raises(PlanError, match=match):
            service.request_key(bad)
        query = RescaleQuery(
            slack_model=sm,
            catalog=setup.catalog,
            t=bad.t,
            work_left=bad.work_left,
            current_config=setup.catalog[0],
        )
        with pytest.raises(PlanError, match=match):
            service.plan_rescale(query)
        slots = service.plan_many([good, bad, good])
        assert isinstance(slots[1], PlanError)
        alone = PlanningService(setup.market).plan(good).decision
        assert slots[0].decision == alone and slots[2].decision == alone
        assert service.service_stats()["plans"] == 2


class TestSingleDecisionEquivalence:
    """Fig 9-style oracle: one decision, service vs private estimator."""

    @pytest.mark.parametrize("slack", [0.1, 0.5, 1.0])
    @pytest.mark.parametrize(
        "profile", [SSSP_PROFILE, PAGERANK_PROFILE, COLORING_PROFILE]
    )
    def test_plan_matches_fresh_estimator(self, setup, profile, slack):
        sm = _slack_model(setup, profile, slack)
        estimator = ApproximateCostEstimator(sm, setup.market, setup.catalog)
        expected = estimator.best(0.0, 1.0)

        service = PlanningService(setup.market)
        request = PlanRequest(slack_model=sm, catalog=setup.catalog)
        cold = service.plan(request)
        warm = service.plan(request)
        assert cold.decision == expected  # exact float equality
        assert warm.decision == expected
        assert not cold.telemetry.estimator_reused
        assert warm.telemetry.estimator_reused
        assert warm.telemetry.snapshot_reused


class TestSweepEquivalence:
    """Fig 5-style oracle: a cell's jobs, shared vs private services."""

    def test_shared_service_matches_private_services(self, setup):
        """Cross-job warm state on one service never changes a run."""
        shared = PlanningService(setup.market)

        def outcomes(service_for):
            out = []
            for profile in (SSSP_PROFILE, PAGERANK_PROFILE):
                perf = setup.perf_model(profile)
                deadline_fixed = perf.fixed_time(setup.lrc(perf))
                sim = ExecutionSimulator(
                    setup.market, perf, setup.catalog, "hourglass",
                    record_events=False, service=service_for(),
                )
                for start in setup.start_times(5, 48 * HOURS, seed_key=profile.name):
                    result = sim.run(
                        job_with_slack(profile, float(start), 0.5, deadline_fixed)
                    )
                    out.append(
                        (result.cost, result.missed_deadline, result.evictions,
                         result.deployments)
                    )
            return out

        assert outcomes(lambda: shared) == outcomes(
            lambda: PlanningService(setup.market)
        )


class TestConcurrency:
    def test_thread_pool_matches_serial(self, setup):
        """Concurrent plan() calls return bit-identical decisions."""
        requests = [
            PlanRequest(
                slack_model=_slack_model(setup, profile, slack, start=start),
                catalog=setup.catalog,
                t=start,
                work_left=work,
            )
            for profile in (SSSP_PROFILE, PAGERANK_PROFILE, COLORING_PROFILE)
            for slack in (0.3, 0.9)
            for start, work in ((0.0, 1.0), (2 * HOURS, 0.6))
        ]
        serial = [PlanningService(setup.market).plan(r).decision for r in requests]
        service = PlanningService(setup.market)
        with ThreadPoolExecutor(max_workers=8) as pool:
            concurrent = [r.decision for r in pool.map(service.plan, requests)]
        assert concurrent == serial
        # And again on the now-warm service: still identical.
        with ThreadPoolExecutor(max_workers=8) as pool:
            warm = [r.decision for r in pool.map(service.plan, requests)]
        assert warm == serial

    def test_plan_many_matches_plan_loop(self, setup):
        requests = [
            PlanRequest(
                slack_model=_slack_model(setup, profile, 0.5),
                catalog=setup.catalog,
                t=600.0 * i,
                work_left=1.0 - 0.07 * i,
                strategy=strategy,
            )
            for i, (profile, strategy) in enumerate(
                [
                    (SSSP_PROFILE, "hourglass"),
                    (PAGERANK_PROFILE, "hourglass"),
                    (SSSP_PROFILE, "spoton"),
                    (SSSP_PROFILE, "hourglass"),
                    (PAGERANK_PROFILE, "on-demand"),
                    (PAGERANK_PROFILE, "hourglass"),
                ]
            )
        ]
        loop = [PlanningService(setup.market).plan(r) for r in requests]
        batched = PlanningService(setup.market).plan_many(requests)
        assert [r.decision for r in batched] == [r.decision for r in loop]


class TestInvalidation:
    """The price-drift epoch matches the legacy ``price_tolerance`` rule."""

    def _drift_times(self, setup, sm, tolerance):
        """A time pair within tolerance and one beyond it, from the trace."""
        import numpy as np

        rates0 = setup.market.config_rates(setup.catalog, 0.0)
        small = large = None
        for t in np.arange(300.0, setup.market.horizon / 3, 300.0):
            rates = setup.market.config_rates(setup.catalog, float(t))
            drift = float(np.max(np.abs(rates / rates0 - 1.0)))
            if small is None and 0 < drift <= tolerance / 2:
                small = float(t)
            if large is None and drift > 2 * tolerance:
                large = float(t)
            if small is not None and large is not None:
                return small, large
        pytest.skip("trace never produced the required drift pattern")

    def test_epoch_tracks_price_tolerance(self, setup):
        sm = _slack_model(setup, PAGERANK_PROFILE, 0.5)
        service = PlanningService(setup.market)
        small, large = self._drift_times(setup, sm, PRICE_TOLERANCE)

        first = service.plan(PlanRequest(slack_model=sm, catalog=setup.catalog, t=0.0))
        epoch0 = first.telemetry.epoch
        within = service.plan(
            PlanRequest(slack_model=sm, catalog=setup.catalog, t=small)
        )
        assert within.telemetry.epoch == epoch0  # tolerated drift: memo kept
        assert within.telemetry.invalidations == 0
        beyond = service.plan(
            PlanRequest(slack_model=sm, catalog=setup.catalog, t=large)
        )
        assert beyond.telemetry.epoch == epoch0 + 1  # retired epoch
        assert beyond.telemetry.invalidations == 1

    def test_invalidation_matches_legacy_memo_drop(self, setup):
        """The service decides exactly as a legacy estimator across drift."""
        sm = _slack_model(setup, PAGERANK_PROFILE, 0.5)
        service = PlanningService(setup.market)
        small, large = self._drift_times(setup, sm, PRICE_TOLERANCE)

        legacy = ApproximateCostEstimator(sm, setup.market, setup.catalog)
        for t in (0.0, small, large):
            expected = legacy.best(t, 1.0)
            got = service.plan(
                PlanRequest(slack_model=sm, catalog=setup.catalog, t=t)
            )
            assert got.decision == expected


class TestCacheStats:
    def test_estimator_counters(self, setup):
        sm = _slack_model(setup, PAGERANK_PROFILE, 0.5)
        estimator = ApproximateCostEstimator(sm, setup.market, setup.catalog)
        assert estimator.cache_stats().as_dict() == {
            "hits": 0,
            "misses": 0,
            "hit_rate": 0.0,
            "invalidations": 0,
            "entries": 0,
            "epoch": 0,
        }
        cold = estimator.best(0.0, 1.0)
        stats = estimator.cache_stats()
        assert stats.misses > 0
        assert stats.entries == stats.misses  # every miss memoised a state
        assert estimator.best(0.0, 1.0) == cold  # the warm answer is the cold one
        again = estimator.cache_stats()
        assert again.hits > stats.hits
        assert again.misses == stats.misses
        estimator.invalidate()
        cleared = estimator.cache_stats()
        assert cleared.entries == 0
        assert cleared.invalidations == 1
        assert cleared.epoch == stats.epoch + 1

    def test_service_aggregates(self, setup):
        service = PlanningService(setup.market)
        for profile in (SSSP_PROFILE, PAGERANK_PROFILE):
            sm = _slack_model(setup, profile, 0.5)
            service.plan(PlanRequest(slack_model=sm, catalog=setup.catalog))
        stats = service.cache_stats()
        assert stats.misses > 0 and stats.entries > 0
        svc = service.service_stats()
        assert svc["plans"] == 2
        assert svc["estimators"] == 2  # distinct performance fingerprints


class TestTelemetryFlow:
    def test_decision_hook_collects_decisions(self, setup):
        profile = SSSP_PROFILE
        perf = setup.perf_model(profile)
        sim = ExecutionSimulator(
            setup.market,
            perf,
            setup.catalog,
            "hourglass",
            record_events=False,
        )
        assert isinstance(sim.provisioner, HourglassProvisioner)
        assert sim.provisioner.service is sim.service
        seen = []
        sim.service.add_decision_hook(lambda request, result: seen.append(result.telemetry))
        job = job_with_slack(profile, 0.0, 0.5, perf.fixed_time(setup.lrc(perf)))
        result = sim.run(job)
        assert len(seen) >= 1
        assert sum(tel.latency_s for tel in seen) > 0
        assert result.provisioner_name == "hourglass"

    def test_private_service_follows_the_context_market(self, setup):
        """A service-less provisioner never answers from a stale market."""
        provisioner = HourglassProvisioner()
        sm = _slack_model(setup, PAGERANK_PROFILE, 0.5)

        def ctx(market):
            return ProvisioningContext(
                t=0.0,
                work_left=1.0,
                current_config=None,
                current_uptime=0.0,
                slack_model=sm,
                market=market,
                catalog=setup.catalog,
            )

        provisioner.select(ctx(setup.market))
        first = provisioner._private
        assert first.market is setup.market
        provisioner.select(ctx(setup.market))
        assert provisioner._private is first  # same market: stays warm
        other = SpotMarket.synthetic(R4_FAMILY, duration=2 * 24 * HOURS, seed=8)
        provisioner.reset()
        provisioner.select(ctx(other))
        assert provisioner._private.market is other
        assert provisioner.last_decision == (
            PlanningService(other)
            .plan(PlanRequest(slack_model=sm, catalog=setup.catalog))
            .decision
        )
        assert first.service_stats()["plans"] == 2  # untouched by the switch


class TestInterleavedRecurring:
    def test_matches_independent_drivers(self, setup):
        """Interleaving changes the execution order, never the outcomes."""
        specs = []
        outcomes_solo = {}
        for name, profile, period, offset in (
            ("ranks", PAGERANK_PROFILE, 6 * HOURS, 0.0),
            ("paths", SSSP_PROFILE, 4 * HOURS, 1 * HOURS),
        ):
            perf = setup.perf_model(profile)
            solo_sim = ExecutionSimulator(
                setup.market, perf, setup.catalog, "hourglass", record_events=False
            )
            solo = RecurringJobSpec(name, solo_sim, profile, period)
            outcomes_solo.update(InterleavedRecurringDriver([solo]).run(offset, 3))
            specs.append(
                RecurringJobSpec(
                    name=name,
                    simulator=ExecutionSimulator(
                        setup.market, perf, setup.catalog, "hourglass",
                        record_events=False,
                    ),
                    profile=profile,
                    period=period,
                    offset=offset,
                )
            )
        outcomes = InterleavedRecurringDriver(specs).run(0.0, 3)
        assert outcomes == outcomes_solo

    def test_shared_service_stays_equivalent_and_warm(self, setup):
        """One service under both tenants: same outcomes, warm reuse."""
        service = PlanningService(setup.market)
        specs = []
        for name, profile, period, offset in (
            ("ranks", PAGERANK_PROFILE, 6 * HOURS, 0.0),
            ("ranks-shifted", PAGERANK_PROFILE, 6 * HOURS, 2 * HOURS),
        ):
            perf = setup.perf_model(profile)
            specs.append(
                RecurringJobSpec(
                    name=name,
                    simulator=ExecutionSimulator(
                        setup.market, perf, setup.catalog, "hourglass",
                        record_events=False, service=service,
                    ),
                    profile=profile,
                    period=period,
                    offset=offset,
                )
            )
        outcomes = InterleavedRecurringDriver(specs).run(0.0, 2)

        solo = {}
        for spec in specs:
            perf = setup.perf_model(spec.profile)
            sim = ExecutionSimulator(
                setup.market, perf, setup.catalog, "hourglass", record_events=False
            )
            alone = replace(spec, simulator=sim, offset=0.0)
            solo.update(InterleavedRecurringDriver([alone]).run(spec.offset, 2))
        assert outcomes == solo
        # Both tenants share one catalogue+performance fingerprint, so
        # the second tenant's decisions hit the first tenant's estimator.
        assert service.service_stats()["estimators"] == 1
        assert service.cache_stats().hits > 0

    def test_validation(self, setup):
        perf = setup.perf_model(SSSP_PROFILE)
        sim = ExecutionSimulator(
            setup.market, perf, setup.catalog, "hourglass", record_events=False
        )
        spec = RecurringJobSpec(
            name="a", simulator=sim, profile=SSSP_PROFILE, period=HOURS
        )
        with pytest.raises(ValueError, match="at least one"):
            InterleavedRecurringDriver([])
        with pytest.raises(ValueError, match="unique"):
            InterleavedRecurringDriver([spec, spec])
        with pytest.raises(ValueError, match="positive"):
            InterleavedRecurringDriver(
                [
                    RecurringJobSpec(
                        name="b", simulator=sim, profile=SSSP_PROFILE, period=0.0
                    )
                ]
            )
