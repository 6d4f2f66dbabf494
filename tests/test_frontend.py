"""Async frontend: inline planning and per-tick coalescing.

The serving-layer contract under test:

* **Coalescing is invisible** — N identical requests in one event-loop
  tick cost one ``service.plan`` call, and every caller receives the
  identical :class:`PlanResult` the sequential path would have produced.
  The same key in a later tick is planned again.
* **Failures are never shared** — a plan that raises gives each caller
  its own :class:`PlanError`, and nothing is kept for its key.
* **Every submission is accounted** — ``submitted = planned + coalesced
  + rejected + overflowed`` after any mix of outcomes.
* **No thread** — planning runs on the event-loop thread; the frontend
  starts none.
"""

from __future__ import annotations

import asyncio
import contextlib
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace

import pytest

from repro.core.job import PAGERANK_PROFILE, SSSP_PROFILE, job_with_slack
from repro.core.slack import SlackModel
from repro.experiments.common import ExperimentSetup
from repro.obs.metrics import MetricsRegistry
from repro.service import (
    FrontendConfig,
    PlanError,
    PlanFrontend,
    PlanningService,
    PlanRequest,
    PlanResult,
    PoolConfig,
)
from tools.prometheus import sample


@contextlib.asynccontextmanager
async def _running(service, config=None, metrics=None):
    """A frontend bound to the running loop for the block's length."""
    frontend = await PlanFrontend(service, config, metrics=metrics).start()
    try:
        yield frontend
    finally:
        await frontend.aclose()


class _CountingService(PlanningService):
    """A planning service that counts ``plan`` calls and can be made to
    raise a fresh error on each of them."""

    def __init__(self, market):
        super().__init__(market)
        self.plan_calls = 0
        self.failing = False

    def plan(self, request):
        self.plan_calls += 1
        if self.failing:
            raise RuntimeError(f"planner crashed on call {self.plan_calls}")
        return super().plan(request)


@pytest.fixture(scope="module")
def setup() -> ExperimentSetup:
    return ExperimentSetup(seed=42, trace_days=12)


def _slack_model(setup, profile, slack=0.5, start=0.0):
    perf = setup.perf_model(profile)
    lrc = setup.lrc(perf)
    job = job_with_slack(profile, start, slack, perf.fixed_time(lrc))
    return SlackModel(perf=perf, lrc=lrc, deadline=job.deadline)


def _request(setup, profile=PAGERANK_PROFILE, slack=0.5, **kwargs):
    return PlanRequest(
        slack_model=_slack_model(setup, profile, slack=slack),
        catalog=setup.catalog,
        **kwargs,
    )


# ----------------------------------------------------------------------
# Coalescing identity (request_key)
# ----------------------------------------------------------------------
class TestRequestKey:
    def test_identical_requests_share_a_key(self, setup):
        service = PlanningService(setup.market)
        a = _request(setup, t=100.0)
        b = _request(setup, t=100.0)
        assert service.request_key(a) == service.request_key(b)

    def test_different_slack_cells_do_not_share(self, setup):
        service = PlanningService(setup.market)
        a = _request(setup, slack=0.2)
        b = _request(setup, slack=0.9)
        assert service.request_key(a) != service.request_key(b)

    def test_baselines_never_coalesce(self, setup):
        service = PlanningService(setup.market)
        request = _request(setup, strategy="on-demand")
        assert service.request_key(request) is None

    def test_admission_applies(self, setup):
        service = PlanningService(setup.market)
        with pytest.raises(PlanError, match="empty catalogue"):
            service.request_key(
                replace(_request(setup), catalog=())
            )


# ----------------------------------------------------------------------
# Frontend: coalescing, bit-identity, backpressure
# ----------------------------------------------------------------------
class TestFrontendCoalescing:
    def test_concurrent_identical_requests_plan_once(self, setup):
        """N equal-key requests gathered in one tick: one ``service.plan``
        call, and every caller gets that call's very result."""
        service = _CountingService(setup.market)
        metrics = MetricsRegistry()
        request = _request(setup)
        n = 8

        async def drive():
            async with _running(service, metrics=metrics) as frontend:
                results = await asyncio.gather(
                    *(frontend.plan(request) for _ in range(n))
                )
                return results, frontend.stats()

        results, stats = asyncio.run(drive())
        assert service.plan_calls == 1
        assert isinstance(results[0], PlanResult)
        assert all(r is results[0] for r in results)
        assert (stats.planned, stats.coalesced, stats.submitted) == (1, n - 1, n)
        assert (stats.pool.batches, stats.pool.size_peak) == (1, 1)
        # Telemetry separates the planned request from the shared ones.
        assert sample(metrics, "svc_pool_requests_total", outcome="planned") == 1
        assert sample(metrics, "svc_pool_requests_total", outcome="coalesced") == n - 1

    def test_matches_sequential_plan_bit_for_bit(self, setup):
        request = _request(setup)
        sequential = PlanningService(setup.market).plan(request)

        async def drive():
            service = PlanningService(setup.market)
            async with _running(service) as frontend:
                return await frontend.plan(request)

        via_frontend = asyncio.run(drive())
        assert via_frontend.decision == sequential.decision

    def test_distinct_requests_are_not_coalesced(self, setup):
        service = PlanningService(setup.market)

        async def drive():
            async with _running(service) as frontend:
                results = await asyncio.gather(
                    frontend.plan(_request(setup, slack=0.2)),
                    frontend.plan(_request(setup, slack=0.9)),
                )
                return results, frontend.stats()

        (low, high), stats = asyncio.run(drive())
        assert isinstance(low, PlanResult) and isinstance(high, PlanResult)
        assert stats.coalesced == 0 and stats.planned == 2
        assert service.service_stats()["plans"] == 2

    def test_admission_rejection_counts_and_raises(self, setup):
        service = PlanningService(setup.market)

        async def drive():
            async with _running(service) as frontend:
                with pytest.raises(PlanError, match="empty catalogue"):
                    await frontend.plan(replace(_request(setup), catalog=()))
                return frontend.stats()

        stats = asyncio.run(drive())
        assert stats.rejected == 1 and stats.planned == 0

    def test_keying_crash_is_counted_and_chained(self, setup):
        """Any keying failure is a rejection: the accounting identity
        holds and the caller sees a PlanError caused by the original."""
        service = PlanningService(setup.market)
        broken = PlanRequest(slack_model=None, catalog=setup.catalog)

        async def drive():
            async with _running(service) as frontend:
                await frontend.plan(_request(setup, SSSP_PROFILE))
                with pytest.raises(PlanError, match="keying") as info:
                    await frontend.plan(broken)
                return info.value, frontend.stats()

        error, stats = asyncio.run(drive())
        assert isinstance(error.__cause__, AttributeError)
        assert stats.rejected == 1 and stats.planned == 1
        assert stats.submitted == (
            stats.planned + stats.coalesced + stats.rejected + stats.overflowed
        )


class TestTickCoalescing:
    def test_same_key_in_a_later_tick_is_planned_again(self, setup):
        service = _CountingService(setup.market)
        request = _request(setup)

        async def drive():
            async with _running(service) as frontend:
                first = await frontend.plan(request)
                await asyncio.sleep(0)  # the loop moves on to its next tick
                second = await frontend.plan(request)
                return first, second, frontend.stats()

        first, second, stats = asyncio.run(drive())
        assert service.plan_calls == 2
        assert first is not second
        assert first.decision == second.decision
        assert (stats.planned, stats.coalesced) == (2, 0)

    def test_raising_plan_is_never_shared(self, setup):
        """Each caller of a failing key plans, and fails, on its own; the
        failure leaves nothing behind for the next caller of the tick."""
        service = _CountingService(setup.market)
        request = _request(setup)
        n = 4

        async def drive():
            async with _running(service) as frontend:
                service.failing = True
                errors = await asyncio.gather(
                    *(frontend.plan(request) for _ in range(n)),
                    return_exceptions=True,
                )
                service.failing = False
                # Same tick as the failures: nothing was kept for the key.
                result = await frontend.plan(request)
                return errors, result, frontend.stats()

        errors, result, stats = asyncio.run(drive())
        assert all(isinstance(e, PlanError) for e in errors)
        assert len({id(e) for e in errors}) == n
        assert all(isinstance(e.__cause__, RuntimeError) for e in errors)
        assert len({str(e.__cause__) for e in errors}) == n  # one plan each
        assert isinstance(result, PlanResult)
        assert service.plan_calls == n + 1
        assert (stats.planned, stats.coalesced) == (n + 1, 0)

    def test_accounting_identity_after_mixed_burst(self, setup):
        """Duplicates, distinct requests, baselines, an unpriced request,
        an unpriced baseline and a request that crashes keying in one
        burst: each submission lands in exactly one outcome, and the
        rejected ones spare the rest."""
        service = PlanningService(setup.market)
        metrics = MetricsRegistry()
        duplicate = _request(setup, SSSP_PROFILE)
        distinct = [_request(setup, SSSP_PROFILE, slack=0.1 + 0.1 * i) for i in range(3)]
        baseline = _request(setup, SSSP_PROFILE, strategy="spoton")
        unpriced = _request(setup, SSSP_PROFILE, t=setup.market.horizon + 10.0)
        unpriced_baseline = replace(unpriced, strategy="spoton")
        broken = PlanRequest(slack_model=None, catalog=setup.catalog)
        burst = [
            duplicate, *distinct, unpriced, duplicate, baseline,
            unpriced_baseline, duplicate, broken, baseline,
        ]

        async def drive():
            async with _running(service, metrics=metrics) as frontend:
                outcomes = await asyncio.gather(
                    *(frontend.plan(r) for r in burst), return_exceptions=True
                )
                return outcomes, frontend.stats()

        outcomes, stats = asyncio.run(drive())
        rejected = [i for i, o in enumerate(outcomes) if isinstance(o, PlanError)]
        assert rejected == [4, 7, 9]
        assert "decision time" in str(outcomes[4]) and "decision time" in str(outcomes[7])
        assert all(isinstance(o, PlanResult) for o in outcomes if not isinstance(o, PlanError))
        # 1 duplicate + 3 distinct + 2 baselines (never coalesced) planned.
        assert (stats.planned, stats.coalesced, stats.rejected, stats.overflowed) == (
            6, 2, 3, 0,
        )
        assert stats.submitted == len(burst) == (
            stats.planned + stats.coalesced + stats.rejected + stats.overflowed
        )
        for outcome in ("planned", "coalesced", "rejected"):
            assert sample(metrics, "svc_pool_requests_total", outcome=outcome) == getattr(
                stats, outcome
            )

    def test_no_thread_is_started(self, setup):
        service = PlanningService(setup.market)
        burst = [_request(setup, SSSP_PROFILE, slack=0.1 * (i % 5 + 1)) for i in range(40)]

        async def drive():
            counts = [threading.active_count()]
            frontend = await PlanFrontend(service).start()
            counts.append(threading.active_count())
            await asyncio.gather(*(frontend.plan(r) for r in burst))
            counts.append(threading.active_count())
            await frontend.aclose()
            counts.append(threading.active_count())
            return counts

        counts = asyncio.run(drive())
        assert counts == [counts[0]] * 4

    def test_plan_outside_start_and_aclose_raises(self, setup):
        service = PlanningService(setup.market)

        async def drive():
            frontend = PlanFrontend(service)
            with pytest.raises(PlanError, match="not running"):
                await frontend.plan(_request(setup))
            await frontend.start()
            await frontend.aclose()
            with pytest.raises(PlanError, match="not running"):
                await frontend.plan(_request(setup))

        asyncio.run(drive())


class TestServingPathsAgree:
    """A duplicate-heavy burst through every serving path.

    Single-lock ``plan`` from client threads, windowed ``plan_many`` and
    the frontend each answer the same burst on a service warmed with the
    templates; every replica of a template must receive the identical
    decision on every path, and the frontend must answer most
    duplicates by coalescing rather than planning them."""

    REPLICAS = 12
    WINDOW = 16

    def _templates(self, setup):
        return [
            _request(setup, profile, slack=slack)
            for profile in (SSSP_PROFILE, PAGERANK_PROFILE)
            for slack in (0.3, 0.8)
        ]

    def _warm(self, setup, templates):
        service = PlanningService(setup.market)
        for request in templates:
            service.plan(request)
        return service

    def test_every_path_decides_each_template_identically(self, setup):
        templates = self._templates(setup)
        burst = [templates[i % len(templates)] for i in range(self.REPLICAS * len(templates))]

        service = self._warm(setup, templates)
        with ThreadPoolExecutor(4) as pool:
            single_lock = [r.decision for r in pool.map(service.plan, burst)]

        service = self._warm(setup, templates)
        windowed = [
            r.decision
            for start in range(0, len(burst), self.WINDOW)
            for r in service.plan_many(burst[start : start + self.WINDOW])
        ]

        service = self._warm(setup, templates)
        config = FrontendConfig(
            max_inflight=len(burst),
            max_batch=self.WINDOW,
            pool=PoolConfig(min_workers=1, max_workers=2),
        )

        async def drive():
            async with _running(service, config, MetricsRegistry()) as frontend:
                results = await asyncio.gather(*(frontend.plan(r) for r in burst))
                return [r.decision for r in results], frontend.stats()

        fronted, stats = asyncio.run(drive())

        per_template = single_lock[: len(templates)]
        expected = [per_template[i % len(templates)] for i in range(len(burst))]
        assert single_lock == expected
        assert windowed == expected
        assert fronted == expected
        assert stats.coalesced >= 0.8 * (len(burst) - len(templates))


# ----------------------------------------------------------------------
# cache_stats: atomic snapshot under concurrency
# ----------------------------------------------------------------------
class TestCacheStatsSnapshot:
    def test_consistent_under_concurrent_planning(self, setup):
        service = PlanningService(setup.market)
        requests = [
            _request(setup, profile=profile, slack=slack, t=float(t))
            for profile in (PAGERANK_PROFILE, SSSP_PROFILE)
            for slack in (0.3, 0.7)
            for t in (0, 900)
        ]

        def reader():
            for _ in range(50):
                stats = service.cache_stats()
                assert stats.hits >= 0 and stats.misses >= 0
                assert stats.entries >= 0

        with ThreadPoolExecutor(4) as ex:
            futures = [ex.submit(service.plan_many, requests) for _ in range(2)]
            futures += [ex.submit(reader) for _ in range(2)]
            for future in futures:
                future.result(timeout=120)
        final = service.cache_stats()
        assert final.hits + final.misses > 0
