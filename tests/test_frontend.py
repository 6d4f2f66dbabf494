"""Async frontend + planner pool: coalescing, batching, backpressure, scaling.

The serving-layer contract under test:

* **Coalescing is invisible** — N concurrent identical requests cost one
  estimator evaluation, and every waiter receives the bit-identical
  :class:`PlanResult` the sequential path would have produced.
* **Nothing is silently dropped** — every admitted submission resolves
  to a result or an error; overflow fails fast with
  :class:`FrontendOverloadError` before anything is queued.
* **The pool follows the load** — the square-root staffing rule powers
  workers up inside one burst sample and back down only after the
  trough proves itself (asymmetric hysteresis).
"""

from __future__ import annotations

import asyncio
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace

import pytest

from repro.core.job import PAGERANK_PROFILE, SSSP_PROFILE, job_with_slack
from repro.core.slack import SlackModel
from repro.experiments.common import ExperimentSetup
from repro.obs.metrics import MetricsRegistry
from repro.service import (
    Autoscaler,
    FrontendConfig,
    FrontendOverloadError,
    PlanError,
    PlanFrontend,
    PlannerPool,
    PlanningService,
    PlanRequest,
    PlanResult,
    PoolConfig,
)


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
# Autoscaler policy
# ----------------------------------------------------------------------
class TestAutoscaler:
    def test_compute_n_clamps_and_grows(self):
        scaler = Autoscaler(PoolConfig(min_workers=1, max_workers=8))
        assert scaler.compute_n(0.0) == 1
        sizes = [scaler.compute_n(rho) for rho in (0.0, 0.5, 1.0, 2.0, 4.0, 8.0, 100.0)]
        assert sizes == sorted(sizes)  # monotone in offered load
        assert sizes[-1] == 8  # clamped at max_workers
        assert scaler.compute_n(-3.0) == 1  # negative load treated as idle

    def test_square_root_safety_margin(self):
        # The staffing equation keeps n* strictly above rho (headroom
        # grows like sqrt(rho) — the M/M/N-style margin).
        scaler = Autoscaler(PoolConfig(min_workers=1, max_workers=1000))
        for rho in (1.0, 4.0, 16.0, 64.0):
            n = scaler.compute_n(rho)
            assert rho < n <= rho + 1 + 2 * (rho**0.5)

    def test_scale_up_is_immediate(self):
        scaler = Autoscaler(PoolConfig(min_workers=1, max_workers=8))
        assert scaler.observe(12, current_size=1) > 1  # one burst sample

    def test_scale_down_needs_consecutive_votes(self):
        scaler = Autoscaler(PoolConfig(min_workers=1, max_workers=8))
        size = scaler.observe(12, 1)
        assert size > 1
        # Two idle votes: not enough.
        assert scaler.observe(0, size) == size
        assert scaler.observe(0, size) == size
        # An interleaved burst resets the down votes.
        assert scaler.observe(12, size) == size
        assert scaler.observe(0, size) == size
        assert scaler.observe(0, size) == size
        # The third consecutive idle vote powers down.
        assert scaler.observe(0, size) < size

    def test_config_validation(self):
        with pytest.raises(ValueError, match="min_workers"):
            PoolConfig(min_workers=0)
        with pytest.raises(ValueError, match="max_workers"):
            PoolConfig(min_workers=4, max_workers=2)
        with pytest.raises(ValueError, match="max_inflight"):
            FrontendConfig(max_inflight=0)
        with pytest.raises(ValueError, match="max_batch"):
            FrontendConfig(max_batch=0)


# ----------------------------------------------------------------------
# PlannerPool mechanics (stub service: no estimator cost)
# ----------------------------------------------------------------------
class _StubService:
    """plan_many echoes its inputs; optionally gated on an event."""

    def __init__(self, gate: threading.Event | None = None, delay: float = 0.0):
        self.gate = gate
        self.delay = delay
        self.calls: list[int] = []

    def request_key(self, request):
        return None

    def plan_many(self, requests):
        if self.gate is not None:
            self.gate.wait(timeout=30)
        if self.delay:
            time.sleep(self.delay)
        self.calls.append(len(requests))
        return [("planned", req) for req in requests]


class TestPlannerPool:
    def test_batches_resolve_in_request_order(self):
        service = _StubService()
        with PlannerPool(service, PoolConfig(), metrics=MetricsRegistry()) as pool:
            futures = [pool.submit_batch([f"r{i}a", f"r{i}b"]) for i in range(5)]
            for i, future in enumerate(futures):
                assert future.result(timeout=30) == [
                    ("planned", f"r{i}a"),
                    ("planned", f"r{i}b"),
                ]
        stats = pool.stats()
        assert stats.batches == 5 and stats.requests == 10 and stats.batch_max == 2

    def test_scales_up_under_load_and_decays_idle(self):
        service = _StubService(delay=0.005)
        pool = PlannerPool(
            service, PoolConfig(min_workers=1, max_workers=6), metrics=MetricsRegistry()
        )
        futures = [pool.submit_batch(["x"] * 4) for _ in range(30)]
        for future in futures:
            future.result(timeout=30)
        assert pool.stats().size_peak > 1
        assert pool.stats().scale_ups >= 1
        pool.close()

    def test_close_drains_queued_batches(self):
        # One worker, gated: queue several batches behind the gate, then
        # close concurrently — FIFO drain means every batch still
        # resolves (the no-silent-drop guarantee).
        gate = threading.Event()
        service = _StubService(gate=gate)
        pool = PlannerPool(
            service,
            PoolConfig(min_workers=1, max_workers=1),
            metrics=MetricsRegistry(),
        )
        futures = [pool.submit_batch([i]) for i in range(4)]
        with ThreadPoolExecutor(1) as ex:
            closer = ex.submit(pool.close)
            gate.set()
            closer.result(timeout=30)
        for i, future in enumerate(futures):
            assert future.result(timeout=1) == [("planned", i)]
        with pytest.raises(RuntimeError, match="closed"):
            pool.submit_batch(["late"])


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
        service = PlanningService(setup.market)
        metrics = MetricsRegistry()
        request = _request(setup)
        n = 8

        async def drive():
            async with PlanFrontend(service, metrics=metrics) as frontend:
                results = await asyncio.gather(
                    *(frontend.plan(request) for _ in range(n))
                )
                return results, frontend.stats()

        results, stats = asyncio.run(drive())
        # One estimator evaluation answered all of them...
        assert service.service_stats()["plans"] == 1
        assert stats.planned == 1 and stats.coalesced == n - 1
        assert stats.submitted == n
        # ...and every waiter got the identical decision.
        assert all(isinstance(r, PlanResult) for r in results)
        first = results[0]
        assert all(r.decision == first.decision for r in results)
        # Telemetry separates the leader from the coalesced waiters.
        counter = metrics.counter(
            "svc_pool_requests_total", "Frontend submissions by outcome"
        )
        assert counter.value(outcome="planned") == 1
        assert counter.value(outcome="coalesced") == n - 1

    def test_matches_sequential_plan_bit_for_bit(self, setup):
        request = _request(setup)
        sequential = PlanningService(setup.market).plan(request)

        async def drive():
            service = PlanningService(setup.market)
            async with PlanFrontend(service) as frontend:
                return await frontend.plan(request)

        via_frontend = asyncio.run(drive())
        assert via_frontend.decision == sequential.decision

    def test_distinct_requests_are_not_coalesced(self, setup):
        service = PlanningService(setup.market)

        async def drive():
            async with PlanFrontend(service) as frontend:
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
            async with PlanFrontend(service) as frontend:
                with pytest.raises(PlanError, match="empty catalogue"):
                    await frontend.plan(replace(_request(setup), catalog=()))
                return frontend.stats()

        stats = asyncio.run(drive())
        assert stats.rejected == 1 and stats.planned == 0

    def test_unpriced_request_spares_its_dispatch_batch(self, setup):
        """A decision time past the market trace is rejected at keying,
        so the valid requests dispatched beside it still plan."""
        service = PlanningService(setup.market)
        good = [_request(setup, SSSP_PROFILE, slack=0.1 + 0.05 * i) for i in range(15)]
        bad = _request(setup, SSSP_PROFILE, t=setup.market.horizon + 10.0)
        burst = [*good[:7], bad, *good[7:]]

        async def drive():
            async with PlanFrontend(service) as frontend:
                outcomes = await asyncio.gather(
                    *(frontend.plan(r) for r in burst), return_exceptions=True
                )
                return outcomes, frontend.stats()

        outcomes, stats = asyncio.run(drive())
        assert isinstance(outcomes[7], PlanError)
        assert "decision time" in str(outcomes[7])
        assert all(isinstance(o, PlanResult) for o in outcomes[:7] + outcomes[8:])
        assert stats.rejected == 1 and stats.planned + stats.coalesced == 15
        assert stats.submitted == 16

    def test_unpriced_baseline_spares_its_dispatch_batch(self, setup):
        """A baseline request passes the same state check: past the
        market trace it is rejected at keying, so the hourglass request
        it would have shared a dispatch with still plans."""
        service = PlanningService(setup.market)
        good = _request(setup, SSSP_PROFILE)
        bad = _request(
            setup, SSSP_PROFILE, strategy="spoton", t=setup.market.horizon + 5.0
        )

        async def drive():
            async with PlanFrontend(service) as frontend:
                outcomes = await asyncio.gather(
                    frontend.plan(good), frontend.plan(bad), return_exceptions=True
                )
                return outcomes, frontend.stats()

        (planned, rejected), stats = asyncio.run(drive())
        assert planned.decision == PlanningService(setup.market).plan(good).decision
        assert isinstance(rejected, PlanError)
        assert "decision time" in str(rejected)
        assert stats.rejected == 1 and stats.planned == 1

    def test_keying_crash_is_counted_and_chained(self, setup):
        """Any keying failure is a rejection: the accounting identity
        holds and the caller sees a PlanError caused by the original."""
        service = PlanningService(setup.market)
        broken = PlanRequest(slack_model=None, catalog=setup.catalog)

        async def drive():
            async with PlanFrontend(service) as frontend:
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

    def test_stats_read_one_pool_snapshot(self):
        frontend = PlanFrontend(_StubService(), metrics=MetricsRegistry())
        calls = []
        snapshot = frontend.pool.stats
        frontend.pool.stats = lambda: calls.append(1) or snapshot()
        stats = frontend.stats()
        frontend.pool.close()
        assert len(calls) == 1
        assert (stats.batches, stats.batch_max) == (
            stats.pool.batches,
            stats.pool.batch_max,
        )


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
            async with PlanFrontend(service, config, metrics=MetricsRegistry()) as frontend:
                results = await asyncio.gather(*(frontend.plan(r) for r in burst))
                return [r.decision for r in results], frontend.stats()

        fronted, stats = asyncio.run(drive())

        per_template = single_lock[: len(templates)]
        expected = [per_template[i % len(templates)] for i in range(len(burst))]
        assert single_lock == expected
        assert windowed == expected
        assert fronted == expected
        assert stats.coalesced >= 0.8 * (len(burst) - len(templates))


class TestFrontendBackpressure:
    def test_overflow_fails_fast_and_nothing_is_lost(self):
        gate = threading.Event()
        service = _StubService(gate=gate)
        config = FrontendConfig(
            max_inflight=2,
            max_batch=1,
            pool=PoolConfig(min_workers=1, max_workers=1),
        )

        async def drive():
            async with PlanFrontend(service, config) as frontend:
                first = asyncio.ensure_future(frontend.plan("req-a"))
                second = asyncio.ensure_future(frontend.plan("req-b"))
                await asyncio.sleep(0.01)  # both admitted, pool gated
                with pytest.raises(FrontendOverloadError, match="overloaded"):
                    await frontend.plan("req-c")
                stats_mid = frontend.stats()
                gate.set()
                outcomes = await asyncio.gather(
                    first, second, return_exceptions=True
                )
                return stats_mid, outcomes, frontend.stats()

        stats_mid, outcomes, stats = asyncio.run(drive())
        assert stats_mid.overflowed == 1
        # The admitted pair still resolved (stub outcomes surface as
        # PlanError — resolved-with-error, never lost).
        assert len(outcomes) == 2
        assert all(isinstance(o, PlanError) for o in outcomes)
        assert stats.submitted == stats.planned + stats.coalesced + stats.rejected + stats.overflowed

    def test_plan_after_close_raises(self, setup):
        service = PlanningService(setup.market)

        async def drive():
            frontend = PlanFrontend(service)
            await frontend.start()
            await frontend.aclose()
            with pytest.raises(PlanError, match="not running"):
                await frontend.plan(_request(setup))

        asyncio.run(drive())


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
