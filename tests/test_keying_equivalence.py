"""The planning service's keying, held to its original fingerprint loop.

``tests/keying_oracle.py`` keeps the keying routines as they were before
the identity-checked memo replaced the per-model fingerprint memo.  Every
key the service hands out — estimator keys from ``_keyed`` and the
frontend's coalescing keys from ``request_key`` — must be ``==`` to the
oracle's, on first sight and on a memo hit, and the estimators it builds
must be shared exactly as the oracle's keys say.  The memo may only key
on session objects the caller keeps (catalogue tuple, performance model,
last-resort configuration), so the tests also mutate a list catalogue,
recycle ``id()``\\ s and overflow the bound.
"""

from __future__ import annotations

import pickle
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace

import pytest

from repro.core.job import COLORING_PROFILE, PAGERANK_PROFILE, SSSP_PROFILE
from repro.core.slack import SlackModel
from repro.experiments.common import ExperimentSetup
from repro.service import PlanningService, PlanRequest, planning
from tests.keying_oracle import KeyingOracle


@pytest.fixture(scope="module")
def setup() -> ExperimentSetup:
    return ExperimentSetup(seed=42, trace_days=3)


def _session(setup, profile):
    perf = setup.perf_model(profile)
    return perf, setup.lrc(perf)


def _deadline(perf, lrc, t, slack):
    return t + perf.fixed_time(lrc) + perf.exec_time(lrc) * (1.0 + slack)


def _requests(setup, service):
    """Every kind of request the service keys, in a deliberately mixed order."""
    t0 = setup.market.start + 3600.0
    out = []
    # Bench-shaped templates: grids pinned per (app, scale) at the median
    # slack, one slack decile per template, a fresh SlackModel per burst.
    for profile in (SSSP_PROFILE, PAGERANK_PROFILE, COLORING_PROFILE):
        for scale in (1.0, 2.0):
            perf, lrc = _session(setup, profile.scaled(scale))
            anchor = SlackModel(perf=perf, lrc=lrc, deadline=_deadline(perf, lrc, 0.0, 0.5))
            grids = service.resolved_grids(anchor, 0.0, 1.0)
            for burst in range(2):
                t = t0 + 60.0 * burst
                for slack in (0.15, 0.55, 0.95):
                    sm = SlackModel(perf=perf, lrc=lrc, deadline=_deadline(perf, lrc, t, slack))
                    out.append(
                        PlanRequest(
                            slack_model=sm,
                            catalog=setup.catalog,
                            t=t,
                            slack_grid=grids[0],
                            work_grid=grids[1],
                        )
                    )
    perf, lrc = _session(setup, PAGERANK_PROFILE)
    twin, twin_lrc = _session(setup, PAGERANK_PROFILE)  # equal, not identical
    assert twin == perf and twin is not perf
    # One timing (save_time) moves: a larger checkpoint per vertex.
    heavier = perf.profile.state_bytes_per_vertex + 1.0
    tweaked = replace(perf, profile=replace(perf.profile, state_bytes_per_vertex=heavier))
    for model, model_lrc in ((perf, lrc), (twin, twin_lrc), (tweaked, lrc)):
        for slack, t, work in ((0.3, t0, 1.0), (0.9, t0 + 900.0, 0.6), (0.9, t0, 1.0)):
            sm = SlackModel(
                perf=model, lrc=model_lrc, deadline=_deadline(model, model_lrc, t, slack)
            )
            # Adaptive grids, pinned grids, a list catalogue, a
            # sub-catalogue, a running deployment.
            out.append(PlanRequest(slack_model=sm, catalog=setup.catalog, t=t, work_left=work))
            out.append(
                PlanRequest(
                    slack_model=sm,
                    catalog=setup.catalog,
                    t=t,
                    work_left=work,
                    slack_grid=30.0,
                    work_grid=0.02,
                )
            )
            out.append(
                PlanRequest(slack_model=sm, catalog=list(setup.catalog), t=t, work_left=work)
            )
            out.append(
                PlanRequest(
                    slack_model=sm,
                    catalog=tuple(c for c in setup.catalog if c.num_workers != 8),
                    t=t,
                    work_left=work,
                )
            )
            out.append(
                PlanRequest(
                    slack_model=sm,
                    catalog=setup.catalog,
                    t=t,
                    work_left=work,
                    current_config=setup.catalog[0],
                    current_uptime=1200.0,
                )
            )
    out.append(
        PlanRequest(slack_model=out[0].slack_model, catalog=setup.catalog, strategy="spoton")
    )
    return out


class TestKeysMatchTheOracle:
    def test_keys_equal_on_miss_and_hit(self, setup):
        service = PlanningService(setup.market)
        oracle = KeyingOracle(PlanningService(setup.market))
        requests = _requests(setup, service)
        for _round in range(2):  # first sight, then memo hits
            for request in requests:
                if request.strategy == "hourglass":
                    assert service._keyed(request) == oracle._keyed(request)
                assert service.request_key(request) == oracle.request_key(request)

    def test_estimators_shared_as_the_oracle_keys_say(self, setup):
        service = PlanningService(setup.market)
        oracle = KeyingOracle(service)
        requests = [
            r
            for r in _requests(setup, service)
            if r.strategy == "hourglass"
            and r.slack_model.perf.profile.name == SSSP_PROFILE.name
        ]
        keys = {oracle._keyed(r)[2] for r in requests}
        assert 1 < len(keys) < len(requests)
        service.plan_many(requests)
        assert service.service_stats()["estimators_built"] == len(keys)


class TestMemoSafety:
    def test_mutated_list_catalogue_is_seen(self, setup):
        service = PlanningService(setup.market)
        oracle = KeyingOracle(PlanningService(setup.market))
        perf, lrc = _session(setup, PAGERANK_PROFILE)
        catalog = list(setup.catalog)
        request = PlanRequest(
            slack_model=SlackModel(perf=perf, lrc=lrc, deadline=_deadline(perf, lrc, 0.0, 0.5)),
            catalog=catalog,
        )
        before = service.request_key(request)
        assert before == oracle.request_key(request)
        catalog.remove(next(c for c in catalog if c.is_transient))
        after = service.request_key(request)
        assert after != before
        assert after == oracle.request_key(request)

    def test_recycled_model_ids_cannot_alias(self, setup):
        """A freed model's id() reused by a different model must miss.

        A fresh oracle per model keeps no model alive, so only the
        service's own memo could pin one; without its strong references
        the next model would likely land on the freed address."""
        service = PlanningService(setup.market)
        base, lrc = _session(setup, SSSP_PROFILE)
        for i in range(40):
            profile = replace(
                base.profile, state_bytes_per_vertex=base.profile.state_bytes_per_vertex + i
            )
            perf = replace(base, profile=profile)
            request = PlanRequest(
                slack_model=SlackModel(perf=perf, lrc=lrc, deadline=4 * 3600.0),
                catalog=setup.catalog,
                slack_grid=10.0,
                work_grid=0.01,
            )
            expected = KeyingOracle(PlanningService(setup.market)).request_key(request)
            assert service.request_key(request) == expected
            del perf, request  # refcounting frees the model here

    def test_memo_stays_bounded(self, setup, monkeypatch):
        monkeypatch.setattr(planning, "SNAPSHOT_CAPACITY", 2)
        service = PlanningService(setup.market)
        perf, lrc = _session(setup, SSSP_PROFILE)
        sm = SlackModel(perf=perf, lrc=lrc, deadline=4 * 3600.0)
        sizes = []
        for i in range(50):
            service.request_key(
                PlanRequest(slack_model=sm, catalog=setup.catalog, slack_grid=10.0 + i)
            )
            sizes.append(len(service._keyed_memo))
        assert max(sizes) == 4 * 2  # filled to the bound, never past it

    def test_concurrent_keying_through_a_churning_memo(self, setup, monkeypatch):
        """Threads (more than cores) key through a memo small enough to
        be cleared constantly; a torn or cross-wired entry would hand a
        thread another request's key."""
        monkeypatch.setattr(planning, "SNAPSHOT_CAPACITY", 1)
        service = PlanningService(setup.market)
        requests = []
        for profile in (SSSP_PROFILE, PAGERANK_PROFILE, COLORING_PROFILE):
            perf, lrc = _session(setup, profile)
            sm = SlackModel(perf=perf, lrc=lrc, deadline=_deadline(perf, lrc, 0.0, 0.5))
            for i in range(6):
                requests.append(
                    PlanRequest(slack_model=sm, catalog=setup.catalog, slack_grid=20.0 + i)
                )
        oracle = KeyingOracle(PlanningService(setup.market))
        expected = [oracle.request_key(r) for r in requests]

        def worker(offset):
            for n in range(300):
                i = (offset + 7 * n) % len(requests)
                if service.request_key(requests[i]) != expected[i]:
                    return False
            return True

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(8) as pool:
                futures = [pool.submit(worker, k) for k in range(8)]
                assert all(f.result(timeout=60) for f in futures)
        finally:
            sys.setswitchinterval(interval)


class TestSlackConstants:
    @staticmethod
    def _formula(sm, t, work):
        return sm.horizon(t) - sm.perf.fixed_time(sm.lrc) - work * sm.perf.exec_time(sm.lrc)

    def test_slack_bit_equal_to_fresh_model_calls(self, setup):
        perf, lrc = _session(setup, PAGERANK_PROFILE)
        sm = SlackModel(perf=perf, lrc=lrc, deadline=5 * 3600.0)
        other_perf, other_lrc = _session(setup, COLORING_PROFILE)
        variants = [
            sm,
            replace(sm, deadline=9 * 3600.0),
            replace(
                sm, perf=replace(perf, profile=replace(perf.profile, state_bytes_per_vertex=55.0))
            ),
            replace(sm, perf=other_perf, lrc=other_lrc),
            pickle.loads(pickle.dumps(sm)),
        ]
        sm.slack(0.0, 1.0)  # fill the cache before copying it
        variants.append(pickle.loads(pickle.dumps(sm)))
        for variant in variants:
            for t, work in ((0.0, 1.0), (1800.0, 0.37), (7200.0, 0.0)):
                assert variant.slack(t, work) == self._formula(variant, t, work)
            assert variant.lrc_exec_time == variant.perf.exec_time(variant.lrc)
            assert variant.lrc_fixed_time == variant.perf.fixed_time(variant.lrc)
        assert variants[3].slack(0.0, 1.0) != sm.slack(0.0, 1.0)
        assert variants[-1] == sm
