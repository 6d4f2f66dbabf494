"""DP kernel vs recursive reference: bit-for-bit equivalence.

The production :class:`ApproximateCostEstimator` must reproduce the
recursive oracle exactly — same configuration, the same cost for every
catalogue entry down to the last bit (``float.hex``) and the same
``cache_stats()`` after every call — across generated decision
sequences (catalogues, slacks, grids, warning leads, last resorts,
price epochs) and across the full Fig 5 / Fig 9 slack grids.  The
kernel's packed memo keys must decode to exactly the oracle's states.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import replace

import numpy as np
import pytest

from repro.cloud import default_catalog, full_grid_catalog
from repro.core import (
    COLORING_PROFILE,
    PAGERANK_PROFILE,
    SSSP_PROFILE,
    ApproximateCostEstimator,
    PerformanceModel,
    SlackModel,
    WarningPolicy,
    job_with_slack,
    last_resort,
)
from repro.core.expected_cost import MAX_FAIL_DEPTH, MAX_WORK_LEFT
from repro.service import PlanError, PlanningService, PlanRequest

from tests.recursive_oracle import RecursiveApproximateCostEstimator
from tests.test_dp_kernel_goldens import _GuardCountingMemo

PROFILES = (SSSP_PROFILE, PAGERANK_PROFILE, COLORING_PROFILE)
FIG5_SLACKS = (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0)
FIG9_SLACKS = (0.1, 0.3, 0.5, 0.7, 1.0)


def make_slack_model(profile, slack_fraction, catalog, release=0.0, lrc=None):
    if lrc is None:
        lrc = last_resort(
            catalog, lambda ref: PerformanceModel(profile=profile, reference=ref)
        )
    perf = PerformanceModel(profile=profile, reference=lrc)
    job = job_with_slack(profile, release, slack_fraction, perf.fixed_time(lrc))
    return SlackModel(perf=perf, lrc=lrc, deadline=job.deadline)


def assert_same_step(dp, ref, t, work_left, current=None):
    """One decision on both estimators, then every catalogue entry's cost.

    Costs must agree bit for bit and the memo counters after each call.
    Returns the kernel's decision.
    """
    dp_decision = dp.best(t, work_left, current)
    ref_decision = ref.best(t, work_left, current)
    assert dp_decision.config == ref_decision.config
    assert dp_decision.expected_cost.hex() == ref_decision.expected_cost.hex()
    assert dp.cache_stats() == ref.cache_stats()
    with ref._evaluation_guard():
        for config in dp.catalog:
            running = config == current
            a = dp.config_cost(config, t, work_left, 0.0, running)
            b = ref.config_cost(config, t, work_left, 0.0, running)
            assert a.hex() == b.hex(), config.name
            assert dp.cache_stats() == ref.cache_stats(), config.name
    return dp_decision


def assert_equivalent_decisions(market, catalog, slack_model, t, work_left, warning=None):
    kwargs = {} if warning is None else {"warning": warning}
    dp = ApproximateCostEstimator(slack_model, market, catalog, **kwargs)
    ref = RecursiveApproximateCostEstimator(slack_model, market, catalog, **kwargs)
    return assert_same_step(dp, ref, t, work_left)


class TestFigureGrids:
    @pytest.mark.parametrize("slack", FIG5_SLACKS)
    def test_fig5_grid(self, small_market, slack):
        catalog = tuple(default_catalog())
        for profile in PROFILES:
            sm = make_slack_model(profile, slack, catalog)
            assert_equivalent_decisions(small_market, catalog, sm, 0.0, 1.0)

    @pytest.mark.parametrize("slack", FIG9_SLACKS)
    def test_fig9_grid(self, small_market, slack):
        catalog = tuple(default_catalog())
        for profile in PROFILES:
            sm = make_slack_model(profile, slack, catalog)
            assert_equivalent_decisions(small_market, catalog, sm, 0.0, 1.0)


class TestRandomized:
    def test_randomized_states(self, small_market):
        """Generated decision sequences, each replanned down one job.

        Random catalogue subsets (always keeping an on-demand escape
        hatch), profiles, slacks, grids and warning leads; every other
        sequence plans against a last resort the catalogue does not
        list.  Each sequence replans the same job three times on one
        warm estimator, the last decision hours later.  The sweep must
        cover what it claims: coarse grids that read still-open ∞
        guards, tight slacks spent before a replan (a root keyed in a
        negative slack bucket: ``t_fixed`` reserves each interval's setup
        and save, so no branch inside the DP drains a bucket below 0),
        every warning lead, and a price epoch crossed mid-run.
        """
        rng = np.random.default_rng(20260807)
        grid = full_grid_catalog()
        guard_reads = negative_buckets = off_catalog = epochs_crossed = 0
        leads = set()
        for case in range(36):
            profile = PROFILES[int(rng.integers(len(PROFILES)))]
            size = int(rng.integers(2, len(grid) + 1))
            subset = [grid[i] for i in rng.choice(len(grid), size=size, replace=False)]
            lrc = None
            if case % 2:
                lrc = last_resort(
                    grid, lambda ref: PerformanceModel(profile=profile, reference=ref)
                )
                subset = [c for c in subset if c != lrc]
            if all(c.is_transient for c in subset):
                subset.append(next(c for c in grid if not c.is_transient and c != lrc))
            catalog = tuple(subset)
            tight = case % 3 == 0
            low, high = (0.01, 0.12) if tight else (0.05, 2.0)
            slack_fraction = float(rng.uniform(low, high))
            grids = {}
            if case % 3 == 1:
                grids = {
                    "slack_grid": float(rng.choice([300.0, 900.0, 1800.0])),
                    "work_grid": float(rng.choice([0.05, 0.1, 0.25])),
                }
            lead = float(rng.choice([0.0, 120.0, 600.0]))
            leads.add(lead)
            t0 = float(rng.uniform(0.0, 24 * 3600.0))
            sm = make_slack_model(profile, slack_fraction, catalog, release=t0, lrc=lrc)
            args = (sm, small_market, catalog)
            kwargs = {"warning": WarningPolicy(lead_seconds=lead), **grids}
            dp = ApproximateCostEstimator(*args, **kwargs)
            ref = RecursiveApproximateCostEstimator(*args, **kwargs)
            ref._memo = _GuardCountingMemo()
            off_catalog += sm.lrc not in catalog
            current, t, work = None, t0, 1.0
            for _ in range(3):
                current = assert_same_step(dp, ref, t, work, current).config
                negative_buckets += any(key[1] < 0 for key in ref._memo)
                work *= float(rng.uniform(0.4, 0.9))
                t += float(rng.uniform(0.05, 0.5)) * sm.lrc_exec_time
            t += float(rng.uniform(2.0, 8.0)) * 3600.0
            assert_same_step(dp, ref, t, work, current)
            guard_reads += ref._memo.guard_reads
            epochs_crossed += dp.cache_stats().epoch > 1
        assert guard_reads > 0
        assert negative_buckets > 0
        assert off_catalog > 0
        assert epochs_crossed > 0
        assert leads == {0.0, 120.0, 600.0}

    def test_per_config_costs_match(self, small_market):
        """Not just the argmin: every catalogue entry's cost agrees."""
        catalog = tuple(default_catalog())
        for profile, slack in ((PAGERANK_PROFILE, 0.4), (COLORING_PROFILE, 0.7)):
            sm = make_slack_model(profile, slack, catalog)
            dp = ApproximateCostEstimator(sm, small_market, catalog)
            ref = RecursiveApproximateCostEstimator(sm, small_market, catalog)
            dp.snapshot(0.0)
            ref.snapshot(0.0)
            for config in catalog:
                a = dp.config_cost(config, 0.0, 1.0, 0.0, False)
                b = ref.config_cost(config, 0.0, 1.0, 0.0, False)
                assert a.hex() == b.hex(), config.name
                assert dp.cache_stats() == ref.cache_stats(), config.name

    def test_warm_memo_paths_match(self, small_market):
        """Successive decisions (warm memo, drained slack) stay aligned."""
        catalog = tuple(default_catalog())
        sm = make_slack_model(COLORING_PROFILE, 0.5, catalog)
        dp = ApproximateCostEstimator(sm, small_market, catalog)
        ref = RecursiveApproximateCostEstimator(sm, small_market, catalog)
        for t, work in ((0.0, 1.0), (3600.0, 0.8), (10_000.0, 0.55), (20_000.0, 0.2)):
            d_dp = dp.best(t, work)
            d_ref = ref.best(t, work)
            assert d_dp.config == d_ref.config
            assert d_dp.expected_cost.hex() == d_ref.expected_cost.hex()
            assert dp.cache_stats() == ref.cache_stats()


def _decode(est, key):
    """The state packed into one of the kernel's memo keys, oracle-style."""
    slack_stride, work_stride, run_stride = est._strides
    n = len(est._table_cfgs)
    slack_b, rest = divmod(key, slack_stride)
    work_b, rest = divmod(rest, work_stride)
    running, rest = divmod(rest, run_stride)
    depth, ci = divmod(rest, n)
    return est._table_cfgs[ci].name, slack_b, work_b, bool(running), depth


class TestPackedKey:
    def test_layout_round_trips_at_every_field_bound(self, small_market):
        """Each field at 0 and at its largest value, the slack bucket far
        either side of 0: every state packs to its own key and back."""
        catalog = tuple(default_catalog())
        sm = make_slack_model(COLORING_PROFILE, 0.5, catalog)
        est = ApproximateCostEstimator(sm, small_market, catalog)
        est.best(0.0, 1.0)
        slack_stride, work_stride, run_stride = est._strides
        n = len(est._table_cfgs)
        work_buckets = slack_stride // work_stride
        assert work_buckets == int(MAX_WORK_LEFT / est.work_grid) + 1
        assert run_stride == n * (MAX_FAIL_DEPTH + 1) and work_stride == 2 * run_stride
        keys = {}
        for ci, depth, running, work_b, slack_b in itertools.product(
            (0, n - 1),
            (0, MAX_FAIL_DEPTH),
            (False, True),
            (0, work_buckets - 1),
            (-(10**9), -1, 0, 1, 10**9),
        ):
            key = (
                slack_b * slack_stride + work_b * work_stride
                + running * run_stride + depth * n + ci
            )  # fmt: skip
            state = (est._table_cfgs[ci].name, slack_b, work_b, running, depth)
            assert _decode(est, key) == state
            assert keys.setdefault(key, state) == state

    @pytest.mark.parametrize(
        "profile, slack, late, work, grids",
        [
            (SSSP_PROFILE, 0.03, True, 1.0, {}),  # slack spent: negative buckets
            (PAGERANK_PROFILE, 0.5, False, MAX_WORK_LEFT, {}),  # the top work bucket
            (COLORING_PROFILE, 0.5, False, 1.0, {"slack_grid": 600.0, "work_grid": 0.05}),
            (PAGERANK_PROFILE, 1.0, False, MAX_WORK_LEFT, {"work_grid": 0.003}),
        ],
        ids=["slack-spent", "max-work", "coarse", "max-work-fine-grid"],
    )
    def test_kernel_keys_decode_to_the_oracle_states(
        self, small_market, profile, slack, late, work, grids
    ):
        """The kernel's memo, keys decoded, *is* the oracle's memo."""
        catalog = tuple(default_catalog())
        sm = make_slack_model(profile, slack, catalog)
        dp = ApproximateCostEstimator(sm, small_market, catalog, **grids)
        ref = RecursiveApproximateCostEstimator(sm, small_market, catalog, **grids)
        assert_same_step(dp, ref, sm.deadline if late else 0.0, work)
        decoded = {_decode(dp, key): cost for key, cost in dp._memo.items()}
        assert len(decoded) == len(dp._memo)
        assert decoded == ref._memo
        slack_buckets = [state[1] for state in decoded]
        work_buckets = [state[2] for state in decoded]
        if late:
            assert max(slack_buckets) < 0
        if work == MAX_WORK_LEFT:
            assert max(work_buckets) == int(MAX_WORK_LEFT / dp.work_grid)

    def test_roots_past_the_bound_are_refused(self, small_market):
        """The admission bound and the key's are one: the largest work
        the service admits plans, the next float is refused by both."""
        catalog = tuple(default_catalog())
        sm = make_slack_model(PAGERANK_PROFILE, 0.5, catalog)
        est = ApproximateCostEstimator(sm, small_market, catalog)
        est.snapshot(0.0)
        past = math.nextafter(MAX_WORK_LEFT, 2.0)
        assert math.isfinite(est.config_cost(sm.lrc, 0.0, MAX_WORK_LEFT, 0.0, False))
        with pytest.raises(ValueError, match="whole job"):
            est.config_cost(catalog[0], 0.0, past, 0.0, False)
        foreign = next(c for c in full_grid_catalog() if c not in catalog)
        with pytest.raises(ValueError, match=foreign.name):
            est.config_cost(foreign, 0.0, 0.5, 0.0, False)
        service = PlanningService(small_market)
        request = PlanRequest(slack_model=sm, catalog=catalog, work_left=MAX_WORK_LEFT)
        service.plan(request)
        with pytest.raises(PlanError, match="work_left"):
            service.plan(replace(request, work_left=past))


class TestNoRecursionLimitTouching:
    def test_iterative_path_leaves_recursion_limit_alone(self, small_market):
        import sys

        catalog = tuple(default_catalog())
        sm = make_slack_model(COLORING_PROFILE, 1.0, catalog)
        est = ApproximateCostEstimator(sm, small_market, catalog)
        guard = est._evaluation_guard()
        assert type(guard).__name__ == "nullcontext"
        before = sys.getrecursionlimit()
        sys.setrecursionlimit(64)
        try:
            decision = est.best(0.0, 1.0)
        finally:
            sys.setrecursionlimit(before)
        assert math.isfinite(decision.expected_cost)

    def test_long_chain_costs_no_frames(self, small_market):
        """Frames may grow with fail depth, never with chain length.

        The stock profiles top out near 100 chain states (the default
        0.01 work grid caps a chain at 100 buckets), so the long chain
        is built: a 20x Coloring job on a 0.001 work grid walks ~900
        success states deep.  The recursive oracle overflows the
        default recursion limit there without ``_recursion_headroom``;
        the kernel must produce the oracle's decision and counters with
        only 60 frames to spare.
        """
        import contextlib
        import inspect
        import sys

        catalog = tuple(default_catalog())
        sm = make_slack_model(COLORING_PROFILE.scaled(20), 1.0, catalog)
        args = (sm, small_market, catalog)
        ref = RecursiveApproximateCostEstimator(*args, work_grid=1e-3)
        expected = ref.best(0.0, 1.0)
        bare = RecursiveApproximateCostEstimator(*args, work_grid=1e-3)
        bare._evaluation_guard = contextlib.nullcontext
        with pytest.raises(RecursionError):
            bare.best(0.0, 1.0)

        dp = ApproximateCostEstimator(*args, work_grid=1e-3)
        before = sys.getrecursionlimit()
        sys.setrecursionlimit(len(inspect.stack(0)) + 60)
        try:
            decision = dp.best(0.0, 1.0)
        finally:
            sys.setrecursionlimit(before)
        assert decision == expected
        assert dp.cache_stats() == ref.cache_stats()

    def test_degenerate_fallback_returns_lrc(self, small_market):
        """An all-infeasible catalogue yields the lrc decision, never a
        RecursionError escaping ``best`` (the old fallback ran the
        recursion outside its headroom guard)."""
        catalog = tuple(default_catalog())
        sm = make_slack_model(SSSP_PROFILE, 0.1, catalog)
        for est_cls in (ApproximateCostEstimator, RecursiveApproximateCostEstimator):
            est = est_cls(sm, small_market, catalog)
            # Far past the (short) deadline: nothing is feasible any more.
            decision = est.best(100_000.0, 1.0)
            assert decision.config == sm.lrc
            assert not math.isfinite(decision.expected_cost)
