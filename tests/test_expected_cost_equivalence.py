"""DP kernel vs recursive reference: decision equivalence.

The production :class:`ApproximateCostEstimator` must reproduce the
recursive oracle's decisions exactly — same configuration, cost within
1e-9 relative — across randomised slacks, work fractions, catalogues
and warning policies, and across the full Fig 5 / Fig 9 slack grids.
"""

from __future__ import annotations

import math

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

from tests.recursive_oracle import RecursiveApproximateCostEstimator

PROFILES = (SSSP_PROFILE, PAGERANK_PROFILE, COLORING_PROFILE)
FIG5_SLACKS = (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0)
FIG9_SLACKS = (0.1, 0.3, 0.5, 0.7, 1.0)


def make_slack_model(profile, slack_fraction, catalog):
    lrc = last_resort(
        catalog, lambda ref: PerformanceModel(profile=profile, reference=ref)
    )
    perf = PerformanceModel(profile=profile, reference=lrc)
    job = job_with_slack(profile, 0.0, slack_fraction, perf.fixed_time(lrc))
    return SlackModel(perf=perf, lrc=lrc, deadline=job.deadline)


def assert_equivalent_decisions(market, catalog, slack_model, t, work_left, warning=None):
    kwargs = {} if warning is None else {"warning": warning}
    dp = ApproximateCostEstimator(slack_model, market, catalog, **kwargs)
    ref = RecursiveApproximateCostEstimator(slack_model, market, catalog, **kwargs)
    dp_decision = dp.best(t, work_left)
    ref_decision = ref.best(t, work_left)
    assert dp_decision.config == ref_decision.config
    if math.isfinite(ref_decision.expected_cost):
        assert dp_decision.expected_cost == pytest.approx(
            ref_decision.expected_cost, rel=1e-9
        )
    else:
        assert not math.isfinite(dp_decision.expected_cost)
    return dp_decision


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
        """Property-style sweep over random decision states.

        Random catalogue subsets (always keeping an on-demand escape
        hatch), slack fractions, work fractions, decision times and
        warning policies; every sampled state must produce the same
        configuration choice from both estimators.
        """
        rng = np.random.default_rng(20260807)
        grid = full_grid_catalog()
        for _ in range(40):
            size = int(rng.integers(2, len(grid) + 1))
            subset = [grid[i] for i in rng.choice(len(grid), size=size, replace=False)]
            if all(c.is_transient for c in subset):
                subset.append(grid[1])
            catalog = tuple(subset)
            profile = PROFILES[int(rng.integers(len(PROFILES)))]
            slack_fraction = float(rng.uniform(0.05, 2.0))
            work_left = float(rng.uniform(0.05, 1.0))
            t = float(rng.uniform(0.0, 24 * 3600.0))
            warning = WarningPolicy(
                lead_seconds=float(rng.choice([0.0, 120.0, 600.0]))
            )
            sm = make_slack_model(profile, slack_fraction, catalog)
            assert_equivalent_decisions(
                small_market, catalog, sm, t, work_left, warning=warning
            )

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
                if math.isfinite(b):
                    assert a == pytest.approx(b, rel=1e-9), config.name
                else:
                    assert not math.isfinite(a), config.name

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
            assert d_dp.expected_cost == pytest.approx(d_ref.expected_cost, rel=1e-9)


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
