"""The percentile rule, smoothing and the comparison verdicts."""

import pytest

from bench import compare
from bench.stats import (
    percentile,
    samples_beyond,
    smoothed_share,
    require_tail_support,
)


def test_a_percentile_needs_ten_samples_beyond_it():
    assert samples_beyond(1000, 99) == 10
    assert samples_beyond(999, 99) == 9
    require_tail_support("plan_p99_ms", 1000)
    with pytest.raises(ValueError, match="10 samples beyond"):
        require_tail_support("plan_p99_ms", 999)
    require_tail_support("recover_p90_ms", 100)
    with pytest.raises(ValueError):
        require_tail_support("recover_p90_ms", 99)
    require_tail_support("plan_p50_ms", 20)
    require_tail_support("jobs_per_s", 1)  # not a percentile


def test_percentile_interpolates():
    assert percentile([1, 2, 3, 4], 50) == 2.5
    assert percentile([5], 99) == 5


def test_smoothed_share_is_positive_and_monotone():
    assert smoothed_share(0, 1000) == pytest.approx(1 / 1001)
    assert smoothed_share(0, 2) < smoothed_share(1, 2) < smoothed_share(2, 2) == 1.0
    # one new failure moves it by far more than any bound (<= 0.25)
    assert smoothed_share(1, 1000) / smoothed_share(0, 1000) == 2.0
    with pytest.raises(ValueError):
        smoothed_share(3, 2)


LOWER = {"name": "plan_p50_ms", "better": "lower", "bound": 0.10}
HIGHER = {"name": "jobs_per_s", "better": "higher", "bound": 0.10}
COST = {"name": "user_cost_dollars", "better": "lower", "bound": 0.25}


def cell(median, q1=None, q3=None):
    return {"median": median, "q1": q1 if q1 is not None else median,
            "q3": q3 if q3 is not None else median}


def test_verdicts():
    assert compare.judge(LOWER, cell(100), cell(105), False)[0] == "unchanged"
    assert compare.judge(LOWER, cell(100), cell(111), False) == ("regressed", 1.11)
    assert compare.judge(LOWER, cell(100), cell(80), False)[0] == "improved"
    assert compare.judge(HIGHER, cell(100), cell(89), False)[0] == "regressed"
    assert compare.judge(HIGHER, cell(100), cell(120), False)[0] == "improved"


def test_a_noisy_metric_is_unresolved_not_unchanged():
    noisy = cell(100, q1=90, q3=105)  # spread 15 % > bound 10 %
    assert compare.judge(LOWER, noisy, cell(103), False)[0] == "unresolved"
    assert compare.judge(LOWER, cell(100), noisy, False)[0] == "unresolved"
    # ... but a regression beyond the bound is still a regression
    assert compare.judge(LOWER, noisy, cell(120), False)[0] == "regressed"


def test_outcomes_are_exact_when_the_inputs_are_the_same():
    worse = cell(100.0 + 1e-6)
    assert compare.judge(COST, cell(100.0), worse, True)[0] == "regressed"
    assert compare.judge(COST, cell(100.0), worse, False)[0] == "unchanged"
    assert compare.judge(COST, cell(100.0), cell(100.0), True)[0] == "unchanged"
