"""Frozen contract of the §5.3 DP kernel: costs *and* memo counters.

Captured at the last commit where ``ApproximateCostEstimator`` resolved
states with an explicit stack of ``_transition`` generators, through
exactly the scripted calls below (``python -m tests.test_dp_kernel_goldens``
prints the literals).  The forward-walk / backward-fold kernel that
replaced it must visit the same states in the same order, so every call
reproduces ``(config, expected_cost, hits, misses, entries, epoch)``
with ``==`` — the counters feed every ``LoadReport`` fingerprint
(``cache_hit_rate``) and nothing else pins them directly.
"""

from __future__ import annotations

import math

from repro.cloud import default_catalog
from repro.core import (
    COLORING_PROFILE,
    PAGERANK_PROFILE,
    SSSP_PROFILE,
    ApproximateCostEstimator,
    PerformanceModel,
    SlackModel,
    job_with_slack,
    last_resort,
)

from repro.core.warning import EC2_TWO_MINUTE_WARNING

from tests.recursive_oracle import RecursiveApproximateCostEstimator

CATALOG = tuple(default_catalog())
PROFILES = (SSSP_PROFILE, PAGERANK_PROFILE, COLORING_PROFILE)
INF = math.inf


def _slack_model(profile, slack_fraction):
    lrc = last_resort(
        CATALOG, lambda ref: PerformanceModel(profile=profile, reference=ref)
    )
    perf = PerformanceModel(profile=profile, reference=lrc)
    job = job_with_slack(profile, 0.0, slack_fraction, perf.fixed_time(lrc))
    return SlackModel(perf=perf, lrc=lrc, deadline=job.deadline)


class _GuardCountingMemo(dict):
    """A memo that counts lookups answered by a still-open state's ∞ guard."""

    def __init__(self):
        super().__init__()
        self.open: set = set()
        self.guard_reads = 0

    def get(self, key, default=None):
        if key in self.open:
            self.guard_reads += 1
        return super().get(key, default)

    def __setitem__(self, key, value):
        # First store opens the state (the guard), the second closes it.
        if key in self:
            self.open.discard(key)
        else:
            self.open.add(key)
        super().__setitem__(key, value)


def _stats(est):
    stats = est.cache_stats()
    return stats.hits, stats.misses, stats.entries, stats.epoch


def _best(est, sm, t, work, current=None):
    decision = est.best_at_slack(sm.slack(t, work), t, work, current)
    return (decision.config.name, decision.expected_cost, *_stats(est))


def _stay(est, sm, t, work, current):
    est.snapshot(t)
    cost = est.config_cost(current, t, work, 0.0, True)
    return (current.name, cost, *_stats(est))


def run_script(market):
    """The scripted call sequence; returns ``{case: [record, ...]}``."""
    out = {}

    # Cold decisions: three profiles x slack 10/50/100 %, adaptive grids.
    for profile in PROFILES:
        for slack in (0.1, 0.5, 1.0):
            sm = _slack_model(profile, slack)
            est = ApproximateCostEstimator(sm, market, CATALOG)
            out[f"cold/{profile.name}/{int(slack * 100)}"] = [_best(est, sm, 0.0, 1.0)]

    # One job re-planned down its checkpoints on a warm estimator: the
    # "stay" arm on the running configuration, then the catalogue
    # argmin.  Rates drift past ``price_tolerance`` only between 900 s
    # and 3 600 s, so the memo is dropped exactly once, mid-chain.
    sm = _slack_model(COLORING_PROFILE, 0.5)
    est = ApproximateCostEstimator(sm, market, CATALOG)
    records = [_best(est, sm, 0.0, 1.0)]
    current = next(c for c in CATALOG if c.name == records[0][0])
    for t, work in (
        (300.0, 0.985),
        (600.0, 0.97),
        (900.0, 0.955),
        (3600.0, 0.8),
        (3900.0, 0.785),
        (4200.0, 0.77),
    ):
        records.append(_stay(est, sm, t, work, current))
        records.append(_best(est, sm, t, work, current))
        current = next(c for c in CATALOG if c.name == records[-1][0])
    out["replan-chain"] = records

    # A two-minute eviction warning covers every t_save here: the
    # failure branch salvages the work computed before the warning, so
    # the first record differs from ``cold/pagerank/100``.
    sm = _slack_model(PAGERANK_PROFILE, 1.0)
    est = ApproximateCostEstimator(sm, market, CATALOG, warning=EC2_TWO_MINUTE_WARNING)
    out["warning-salvage"] = [_best(est, sm, 0.0, 1.0), _best(est, sm, 600.0, 0.7)]

    # Coarse grids: successive chain states share a bucket, so a
    # chain's next state is an ancestor that is still open and reads
    # the ∞ cycle guard.  The reads are counted on the recursive oracle
    # (its open/close stores are the specification of "still open"),
    # which must produce the very same record.
    sm = _slack_model(COLORING_PROFILE, 0.5)
    grids = {"slack_grid": 600.0, "work_grid": 0.05}
    record = _best(ApproximateCostEstimator(sm, market, CATALOG, **grids), sm, 0.0, 1.0)
    ref = RecursiveApproximateCostEstimator(sm, market, CATALOG, **grids)
    ref._memo = _GuardCountingMemo()
    assert _best(ref, sm, 0.0, 1.0) == record
    out["coarse-grid-open-bucket"] = [(*record, ref._memo.guard_reads)]

    # Far past the deadline nothing is feasible: ``_argmin`` falls back
    # to the last resort at infinite cost.
    sm = _slack_model(SSSP_PROFILE, 0.1)
    est = ApproximateCostEstimator(sm, market, CATALOG)
    out["all-infeasible"] = [_best(est, sm, 100_000.0, 1.0)]
    return out


GOLDEN = {
    "cold/sssp/10": [
        ("4xr4.8xlarge:on-demand", 0.5811692502597385, 0, 6, 6, 1),
    ],
    "cold/sssp/50": [
        ("4xr4.8xlarge:on-demand", 0.5811692502597385, 9, 39, 39, 1),
    ],
    "cold/sssp/100": [
        ("4xr4.8xlarge:spot", 0.18503027257501894, 9, 50, 50, 1),
    ],
    "cold/pagerank/10": [
        ("4xr4.8xlarge:on-demand", 2.9929025835930716, 9, 57, 57, 1),
    ],
    "cold/pagerank/50": [
        ("4xr4.8xlarge:spot", 0.9784485814149251, 12, 135, 135, 1),
    ],
    "cold/pagerank/100": [
        ("8xr4.4xlarge:spot", 0.9329395330650647, 123, 441, 441, 1),
    ],
    "cold/coloring/10": [
        ("4xr4.8xlarge:spot", 16.842476650259254, 2085, 1722, 1722, 1),
    ],
    "cold/coloring/50": [
        ("4xr4.8xlarge:spot", 14.068209522704127, 14800, 16878, 16878, 1),
    ],
    "cold/coloring/100": [
        ("4xr4.8xlarge:spot", 10.906266583993485, 20289, 22296, 22296, 1),
    ],
    "replan-chain": [
        ("4xr4.8xlarge:spot", 14.068209522704127, 14800, 16878, 16878, 1),
        ("4xr4.8xlarge:spot", 13.667220094783692, 20309, 22403, 22403, 1),
        ("4xr4.8xlarge:spot", 13.667220094783692, 24250, 24977, 24977, 1),
        ("4xr4.8xlarge:spot", 13.374803439444877, 26808, 26828, 26828, 1),
        ("4xr4.8xlarge:spot", 13.374803439444877, 28914, 27871, 27871, 1),
        ("4xr4.8xlarge:spot", 13.138519314955145, 31227, 29584, 29584, 1),
        ("4xr4.8xlarge:spot", 13.138519314955145, 32975, 30421, 30421, 1),
        ("4xr4.8xlarge:spot", 9.876325274465666, 37147, 38368, 7947, 2),
        ("4xr4.8xlarge:spot", 9.876325274465666, 43396, 42792, 12371, 2),
        ("4xr4.8xlarge:spot", 9.599473480574952, 46127, 45636, 15215, 2),
        ("4xr4.8xlarge:spot", 9.599473480574952, 49356, 47826, 17405, 2),
        ("4xr4.8xlarge:spot", 9.447239209657251, 51064, 49170, 18749, 2),
        ("4xr4.8xlarge:spot", 9.447239209657251, 52602, 49984, 19563, 2),
    ],
    "warning-salvage": [
        ("4xr4.8xlarge:spot", 0.8869716654935467, 111, 556, 556, 1),
        ("4xr4.8xlarge:spot", 0.6119634080319363, 230, 840, 840, 1),
    ],
    "coarse-grid-open-bucket": [
        ("4xr4.8xlarge:on-demand", 34.20356925025974, 250, 220, 220, 1, 25),
    ],
    "all-infeasible": [
        ("4xr4.8xlarge:on-demand", INF, 1, 6, 6, 1),
    ],
}


def test_script_reproduces_the_frozen_records(small_market):
    produced = run_script(small_market)
    assert produced.keys() == GOLDEN.keys()
    for case, records in produced.items():
        assert records == GOLDEN[case], case


def test_the_script_covers_what_it_claims():
    """The literals themselves show each scripted situation occurred."""
    epochs = [record[-1] for record in GOLDEN["replan-chain"]]
    assert sorted(set(epochs)) == [1, 2]  # exactly one price-epoch bump
    assert epochs[0] == 1 and epochs[-1] == 2  # ... in the middle
    assert GOLDEN["coarse-grid-open-bucket"][0][-1] > 0  # the guard was read
    assert GOLDEN["warning-salvage"][0][:2] != GOLDEN["cold/pagerank/100"][0][:2]
    name, cost, *_ = GOLDEN["all-infeasible"][0]
    assert cost == INF and name.endswith("on-demand")


if __name__ == "__main__":
    import pprint

    from repro.cloud.instance import R4_FAMILY
    from repro.cloud.market import SpotMarket
    from repro.utils.units import HOURS

    # The ``small_market`` fixture of tests/conftest.py.
    pprint.pprint(
        run_script(
            SpotMarket.synthetic(
                R4_FAMILY,
                duration=5 * 24 * HOURS,
                history_duration=5 * 24 * HOURS,
                seed=1234,
            )
        ),
        width=100,
        sort_dicts=False,
    )
