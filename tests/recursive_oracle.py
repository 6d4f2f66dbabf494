"""Reference oracle for the §5.3 estimator: the equations as a direct recursion.

Relocated verbatim from ``repro.core.expected_cost`` (it is referenced
only by tests): the production kernel (forward walk / backward fold)
must pick identical configurations at identical costs with identical
memo counters, which ``tests/test_expected_cost_equivalence.py`` and
``tests/test_dp_kernel_goldens.py`` assert.  It subclasses the
production estimator for the shared plumbing (snapshots, memo, grids)
and replaces only the evaluation.
"""

from __future__ import annotations

import math

from repro.core.expected_cost import (
    _WORK_EPS,
    MAX_FAIL_DEPTH,
    ApproximateCostEstimator,
    _recursion_headroom,
)
from repro.utils.units import HOURS


class RecursiveApproximateCostEstimator(ApproximateCostEstimator):
    """Reference oracle: the §5.3 equations as a direct recursion.

    This is the seed implementation, kept verbatim so tests can hold
    the production kernel to bit-identical costs and configuration choices.
    It needs recursion headroom (``sys.setrecursionlimit``) for
    long-horizon jobs; never use it on the production decision path.
    """

    def _evaluation_guard(self):
        return _recursion_headroom()

    def config_cost(self, config, t, work_left, uptime, already_running) -> float:
        # The recursion lives in slack space; absolute time and machine
        # uptime are dropped (memoryless eviction approximation).
        """EC(t, w)|config under this estimator's formulation."""
        slack = self.slack.slack(t, work_left)
        return self._cost_at_slack(config, slack, work_left, already_running)

    def _cost_at_slack(self, config, slack, work_left, running) -> float:
        """EC at an explicit slack (the service-shared query path)."""
        if not self._grids_tuned:
            self._tune_grids(max(slack, 60.0))
        return self._cost(config, slack, work_left, running, 0)

    def _cost(self, config, slack, work_left, running, fail_depth) -> float:
        if work_left <= _WORK_EPS:
            return 0.0
        key = (
            config.name,
            int(slack / self.slack_grid),
            int(work_left / self.work_grid),
            running,
            fail_depth,
        )
        cached = self._memo.get(key)
        if cached is not None:
            self._memo_hits += 1
            return cached
        self._memo_misses += 1
        self._memo[key] = math.inf  # cycle guard
        cost = self._cost_uncached(config, slack, work_left, running, fail_depth)
        self._memo[key] = cost
        return cost

    def _cost_uncached(self, config, slack, work_left, running, fail_depth) -> float:
        slack_model = self.slack
        perf = slack_model.perf
        if not slack_model.feasible_from_slack(config, slack, work_left, running):
            return math.inf
        if not config.is_transient:
            return self._on_demand_cost(config, work_left, running)

        model = self.market.eviction_model(config)
        mttf = model.mttf
        interval = slack_model.useful_from_slack(config, slack, work_left, mttf, running)
        if interval <= 0:
            return math.inf
        save = perf.save_time(config)
        setup = 0.0 if running else perf.setup_time(config)
        exposure = setup + interval + save
        rate = self._rate(config)
        p_fail = min(1.0, max(0.0, model.cdf(exposure)))

        # Success branch (§5.3 #1): the checkpoint lands and the job
        # keeps running here.  Slack drains by the elapsed time minus the
        # progress converted back into last-resort time.
        progress = min(work_left, interval / perf.exec_time(config))
        slack_after_success = slack - exposure + progress * slack_model.lrc_exec_time
        success_cost = rate * exposure / HOURS + self._cost(
            config, slack_after_success, work_left - progress, True, fail_depth
        )

        # Failure branch (§5.3 #2): evaluated at the MTTF (clamped into
        # the exposure window).  Without an eviction warning no work
        # survives; with one that covers t_save (§9 extension), the
        # computation up to the warning instant is checkpointed.
        fail_at = min(max(mttf, self.slack_grid), exposure)
        salvaged = 0.0
        if self.warning.can_save(save):
            computed = fail_at - setup - self.warning.lead_seconds
            if computed > 0:
                salvaged = min(
                    work_left, computed / perf.exec_time(config)
                )
        work_after_fail = work_left - salvaged
        slack_after_fail = (
            slack - fail_at + salvaged * slack_model.lrc_exec_time
        )
        if work_after_fail <= _WORK_EPS:
            follow = 0.0
        elif fail_depth >= MAX_FAIL_DEPTH:
            follow = self._cost(
                self._lrc, slack_after_fail, work_after_fail, False, fail_depth
            )
        else:
            follow = self._min_after_eviction(
                slack_after_fail, work_after_fail, config, fail_depth + 1
            )
        fail_cost = rate * fail_at / HOURS + follow

        return p_fail * fail_cost + (1.0 - p_fail) * success_cost

    def _min_after_eviction(self, slack, work_left, evicted, fail_depth) -> float:
        best = math.inf
        for config in self.catalog:
            if config.is_transient and config == evicted:
                # Right after an eviction this market's price exceeds the
                # bid, so the same configuration cannot be re-provisioned.
                continue
            cost = self._cost(config, slack, work_left, False, fail_depth)
            if cost < best:
                best = cost
        return best
