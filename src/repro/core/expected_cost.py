"""Expected-cost computation (§5.2) and its fast approximation (§5.3).

The provisioning criterion: pick the configuration minimising the
expected cost ``EC(t, w)|c`` of finishing the remaining work ``w``
starting at time ``t`` on configuration ``c``:

* finished work costs 0;
* a configuration that cannot run without compromising the deadline
  costs infinity;
* an on-demand configuration costs its rate times the remaining
  runtime;
* a transient configuration costs the eviction-probability-weighted sum
  of the failure branch (all progress since the last checkpoint lost)
  and the success branch (a checkpoint lands), each recursing.

Two implementations share this definition:

:class:`ApproximateCostEstimator` — the paper's §5.3 simplifications
    (the success branch recurses only on the *current* configuration,
    the failure branch is evaluated only at the configuration's MTTF)
    as a dynamic program over (config × slack-bucket × work-bucket ×
    running × fail-depth) states.  One kernel walks a state's success
    chain — the only unbounded dimension — forward in a loop and folds
    it backward, recursing only into failure follow-ups, so the Python
    stack is bounded by ``MAX_FAIL_DEPTH`` and never by chain length
    (the recursion limit is left alone).  Per-configuration quantities
    (rates, timings, checkpoint intervals, eviction CDFs) are
    precomputed into dense tables; decisions take milliseconds.  The
    direct recursive transcription of the same equations lives in
    ``tests/recursive_oracle.py`` as the reference the kernel is held
    bit-identical to — costs, evaluation order and memo counters.

:class:`ExactCostEstimator` — the §5.2 formulation: the failure
    integral is approximated by a finite sum over a time discretisation
    and the follow-up cost re-minimises over all configurations at every
    step.  Cost grows explosively with the slack; a configurable state
    budget aborts runs that would not finish (the paper reports the same
    DNFs in Fig 9).
"""

from __future__ import annotations

import contextlib
import math
import sys
from dataclasses import dataclass

from repro.cloud.configuration import Configuration
from repro.cloud.market import SpotMarket
from repro.core.ckpt_policy import daly_interval
from repro.core.slack import SlackModel
from repro.core.warning import NO_WARNING, WarningPolicy
from repro.utils.units import HOURS
from repro.utils.validation import check_positive

_WORK_EPS = 1e-6

#: Relative drift of any decision-time rate past which the memo is
#: dropped and a new price epoch starts.
PRICE_TOLERANCE = 0.05

#: Eviction-chain depth past which a failure follow-up is the last
#: resort: three consecutive evictions of a planned interval are
#: already a tail event.
MAX_FAIL_DEPTH = 2

#: Largest remaining work a decision may carry: one whole job, plus
#: headroom for time-accounted work, which rounding can put a few ulps
#: past 1.  It bounds the memo key's work field.
MAX_WORK_LEFT = 1.0 + 1e-9


class DecisionBudgetExceeded(RuntimeError):
    """Raised when the exact estimator exceeds its state budget."""


@contextlib.contextmanager
def _recursion_headroom(limit: int = 100_000):
    """Temporarily raise the interpreter recursion limit.

    The *recursive* EC formulations advance in (slack, work) steps whose
    count can exceed CPython's default 1000-frame limit for long-horizon
    jobs.  Only the exact estimator and the recursive reference oracle
    need this; the approximate estimator's chains cost no frames.
    """
    old = sys.getrecursionlimit()
    sys.setrecursionlimit(max(old, limit))
    try:
        yield
    finally:
        sys.setrecursionlimit(old)


@dataclass(frozen=True)
class Decision:
    """Outcome of one provisioning evaluation."""

    config: Configuration
    expected_cost: float
    evaluated_at: float
    work_left: float


@dataclass(frozen=True)
class CacheStats:
    """Cumulative memo-table statistics of one approximate estimator.

    Attributes:
        hits: state lookups answered from the memo.
        misses: state lookups that had to be computed.
        invalidations: times a non-empty memo was dropped (price drift).
        entries: states currently memoised.
        epoch: price-drift epoch — bumped whenever the decision-time
            rates drift past :data:`PRICE_TOLERANCE`; all current entries
            were computed within this epoch.
    """

    hits: int
    misses: int
    invalidations: int
    entries: int
    epoch: int


def adaptive_grids(
    slack: float, slack_grid: float | None = None, work_grid: float | None = None
) -> tuple[float, float]:
    """Memo granularity ``(slack_grid, work_grid)`` for a job's first slack.

    A grid passed in is kept; one left None is tuned.  This is the one
    statement of the adaptive rule, shared by the estimator's own
    tuning and the planning service's grid resolution so a
    service-planned job lands in exactly the buckets a private
    estimator would use.  Long-slack jobs would otherwise explore tens
    of thousands of slack buckets; ~50 buckets across the initial slack
    keeps decisions in the low milliseconds with no measurable
    decision-quality change.  The 5 s floor keeps small-slack chains
    (whose per-interval slack drain can be a few seconds) from
    collapsing into one bucket, which the cycle guard would misread as
    a loop; slacks under a minute tune as one minute.
    """
    if slack_grid is None:
        slack_grid = max(5.0, max(slack, 60.0) / 50.0)
    return slack_grid, 0.01 if work_grid is None else work_grid


def check_dp_parameters(slack_grid, work_grid) -> None:
    """Reject (ValueError) grids the bucket arithmetic cannot divide by.

    A grid may be None (adaptive).  Shared with the planning service's admission.
    """
    for name, grid in (("slack_grid", slack_grid), ("work_grid", work_grid)):
        if grid is not None:
            check_positive(name, grid)


class _EstimatorBase:
    """Shared plumbing: market snapshots and the catalogue argmin."""

    def __init__(self, slack_model: SlackModel, market: SpotMarket, catalog):
        self.slack = slack_model
        self.market = market
        self.catalog = list(catalog)
        if not any(not c.is_transient for c in self.catalog):
            raise ValueError("catalogue needs at least one on-demand configuration")
        self._rates: dict[str, float] = {}
        # Configurations evaluated beyond the catalogue (a last resort
        # the catalogue does not list); every snapshot prices them too.
        self._off_catalog = [c for c in (slack_model.lrc,) if c not in self.catalog]

    def snapshot(self, t: float, rates=None) -> None:
        """Freeze market prices at decision time *t* for this evaluation.

        Args:
            rates: optional precomputed ``market.config_rates(catalog,
                t)`` array — the planning service shares one snapshot
                across the concurrent jobs deciding at *t* instead of
                re-querying the market per estimator.
        """
        if rates is None:
            rates = self.market.config_rates(self.catalog, t)
        self._rates = {c.name: float(r) for c, r in zip(self.catalog, rates)}
        for config in self._off_catalog:
            self._rates[config.name] = float(self.market.config_rate(config, t))

    def _rate(self, config: Configuration) -> float:
        return self._rates[config.name]

    def _evaluation_guard(self):
        """Context manager wrapping one full catalogue evaluation.

        Recursive estimators override this with recursion headroom; the
        approximate estimator needs none.
        """
        return contextlib.nullcontext()

    def _on_demand_cost(
        self, config: Configuration, work_left: float, already_running: bool
    ) -> float:
        setup = 0.0 if already_running else self.slack.perf.setup_time(config)
        runtime = (
            setup
            + work_left * self.slack.perf.exec_time(config)
            + self.slack.perf.save_time(config)
        )
        return self._rate(config) * runtime / HOURS

    def _argmin(
        self, t: float, work_left: float, current: Configuration | None, cost_of
    ) -> Decision:
        """cbest: the usable configuration minimising ``cost_of(config, running)``.

        The one catalogue loop behind every ``best*`` entry point;
        *running* tells the formulation that *config* is the current
        deployment (its setup is already paid).
        """
        best_config = None
        best_cost = math.inf
        with self._evaluation_guard():
            for config in self.catalog:
                if config.is_transient and not self.market.usable_at(config, t):
                    continue
                running = current is not None and config == current
                cost = cost_of(config, running)
                if cost < best_cost:
                    best_cost, best_config = cost, config
            if best_config is None:
                # Degenerate: nothing feasible; fall back to the last
                # resort.  Still inside the evaluation guard — an
                # all-infeasible catalogue must give the lrc decision,
                # not a RecursionError from an unprotected recursion.
                best_config = self.slack.lrc
                best_cost = cost_of(best_config, False)
        return Decision(
            config=best_config,
            expected_cost=best_cost,
            evaluated_at=t,
            work_left=work_left,
        )

    def best(
        self,
        t: float,
        work_left: float,
        current: Configuration | None = None,
        uptime: float = 0.0,
    ) -> Decision:
        """Minimise EC over the catalogue; the returned config is cbest."""
        self.snapshot(t)
        return self._argmin(
            t,
            work_left,
            current,
            lambda config, running: self.config_cost(
                config, t, work_left, uptime if running else 0.0, running
            ),
        )

    def config_cost(
        self,
        config: Configuration,
        t: float,
        work_left: float,
        uptime: float,
        already_running: bool,
    ) -> float:
        """EC(t, w)|config under this estimator's formulation."""
        raise NotImplementedError


class ApproximateCostEstimator(_EstimatorBase):
    """The §5.3 approximation as a memoised DP — milliseconds per decision.

    Beyond the paper's two simplifications (success branch stays on the
    current configuration; failure branch evaluated at the MTTF), the
    estimator exploits that — with decision-time prices frozen — the
    expected cost depends on absolute time only through the *slack*, so
    states are memoised on ``(config, slack, work)`` buckets.  The memo
    survives across decisions while market prices stay within
    :data:`PRICE_TOLERANCE`, which amortises the computation over a
    job's many checkpoints.  Eviction chains deeper than
    :data:`MAX_FAIL_DEPTH` fall back to the last-resort cost.

    States are the memo buckets ``(config, slack-bucket, work-bucket,
    running, fail-depth)``; a state's children are the success
    continuation (same configuration, less work) and the
    post-eviction follow-ups (every other configuration one fail-depth
    deeper, or the last resort at the depth cap).  :meth:`_chain`
    resolves a spot state by walking its success chain forward, opening
    each state with an ∞ cycle guard, and folding it backward, each
    node's follow-ups resolved in catalogue order before the node is
    closed.  That is the recursive transcription's evaluation order
    (``tests/recursive_oracle.py``) — a state re-entered while open
    reads ∞ at the same moment — so costs, decisions and hit/miss
    counters are bit-identical to it, while recursion is spent only on
    fail depth (at most ``MAX_FAIL_DEPTH + 1`` kernel frames).

    The memo is one flat dict keyed by each state packed into one int
    (the layout is in :meth:`_tune_grids`).  When the grids are tuned,
    each configuration's constants (timings, Daly interval, the
    failure probability of a full interval, the failure instant's
    floor) are tabled into one tuple, and everything else a kernel call
    reads into one environment tuple; rates are written into it at each
    snapshot.  A state costs float arithmetic, its follow-ups' memo
    lookups and — for a truncated interval only — one CDF lookup.

    Args:
        slack_grid: memoisation granularity for slack, seconds (None =
            :func:`adaptive_grids` of the first decision's slack).
        work_grid: memoisation granularity for remaining work (None =
            adaptive likewise).
    """

    def __init__(
        self,
        slack_model: SlackModel,
        market: SpotMarket,
        catalog,
        slack_grid: float | None = None,
        work_grid: float | None = None,
        warning: WarningPolicy = NO_WARNING,
    ):
        super().__init__(slack_model, market, catalog)
        check_dp_parameters(slack_grid, work_grid)
        self.warning = warning
        self.slack_grid = slack_grid
        self.work_grid = work_grid
        self._memo: dict = {}
        self._lrc = slack_model.lrc
        self._grids_tuned = False
        self._memo_hits = 0
        self._memo_misses = 0
        self._memo_invalidations = 0
        self.price_epoch = 0
        # The tabled configurations, by name: the catalogue, then the
        # last resort if the catalogue does not list it.  The key's
        # config field is sized by this count, so the table never grows.
        self._table_cfgs: list[Configuration] = []
        self._cfg_index: dict[str, int] = {}
        for config in self.catalog + self._off_catalog:
            if config.name not in self._cfg_index:
                self._cfg_index[config.name] = len(self._table_cfgs)
                self._table_cfgs.append(config)
        self._rate_arr = [math.nan] * len(self._table_cfgs)

    def _tune_grids(self, slack: float) -> None:
        """Resolve grids left adaptive from the first decision's slack.

        Then table what every kernel call reads.  A state's memo key is
        ``((((slack_b * W + work_b) * 2 + running) * D + depth) * N + ci``
        for ``N`` tabled configurations, ``D = MAX_FAIL_DEPTH + 1`` and
        ``W`` work buckets, those up to :data:`MAX_WORK_LEFT` (the root
        bound :meth:`_cost_at_slack` enforces).  Every field but
        the slack bucket lies in ``[0, radix)``, so floor division
        recovers each field, a negative slack bucket included: no two
        states share a key.
        """
        self.slack_grid, self.work_grid = adaptive_grids(
            slack, self.slack_grid, self.work_grid
        )
        self._grids_tuned = True
        n = len(self._table_cfgs)
        run_stride = n * (MAX_FAIL_DEPTH + 1)
        work_buckets = int(MAX_WORK_LEFT / self.work_grid) + 1
        self._strides = (work_buckets * 2 * run_stride, 2 * run_stride, run_stride)
        perf = self.slack.perf
        timings = [
            (perf.exec_time(c), perf.save_time(c), perf.setup_time(c), perf.fixed_time(c))
            for c in self._table_cfgs
        ]
        self._consts = [
            self._chain_constants(c, *timing) if c.is_transient else None
            for c, timing in zip(self._table_cfgs, timings)
        ]
        # Post-eviction follow-ups of each configuration: every
        # catalogue entry but the evicted market (right after an
        # eviction its price exceeds the bid).
        catalog_idx = [self._cfg_index[c.name] for c in self.catalog]
        followers = [[cj for cj in catalog_idx if cj != ci] for ci in range(n)]
        lrc_only = [self._cfg_index[self._lrc.name]]
        self._env = (
            self._memo, self.slack_grid, self.work_grid, *self._strides, n,
            self._consts, timings, self._rate_arr, followers, lrc_only,
            self.slack.lrc_exec_time, self.slack.lrc_fixed_time,
            self.warning.lead_seconds,
        )  # fmt: skip

    def _chain_constants(self, config, exec_t, save, setup, fixed) -> tuple:
        """A spot configuration's constants, in :meth:`_chain`'s order."""
        model = self.market.eviction_model(config)
        daly, cdf = daly_interval(save, model.mttf), model.cdf
        # Exposure and failure probability of a full Daly interval,
        # warm (already running) and cold (setup first): every chain
        # node not truncated by the work or slack left reads these.
        full = (daly + save, setup + daly + save)
        p_full = (min(1.0, max(0.0, cdf(x))) for x in full)
        can_salvage = self.warning.can_save(save)
        fail_floor = max(model.mttf, self.slack_grid)
        timings = (exec_t, save, setup, fixed)
        return (*timings, daly, can_salvage, cdf, *full, *p_full, fail_floor)

    def snapshot(self, t: float, rates=None) -> None:
        """Freeze market prices at decision time *t*.

        The memo survives while the rates stay within
        :data:`PRICE_TOLERANCE` of the previous snapshot; a larger drift
        starts a new price epoch and drops it (see :meth:`invalidate`).
        """
        old = dict(self._rates)
        super().snapshot(t, rates)
        table_rates = self._rates
        # In place: the kernel's environment tuple holds this list.
        self._rate_arr[:] = [table_rates[c.name] for c in self._table_cfgs]
        if old:
            drift = max(
                abs(table_rates[name] / was - 1.0) if was > 0 else 1.0
                for name, was in old.items()
            )
            if drift <= PRICE_TOLERANCE:
                return
        self.invalidate()

    def invalidate(self) -> None:
        """Start a new price epoch: drop every memoised state.

        This is the :data:`PRICE_TOLERANCE` drift rule made explicit: all
        memo entries belong to one epoch, and a snapshot drifting past
        the tolerance retires the whole epoch at once.
        """
        if self._memo:
            self._memo_invalidations += 1
            self._memo.clear()
        self.price_epoch += 1

    def cache_stats(self) -> CacheStats:
        """Cumulative memo statistics (hits, misses, invalidations)."""
        return CacheStats(
            hits=self._memo_hits,
            misses=self._memo_misses,
            invalidations=self._memo_invalidations,
            entries=len(self._memo),
            epoch=self.price_epoch,
        )

    # ------------------------------------------------------------------
    # Slack-space entry points
    # ------------------------------------------------------------------
    # The §5.3 state only depends on absolute time through the slack, so
    # the whole evaluation can be driven with a caller-supplied slack.
    # This is what lets the planning service share one warm estimator
    # across jobs with *different deadlines*: each job converts
    # (t, work) to slack with its own slack model and queries here.
    def _cost_at_slack(self, config, slack, work_left, running) -> float:
        """EC at an explicit slack (the service-shared query path).

        Raises:
            ValueError: *config* is neither in the catalogue nor the last
                resort, or *work_left* exceeds :data:`MAX_WORK_LEFT`.
        """
        if not self._grids_tuned:
            self._tune_grids(slack)
        if work_left <= _WORK_EPS:
            return 0.0
        ci = self._cfg_index.get(config.name)
        if ci is None or not work_left <= MAX_WORK_LEFT:
            raise ValueError(
                f"cannot key {config.name} at work_left={work_left}: the DP "
                "plans catalogue and last-resort configurations for at most "
                "one whole job"
            )
        slack_stride, work_stride, run_stride = self._strides
        key = (
            int(slack / self.slack_grid) * slack_stride
            + int(work_left / self.work_grid) * work_stride
            + ci
        )
        if running:
            key += run_stride
        cost = self._memo.get(key)
        if cost is not None:
            self._memo_hits += 1
            return cost
        self._memo_misses += 1
        if self._consts[ci] is not None:
            self._memo[key] = math.inf  # cycle guard
            return self._chain(key, ci, slack, work_left, running, 0)
        cost = math.inf
        if self.slack.feasible_from_slack(config, slack, work_left, running):
            cost = self._on_demand_cost(config, work_left, running)
        self._memo[key] = cost
        return cost

    def best_at_slack(
        self,
        slack: float,
        t: float,
        work_left: float,
        current: Configuration | None = None,
        uptime: float = 0.0,
        rates=None,
    ) -> Decision:
        """Minimise EC over the catalogue at an explicit slack value.

        Identical to :meth:`best` when ``slack == slack_model.slack(t,
        work_left)`` (:meth:`config_cost` converts exactly so); *t* is
        still needed for the market snapshot and spot usability.
        """
        self.snapshot(t, rates)
        return self._argmin(
            t,
            work_left,
            current,
            lambda config, running: self._cost_at_slack(
                config, slack, work_left, running
            ),
        )

    def config_cost(self, config, t, work_left, uptime, already_running) -> float:
        # The DP lives in slack space; absolute time and machine uptime
        # are dropped (memoryless eviction approximation).
        """EC(t, w)|config under this estimator's formulation."""
        slack = self.slack.slack(t, work_left)
        return self._cost_at_slack(config, slack, work_left, already_running)

    # ------------------------------------------------------------------
    # The DP kernel
    # ------------------------------------------------------------------
    def _chain(self, key, ci, slack, work_left, running, depth) -> float:
        """Cost of the open spot state *key*, resolving its success chain.

        Forward: walk the success continuation (same configuration,
        less work) in a plain loop, opening each state with its ∞ guard,
        until the work runs out, a state is infeasible or the next
        bucket is already memoised.  Backward: fold the chain from its
        end, adding each node's failure branch — its follow-ups share
        one (slack, work) bucket pair; on-demand ones come from the
        closed form, spot ones from this kernel one fail-depth deeper.
        """
        (memo, slack_grid, work_grid, slack_stride, work_stride, run_stride,
         depth_stride, consts, timings, rate_of, followers_of, lrc_only,
         lrc_exec, lrc_fixed, lead) = self._env  # fmt: skip
        (exec_t, save, setup_t, fixed_t, daly, can_salvage, cdf,
         warm_x, cold_x, warm_p, cold_p, fail_floor) = consts[ci]  # fmt: skip
        rate = rate_of[ci]
        inf = math.inf
        hits = misses = 0

        switch = save if running else fixed_t
        setup = 0.0 if running else setup_t
        # Every success continuation is running at this depth: its key
        # is its two buckets' offsets plus this call's constant.
        chain_off = run_stride + depth * depth_stride + ci
        nodes = []
        while True:
            # useful interval = min(time to finish, slack left, Daly)
            interval = work_left * exec_t
            room = slack - switch
            if room < interval:
                interval = room
            if daly < interval:
                interval = daly
            if room <= 0.0 or interval <= 0:
                value = inf  # infeasible: the guard already is its cost
                break
            exposure = setup + interval + save
            nodes.append((key, slack, work_left, setup, exposure))
            # Success (§5.3 #1): the checkpoint lands and the job keeps
            # running here.  Slack drains by the elapsed time minus the
            # progress converted back into last-resort time.
            progress = interval / exec_t
            if work_left < progress:
                progress = work_left
            slack = slack - exposure + progress * lrc_exec
            work_left = work_left - progress
            if work_left <= _WORK_EPS:
                value = 0.0
                break
            key = (
                int(slack / slack_grid) * slack_stride
                + int(work_left / work_grid) * work_stride
                + chain_off
            )
            value = memo.get(key)
            if value is not None:
                hits += 1
                break
            misses += 1
            memo[key] = inf  # cycle guard
            switch = save
            setup = 0.0

        if depth >= MAX_FAIL_DEPTH:
            followers, fdepth = lrc_only, depth
        else:
            followers, fdepth = followers_of[ci], depth + 1
        follow_off = fdepth * depth_stride  # not running, one depth deeper
        for key, slack, work_left, setup, exposure in reversed(nodes):
            if exposure == warm_x:
                p_fail = warm_p
            elif exposure == cold_x:
                p_fail = cold_p
            else:
                # min(1.0, max(0.0, p)) as comparisons: NaN and -0.0 give +0.0
                p_fail = cdf(exposure)
                if not p_fail > 0.0:
                    p_fail = 0.0
                elif p_fail > 1.0:
                    p_fail = 1.0
            success_cost = rate * exposure / HOURS + value
            # Failure (§5.3 #2): evaluated at the MTTF (clamped into the
            # exposure window).  Without an eviction warning no work
            # survives; with one that covers t_save (§9 extension), the
            # computation up to the warning instant is checkpointed.
            fail_at = fail_floor if fail_floor < exposure else exposure
            salvaged = 0.0
            if can_salvage:
                computed = fail_at - setup - lead
                if computed > 0:
                    salvaged = min(work_left, computed / exec_t)
            work_left = work_left - salvaged
            slack = slack - fail_at + salvaged * lrc_exec
            follow = 0.0
            if work_left > _WORK_EPS:
                follow = inf
                base = (
                    int(slack / slack_grid) * slack_stride
                    + int(work_left / work_grid) * work_stride
                    + follow_off
                )
                lrc_finish = slack + lrc_fixed + work_left * lrc_exec
                for cj in followers:
                    fkey = base + cj
                    cost = memo.get(fkey)
                    if cost is not None:
                        hits += 1
                    elif consts[cj] is not None:
                        misses += 1
                        memo[fkey] = inf  # cycle guard
                        cost = self._chain(fkey, cj, slack, work_left, False, fdepth)
                    else:
                        # On-demand leaf: run to completion if that
                        # still beats the deadline, else ∞.
                        misses += 1
                        exec_j, save_j, setup_j, fixed_j = timings[cj]
                        runtime = work_left * exec_j
                        if lrc_finish - fixed_j - runtime >= -1e-9:
                            runtime = setup_j + runtime + save_j
                            cost = rate_of[cj] * runtime / HOURS
                        else:
                            cost = inf
                        memo[fkey] = cost
                    if cost < follow:
                        follow = cost
            fail_cost = rate * fail_at / HOURS + follow
            value = memo[key] = p_fail * fail_cost + (1.0 - p_fail) * success_cost
        self._memo_hits += hits
        self._memo_misses += misses
        return value


class ExactCostEstimator(_EstimatorBase):
    """The §5.2 formulation with a finite-sum failure integral.

    Args:
        dt: discretisation of the failure integral (the paper uses one
            second, matching the finest price-change granularity).
        max_states: abort with :class:`DecisionBudgetExceeded` after this
            many sub-evaluations (models the paper's >1 h DNFs).
    """

    def __init__(
        self,
        slack_model: SlackModel,
        market: SpotMarket,
        catalog,
        dt: float = 1.0,
        max_states: int = 2_000_000,
    ):
        super().__init__(slack_model, market, catalog)
        if dt <= 0:
            raise ValueError("dt must be positive")
        self.dt = dt
        self.max_states = max_states
        self._memo: dict = {}
        self._states = 0

    def _evaluation_guard(self):
        return _recursion_headroom()

    def snapshot(self, t: float, rates=None) -> None:
        """Freeze market prices at decision time *t*."""
        super().snapshot(t, rates)
        self._memo.clear()
        self._states = 0

    def config_cost(self, config, t, work_left, uptime, already_running) -> float:
        """EC(t, w)|config under this estimator's formulation."""
        self._states += 1
        if self._states > self.max_states:
            raise DecisionBudgetExceeded(
                f"exact EC exceeded {self.max_states} states"
            )
        if len(self._memo) == 0 and self._states == 1:
            # Entry point without best(): still needs stack headroom.
            with _recursion_headroom():
                return self._config_cost_memo(
                    config, t, work_left, uptime, already_running
                )
        return self._config_cost_memo(config, t, work_left, uptime, already_running)

    def _config_cost_memo(self, config, t, work_left, uptime, already_running) -> float:
        key = (
            config.name,
            int(t / self.dt),
            int(work_left / 1e-4),
            int(uptime / self.dt),
            already_running,
        )
        cached = self._memo.get(key)
        if cached is not None:
            return cached
        self._memo[key] = math.inf
        cost = self._config_cost(config, t, work_left, uptime, already_running)
        self._memo[key] = cost
        return cost

    def _config_cost(self, config, t, work_left, uptime, already_running) -> float:
        if work_left <= _WORK_EPS:
            return 0.0
        if not self.slack.feasible(config, t, work_left, already_running):
            return math.inf
        if not config.is_transient:
            return self._on_demand_cost(config, work_left, already_running)

        model = self.market.eviction_model(config)
        mttf = model.mttf
        interval = self.slack.useful(config, t, work_left, mttf, already_running)
        if interval <= 0:
            return math.inf
        save = self.slack.perf.save_time(config)
        setup = 0.0 if already_running else self.slack.perf.setup_time(config)
        exposure = setup + interval + save
        rate = self._rate(config)

        survival_now = max(1e-12, 1.0 - model.cdf(uptime))
        total_fail = (model.cdf(uptime + exposure) - model.cdf(uptime)) / survival_now
        total_fail = min(1.0, max(0.0, total_fail))

        # Finite-sum failure integral: weight each failure instant by its
        # probability mass and re-minimise the follow-up over the whole
        # catalogue (the expensive part).
        fail_cost = 0.0
        if total_fail > 0:
            steps = max(1, int(math.ceil(exposure / self.dt)))
            norm = max(1e-12, model.cdf(uptime + exposure) - model.cdf(uptime))
            for i in range(steps):
                x0 = i * self.dt
                x1 = min(exposure, x0 + self.dt)
                mass = (model.cdf(uptime + x1) - model.cdf(uptime + x0)) / norm
                if mass <= 0:
                    continue
                mid = 0.5 * (x0 + x1)
                follow = self._min_over_catalog(t + mid, work_left)
                fail_cost += mass * (rate * mid / HOURS + follow)

        progress = min(work_left, interval / self.slack.perf.exec_time(config))
        success_follow = self._min_over_catalog(
            t + exposure, work_left - progress, config, uptime + exposure
        )
        success_cost = rate * exposure / HOURS + success_follow
        return total_fail * fail_cost + (1.0 - total_fail) * success_cost

    def _min_over_catalog(self, t, work_left, current=None, uptime=0.0) -> float:
        """Follow-up cost: full minimisation; *current* may stay put."""
        best = math.inf
        for config in self.catalog:
            running = config == current
            cost = self.config_cost(
                config, t, work_left, uptime if running else 0.0, running
            )
            if cost < best:
                best = cost
        return best
