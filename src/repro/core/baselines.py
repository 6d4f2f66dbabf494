"""Baseline provisioners: the systems Hourglass is compared against (§8).

* :class:`OnDemandProvisioner` — always the last-resort configuration;
  the cost normaliser.
* :class:`SpotOnProvisioner` — SpotOn's eager greedy policy: the
  deployment minimising cost-per-unit-of-work at *current* market
  prices.  No deadline awareness.
* :class:`ProteusProvisioner` — Proteus's greedy policy: like SpotOn
  but pricing with *historical mean* spot prices and discounting
  configurations likely to be evicted before finishing.  Still no
  deadline awareness.
* :class:`DeadlineProtected` — the paper's straightforward "+DP"
  extension: wrap any provisioner; once the slack needed to tolerate
  another eviction is gone, latch onto the last-resort configuration.
* :class:`HourglassNaiveProvisioner` — Fig 1's "Hourglass Naive":
  SpotOn followed by the DP fallback.

These classes are the *strategy implementations*; the decision path
resolves them by name through the planning service
(``PlanningService.provisioner("spoton")`` etc. — see
:mod:`repro.service.strategies`).  They keep no DP state, so the
service hands out fresh instances rather than caching them.
"""

from __future__ import annotations

import math

from repro.cloud.configuration import Configuration
from repro.core.provisioner import Provisioner, ProvisioningContext


class OnDemandProvisioner(Provisioner):
    """Always run the fastest on-demand configuration."""

    name = "on-demand"

    def select(self, ctx: ProvisioningContext) -> Configuration:
        """Pick the configuration to run next (see class docstring)."""
        return ctx.slack_model.lrc


class SpotOnProvisioner(Provisioner):
    """Eager greedy: minimise current cost per unit of work.

    Scores every usable transient configuration by
    ``current_rate * t_exec`` (the undisturbed cost of finishing the job
    there) and picks the minimum; falls back to on-demand only when no
    spot market is usable.  This is the strategy that achieves large
    savings but misses deadlines (Fig 1's "eager" bar).
    """

    name = "spoton"

    def select(self, ctx: ProvisioningContext) -> Configuration:
        """Pick the configuration to run next (see class docstring)."""
        perf = ctx.slack_model.perf
        best, best_score = None, math.inf
        for config in ctx.catalog:
            if not config.is_transient:
                continue
            if not ctx.market.usable_at(config, ctx.t):
                continue
            score = ctx.market.config_rate(config, ctx.t) * perf.exec_time(config)
            if score < best_score:
                best, best_score = config, score
        if best is None:
            return ctx.slack_model.lrc
        return best


class ProteusProvisioner(Provisioner):
    """Greedy on *historical mean* prices (expected cost per work).

    Proteus models expected rather than instantaneous prices: a
    transient configuration is scored by its historical mean rate times
    the execution time.  The choice is therefore sticky (it does not
    chase momentary price dips the way SpotOn does) but equally
    deadline-oblivious.
    """

    name = "proteus"

    def select(self, ctx: ProvisioningContext) -> Configuration:
        """Pick the configuration to run next (see class docstring)."""
        perf = ctx.slack_model.perf
        best, best_score = None, math.inf
        for config in ctx.catalog:
            if not config.is_transient:
                continue
            if not ctx.market.usable_at(config, ctx.t):
                continue
            stats = ctx.market.stats_for(config.instance_type.name)
            mean_rate = config.num_workers * stats.mean_spot_price
            score = mean_rate * perf.exec_time(config)
            if score < best_score:
                best, best_score = config, score
        if best is None:
            return ctx.slack_model.lrc
        return best


class DeadlineProtected(Provisioner):
    """The "+DP" wrapper: greedy until the slack runs out, then latch.

    The trigger is the paper's: the remaining slack can no longer absorb
    another eviction-and-redeploy cycle.  Because the wrapped greedy may
    deploy *any* transient configuration (whose setup alone consumes
    slack), the safe margin is the largest transient fixed time — with a
    smaller margin a single eviction during a slow redeploy would
    already sink the deadline.
    """

    def __init__(self, inner: Provisioner):
        self.inner = inner
        self.name = f"{inner.name}+dp"
        self._latched = False

    def reset(self) -> None:
        """Clear per-job state."""
        self._latched = False
        self.inner.reset()

    @staticmethod
    def _margin(ctx: ProvisioningContext) -> float:
        perf = ctx.slack_model.perf
        transient = [c for c in ctx.catalog if c.is_transient]
        return max((perf.fixed_time(c) for c in transient), default=0.0)

    def select(self, ctx: ProvisioningContext) -> Configuration:
        """Pick the configuration to run next (see class docstring)."""
        if not self._latched and ctx.slack <= self._margin(ctx):
            self._latched = True
        if self._latched:
            return ctx.slack_model.lrc
        return self.inner.select(ctx)

    def segment_limit(self, ctx: ProvisioningContext) -> float:
        """Interrupt a spot run exactly when the DP trigger fires."""
        if self._latched:
            return math.inf
        config = ctx.current_config
        if config is None or not config.is_transient:
            return math.inf
        return ctx.slack - self._margin(ctx)


class HourglassNaiveProvisioner(DeadlineProtected):
    """Fig 1's naive deadline-meeting strategy: SpotOn + DP."""

    def __init__(self):
        super().__init__(SpotOnProvisioner())
        self.name = "hourglass-naive"
