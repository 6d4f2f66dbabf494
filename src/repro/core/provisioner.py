"""Provisioner interface and the Hourglass slack-aware provisioner (§5).

A provisioner is consulted at every decision point of a job's execution
— start, after each checkpoint, after each eviction — and returns the
configuration to run next.  :class:`HourglassProvisioner` minimises the
approximate expected cost while the slack accounting guarantees the
deadline; baselines live in :mod:`repro.core.baselines`.
"""

from __future__ import annotations

import abc
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.cloud.configuration import Configuration
from repro.cloud.market import SpotMarket
from repro.core.expected_cost import Decision
from repro.core.slack import SlackModel

if TYPE_CHECKING:
    from repro.service.planning import PlanningService


@dataclass(frozen=True)
class ProvisioningContext:
    """Everything a provisioner may look at when deciding.

    Attributes:
        t: current simulation time.
        work_left: fraction of the job outstanding (checkpointed state).
        current_config: the running configuration, or None after an
            eviction / at job start.
        current_uptime: how long the current deployment has been up.
        slack_model: deadline/performance binding for this job.
        market: price and eviction statistics (decision-time snapshot).
        catalog: candidate configurations.
    """

    t: float
    work_left: float
    current_config: Configuration | None
    current_uptime: float
    slack_model: SlackModel
    market: SpotMarket
    catalog: tuple[Configuration, ...]

    @property
    def slack(self) -> float:
        """Slack at this context's (t, work_left)."""
        return self.slack_model.slack(self.t, self.work_left)


class Provisioner(abc.ABC):
    """Strategy object choosing deployment configurations."""

    #: Human-readable strategy name (used in reports).
    name: str = "abstract"

    @abc.abstractmethod
    def select(self, ctx: ProvisioningContext) -> Configuration:
        """Pick the configuration to run next."""

    def segment_limit(self, ctx: ProvisioningContext) -> float:
        """Longest run the strategy allows before forcing a decision point.

        Deadline-aware strategies cap segments so that a decision point
        lands exactly when the slack is about to run out; eager
        strategies never interrupt (infinity).
        """
        return math.inf

    def reset(self) -> None:
        """Clear any per-job state (called before each simulated job)."""


class HourglassProvisioner(Provisioner):
    """The slack-aware strategy: minimise approximate expected cost.

    At every decision point it asks a
    :class:`~repro.service.planning.PlanningService` for the catalogue
    configuration minimising ``EC(t, w)|c`` under the §5.3
    approximation.  The slack accounting inside the estimator makes
    infeasible configurations cost infinity, so as the slack drains the
    choice collapses onto the last-resort configuration exactly when
    needed — the paper's "switch when (but only if) the deadline is at
    risk".

    The DP memo, catalogue tables and market snapshots live in the
    service and stay warm across jobs.  A job *session* pins its memo
    grids at its first decision after :meth:`reset` (resolved from that
    decision's slack — the estimator's adaptive tuning) so every later
    decision of the job lands in the same memo space.

    Args:
        service: the planning service to plan through (shared caches
            across provisioners).  None = a private service over the
            market of the first context shown to :meth:`select`.
    """

    name = "hourglass"

    def __init__(self, service: PlanningService | None = None):
        self.service = service
        self._private: PlanningService | None = None
        self.last_decision: Decision | None = None
        self._grids: tuple[float, float] | None = None

    def reset(self) -> None:
        """End the job session: re-resolve grids at the next decision."""
        self._grids = None
        self.last_decision = None

    def select(self, ctx: ProvisioningContext) -> Configuration:
        """Route the decision through the service's shared caches."""
        # Lazy import: the service layer sits above core.
        from repro.service.planning import PlanningService, PlanRequest

        service = self.service
        if service is None:
            if self._private is None or self._private.market is not ctx.market:
                self._private = PlanningService(ctx.market)
            service = self._private
        if self._grids is None:
            self._grids = service.resolved_grids(ctx.slack_model, ctx.t, ctx.work_left)
        result = service.plan(
            PlanRequest(
                slack_model=ctx.slack_model,
                catalog=tuple(ctx.catalog),
                t=ctx.t,
                work_left=ctx.work_left,
                current_config=ctx.current_config,
                current_uptime=ctx.current_uptime,
                slack_grid=self._grids[0],
                work_grid=self._grids[1],
            )
        )
        self.last_decision = result.decision
        return result.decision.config

    def segment_limit(self, ctx: ProvisioningContext) -> float:
        """Stop computing when the slack (minus one save) is exhausted.

        Running a transient segment past ``slack - t_save`` would leave
        no room to persist progress and still start the last resort in
        time; ending the segment there lands the hand-over decision at
        exactly slack zero.
        """
        config = ctx.current_config
        if config is None or not config.is_transient:
            return math.inf
        return ctx.slack - ctx.slack_model.perf.save_time(config)
