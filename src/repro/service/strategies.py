"""Lifecycle-facing strategy objects resolved by the planning service.

The service is the strategy registry for the decision path: the
simulator and experiment harnesses ask
``service.provisioner("hourglass")`` (or any baseline key) instead of
constructing provisioner classes directly.  ``hourglass`` resolves to a
:class:`~repro.core.provisioner.HourglassProvisioner` bound to the
service, so every ``select()`` plans from its shared caches; the
baselines are stateless (or cheaply per-job-stateful) and resolve to
fresh instances of their :mod:`repro.core.baselines` classes.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable

from repro.cloud.configuration import Configuration
from repro.core.baselines import (
    DeadlineProtected,
    HourglassNaiveProvisioner,
    OnDemandProvisioner,
    ProteusProvisioner,
    SpotOnProvisioner,
)
from repro.core.provisioner import (
    HourglassProvisioner,
    Provisioner,
    ProvisioningContext,
)
from repro.exec.rescale import RescaleContext, RescaleDecision, RescalePolicy

if TYPE_CHECKING:
    from repro.service.planning import PlanningService

#: Reported work fraction at or below which a rescale is not evaluated:
#: a tail too short to repay any move.
RESCALE_MIN_WORK_LEFT = 0.01


class PlannedRescalePolicy(RescalePolicy):
    """Service-backed rescale policy: the §5.3 DP answers move-vs-stay.

    At every persisted checkpoint the lifecycle hands this policy a
    :class:`~repro.exec.rescale.RescaleContext`; the policy turns it
    into a :class:`~repro.service.planning.RescaleQuery` against the
    shared :class:`PlanningService`, pinning the same memo grids the
    job's planning session uses so both query paths share warm memo.
    Moves need no cooldown: the DP charges every move its full setup
    cost, and the service's
    :data:`~repro.service.planning.MIN_SAVING_FRACTION` hysteresis
    guards against churn.

    Args:
        service: the planning service answering the queries.
    """

    def __init__(self, service: PlanningService):
        self.service = service
        self._grids: tuple[float, float] | None = None

    def pin_grids(self, grids: tuple[float, float] | None) -> None:
        """Share the job session's memo grids with rescale queries."""
        self._grids = grids

    def reset(self) -> None:
        """Clear per-job state (grids re-pin at the next session)."""
        self._grids = None

    def evaluate(self, ctx: RescaleContext) -> RescaleDecision | None:
        """Ask the service whether a planned move beats staying."""
        from repro.service.planning import RescaleQuery

        if ctx.work_left <= RESCALE_MIN_WORK_LEFT:
            return None
        grids = self._grids or (None, None)
        return self.service.plan_rescale(
            RescaleQuery(
                slack_model=ctx.slack_model,
                catalog=tuple(ctx.catalog),
                t=ctx.t,
                work_left=ctx.work_left,
                current_config=ctx.config,
                current_uptime=ctx.uptime,
                frontier=ctx.frontier,
                slack_grid=grids[0],
                work_grid=grids[1],
            )
        )


class ElasticPlannedProvisioner(HourglassProvisioner):
    """Hourglass planning plus frontier-driven mid-job elasticity.

    Two deliberate differences from the base strategy:

    * ``select`` is *sticky*: while a deployment is live it is kept, so
      every voluntary reconfiguration routes through the
      :class:`PlannedRescalePolicy` at checkpoint boundaries — moves
      carry hysteresis, are counted as rescales, and pay an explicit
      accounted switch cost.  (The base strategy re-plans every decision
      point and silently redeploys whenever the argmin flips.)  Deadline
      safety is unchanged: the segment limit still forces a decision
      point at slack zero, where the deployment is gone and the service
      plans fresh — the last-resort handover works exactly as before.
    * It owns a ``rescale_policy`` the lifecycle discovers (simulator
      and runtime pass it through), with the job session's memo grids
      shared between planning and rescale queries.
    """

    name = "elastic"

    def __init__(self, service: PlanningService):
        super().__init__(service)
        self.rescale_policy = PlannedRescalePolicy(service)

    def reset(self) -> None:
        """End the job session for planning and rescaling alike."""
        super().reset()
        self.rescale_policy.reset()

    def select(self, ctx: ProvisioningContext) -> Configuration:
        """Keep a live deployment; plan fresh only when there is none."""
        if ctx.current_config is not None:
            return ctx.current_config
        choice = super().select(ctx)
        self.rescale_policy.pin_grids(self._grids)
        return choice


#: Strategy key -> factory(service): the one strategy registry.  Figure
#: grids, ablations, the load harness and the examples all resolve
#: strategies by these names, through ``PlanningService.provisioner``.
SERVICE_STRATEGIES: dict[str, Callable[..., Provisioner]] = {
    "hourglass": HourglassProvisioner,
    "elastic": ElasticPlannedProvisioner,
    "proteus": lambda service: ProteusProvisioner(),
    "spoton": lambda service: SpotOnProvisioner(),
    "proteus+dp": lambda service: DeadlineProtected(ProteusProvisioner()),
    "spoton+dp": lambda service: DeadlineProtected(SpotOnProvisioner()),
    "hourglass-naive": lambda service: HourglassNaiveProvisioner(),
    "on-demand": lambda service: OnDemandProvisioner(),
}
