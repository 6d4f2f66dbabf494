"""Planned mid-job reconfiguration: the rescale decision surface.

Hourglass reconfigures *reactively* — an eviction or a forced handover
destroys the deployment and the provisioner picks a new one.  A
:class:`RescalePolicy` adds *planned* decision points: after every
persisted checkpoint the lifecycle asks the policy whether the job
should deliberately move to a smaller (or larger) configuration, given
the measured active-vertex frontier and the remaining slack.  A planned
move pays the normal redeployment cost (boot + micro-partition reload +
checkpoint restore) but loses no work — the checkpoint that just landed
is the state the new deployment restores.

The policy is evaluated at checkpoint boundaries only: that is where a
consistent state exists in the external datastore, so a move from here
is a pure reconfiguration rather than a rollback.  Everything a policy
may look at rides in the :class:`RescaleContext`; the decision comes
back as a :class:`RescaleDecision` ("stay" decisions are represented as
``None`` from :meth:`RescalePolicy.evaluate`).

The service-backed policy (reusing the §5.3 slack-space DP to answer
"is a move cheaper net of its cost?") lives in
:class:`repro.service.strategies.PlannedRescalePolicy`; this module is
engine- and service-free so work models and the lifecycle can depend on
it without layering cycles.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass

from repro.cloud.configuration import Configuration

#: Rescale actions (``RescaleDecision.action``).
RESCALE_SHRINK = "shrink"
RESCALE_GROW = "grow"
RESCALE_MOVE = "move"  # same worker count, different machine shape


@dataclass(frozen=True)
class RescaleContext:
    """Everything a rescale policy may look at after a checkpoint.

    Attributes:
        t: simulated time of the decision point (checkpoint persisted).
        config: the currently deployed configuration.
        uptime: seconds the current deployment has been up.
        work_left: work fraction as reported to the provisioner
            (frontier-scaled under time accounting).
        frontier: measured/replayed active-vertex fraction in (0, 1].
        slack_model: the job's deadline/performance binding.
        market: price and eviction statistics.
        catalog: candidate configurations.
        superstep: engine superstep counter (0 for analytic runs).
    """

    t: float
    config: Configuration
    uptime: float
    work_left: float
    frontier: float
    slack_model: object
    market: object
    catalog: tuple[Configuration, ...]
    superstep: int = 0


@dataclass(frozen=True)
class RescaleDecision:
    """A planned reconfiguration the lifecycle should carry out.

    Attributes:
        target: configuration to move to (never the current one).
        action: :data:`RESCALE_SHRINK` / :data:`RESCALE_GROW` /
            :data:`RESCALE_MOVE`.
        stay_cost: expected cost of keeping the current deployment.
        target_cost: expected cost of the move, *including* its
            redeployment (setup) cost — the DP charges setup for any
            non-running candidate, so the comparison is net of the move.
        frontier: the frontier fraction the decision was made at.
        evaluated_at: decision time.
        reason: one-line human-readable justification.
    """

    target: Configuration
    action: str
    stay_cost: float
    target_cost: float
    frontier: float
    evaluated_at: float
    reason: str = ""

    @property
    def saving(self) -> float:
        """Expected dollars saved by moving (may be inf when staying
        cannot meet the deadline at all)."""
        return self.stay_cost - self.target_cost


def rescale_action(current: Configuration, target: Configuration) -> str:
    """Classify a move by worker-count direction."""
    if target.num_workers < current.num_workers:
        return RESCALE_SHRINK
    if target.num_workers > current.num_workers:
        return RESCALE_GROW
    return RESCALE_MOVE


class RescalePolicy(abc.ABC):
    """Decides planned reconfigurations at checkpoint boundaries."""

    @abc.abstractmethod
    def evaluate(self, ctx: RescaleContext) -> RescaleDecision | None:
        """Return a move to carry out, or None to stay."""

    def reset(self) -> None:
        """Clear any per-job state (called before each run)."""
