"""Observer hooks for the execution lifecycle.

The lifecycle loop publishes every phase transition — deploy,
checkpoint, eviction, forced handover, finish — through
:class:`LifecycleObserver` hooks, and routes three quantities through
*adjustment* hooks (setup time, eviction time, checkpoint writes) so
that fault injection (:mod:`repro.exec.faults`) and observability are
plug-ins rather than loop edits.

An observer implements only the hooks it needs, and need not subclass
:class:`LifecycleObserver` (which documents the protocol): the lifecycle
treats a missing observation hook as a no-op and a missing adjustment
hook as the identity, so the run is otherwise bit-identical.  Observers
are applied in registration order; for checkpoint-write plans the first
observer returning a plan wins.  The run's timeline is the result's
``events``; observers do not keep a second one.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.cloud.configuration import Configuration


@dataclass(frozen=True)
class CheckpointWritePlan:
    """How one checkpoint write played out (possibly fault-injected).

    Attributes:
        seconds: total simulated seconds the write occupied, including
            failed attempts and backoff waits.
        success: whether the state finally persisted.
        attempts: write attempts made (1 = clean first-try write).
    """

    seconds: float
    success: bool = True
    attempts: int = 1


class LifecycleObserver:
    """The observer protocol: every hook as a no-op / identity adjustment."""

    # ------------------------------------------------------------------
    # Observation hooks
    # ------------------------------------------------------------------
    def on_run_start(self, t: float) -> None:
        """A job execution begins at time *t*."""

    def on_decision(self, t: float, telemetry) -> None:
        """The provisioner answered a decision point.

        *telemetry* is the decision's
        :class:`~repro.service.planning.PlanTelemetry`; baseline
        strategies, which never plan through the service, raise no
        ``on_decision``.
        """

    def on_deploy(self, t: float, config: Configuration, setup_seconds: float) -> None:
        """A (re)deployment of *config* starts its setup."""

    def on_eviction(self, t: float, config: Configuration) -> None:
        """The current deployment of *config* was evicted."""

    def on_checkpoint(
        self, t: float, config: Configuration, seconds: float, persisted: bool
    ) -> None:
        """A checkpoint write finished (*persisted* = it landed)."""

    def on_forced_handover(self, t: float, config: Configuration) -> None:
        """The strategy left no usable time on the deployment."""

    def on_rescale(self, t: float, config: Configuration, decision) -> None:
        """A planned reconfiguration away from *config* was decided.

        *decision* is the :class:`~repro.exec.rescale.RescaleDecision`;
        the forced redeploy onto its target follows as a normal
        ``on_deploy``.
        """

    def on_bill(
        self, t: float, config: Configuration, seconds: float, dollars: float
    ) -> None:
        """The meter billed *config* for *seconds* of wall occupancy.

        *seconds* is per-deployment (multiply by ``config.num_workers``
        for machine-seconds); *dollars* is what the interval actually
        cost at market prices.  Fired live, as intervals close — the
        hook that makes mid-run spend attribution possible.
        """

    def on_finish(self, t: float, result) -> None:
        """The job completed; *result* is the final RunResult."""

    # ------------------------------------------------------------------
    # Adjustment hooks (fault-injection points)
    # ------------------------------------------------------------------
    def adjust_setup_time(
        self, t: float, config: Configuration, setup_seconds: float
    ) -> float:
        """Perturb a deployment's boot+load time (slow boots)."""
        return setup_seconds

    def adjust_eviction_time(
        self, t: float, config: Configuration, eviction_at: float | None
    ) -> float | None:
        """Perturb the deployment's eviction time (forced evictions)."""
        return eviction_at

    def plan_checkpoint_write(
        self, t: float, config: Configuration, save_seconds: float, index: int
    ) -> CheckpointWritePlan | None:
        """Take over the *index*-th checkpoint write (datastore faults).

        Return None to leave the write untouched (a clean
        ``save_seconds`` write).
        """
        return None
