"""Observer hooks for the execution lifecycle.

The lifecycle loop announces each run through ``on_run_start`` and
routes three quantities through *adjustment* hooks (setup time,
eviction time, checkpoint writes), so that fault injection
(:mod:`repro.exec.faults`) is a plug-in rather than a loop edit.

An observer implements only the hooks it needs, and need not subclass
:class:`LifecycleObserver` (which documents the protocol): the lifecycle
treats a missing ``on_run_start`` as a no-op and a missing adjustment
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

    def on_run_start(self, t: float) -> None:
        """A job execution begins at time *t*."""

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
