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


class MetricsObserver(LifecycleObserver):
    """Per-run counters and phase seconds the run's result does not carry.

    Deployments, evictions, persisted checkpoints, rescales and the
    makespan are read from the :class:`~repro.exec.events.RunResult` at
    ``on_finish``, whose ``events`` are the run's timeline.  The hooks
    add only what the result drops: planning-decision telemetry, setup
    and checkpoint seconds, failed checkpoint writes and forced
    handovers.
    """

    #: Canonical counter keys: :meth:`report` always emits every one
    #: (0 when unobserved) so recurring-run reports have a stable schema.
    REPORT_COUNTERS = (
        "deployments",
        "evictions",
        "checkpoints",
        "checkpoint_failures",
        "forced_handovers",
        "rescales",
        "decisions",
        "warm_decisions",
        "cold_decisions",
        "snapshot_reuses",
        "memo_hits",
        "memo_misses",
    )

    def __init__(self):
        self.on_run_start(0.0)

    def _add(self, key: str, n: int = 1) -> None:
        self.counters[key] = self.counters.get(key, 0) + n

    def on_run_start(self, t: float) -> None:
        """Reset all collected state for a fresh run."""
        self.counters: dict = {}
        self.setup_seconds = 0.0
        self.checkpoint_seconds = 0.0
        self.decision_seconds = 0.0
        self.makespan_seconds = 0.0

    def on_decision(self, t: float, telemetry) -> None:
        """Accumulate planning-service decision telemetry.

        Counts decisions (split warm/cold by estimator reuse), memo
        hits/misses, snapshot reuses, and the wall-clock seconds the
        decisions cost — real time, not simulated time, so it reports
        what a deployment would actually spend planning.
        """
        self._add("decisions")
        self._add("warm_decisions" if telemetry.estimator_reused else "cold_decisions")
        if telemetry.snapshot_reused:
            self._add("snapshot_reuses")
        self._add("memo_hits", telemetry.memo_hits)
        self._add("memo_misses", telemetry.memo_misses)
        self.decision_seconds += telemetry.latency_s

    def on_deploy(self, t: float, config: Configuration, setup_seconds: float) -> None:
        """Accumulate the deployment's setup time."""
        self.setup_seconds += setup_seconds

    def on_checkpoint(
        self, t: float, config: Configuration, seconds: float, persisted: bool
    ) -> None:
        """Accumulate the write's duration; count it if it failed."""
        if not persisted:
            self._add("checkpoint_failures")
        self.checkpoint_seconds += seconds

    def on_forced_handover(self, t: float, config: Configuration) -> None:
        """Count the forced decision point."""
        self._add("forced_handovers")

    def on_finish(self, t: float, result) -> None:
        """Take the run's headline counters and makespan from *result*."""
        self.counters.update(
            deployments=result.deployments,
            evictions=result.evictions,
            checkpoints=result.checkpoints,
            rescales=result.rescales,
        )
        self.makespan_seconds = result.makespan

    def report(self) -> dict:
        """Counters + phase seconds + makespan as one flat dict.

        The key set is stable across runs: every canonical counter
        (:data:`REPORT_COUNTERS`), ``setup_seconds``/``checkpoint_seconds``
        and ``decision_seconds``/``makespan_seconds`` are always present,
        defaulting to 0 — so recurring-run reports line up column for
        column instead of growing keys as events happen to occur.
        """
        out: dict = {key: 0 for key in self.REPORT_COUNTERS}
        out.update(self.counters)
        out["setup_seconds"] = self.setup_seconds
        out["checkpoint_seconds"] = self.checkpoint_seconds
        out["decision_seconds"] = self.decision_seconds
        out["makespan_seconds"] = self.makespan_seconds
        return out

    def format_report(self) -> str:
        """Small human-readable summary."""
        lines = [
            f"  {key:<22} {value:>12.2f}"
            if isinstance(value, float)
            else f"  {key:<22} {value:>12}"
            for key, value in sorted(self.report().items())
        ]
        return "\n".join(["lifecycle metrics:"] + lines)
