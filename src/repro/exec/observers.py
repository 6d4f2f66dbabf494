"""Observer hooks for the execution lifecycle.

The lifecycle loop publishes every phase transition — deploy,
checkpoint, eviction, forced handover, finish — through
:class:`LifecycleObserver` hooks, and routes three quantities through
*adjustment* hooks (setup time, eviction time, checkpoint writes) so
that fault injection (:mod:`repro.exec.faults`) and observability are
plug-ins rather than loop edits.

Observation hooks default to no-ops; adjustment hooks default to the
identity, so an observer that only overrides what it cares about leaves
the run bit-identical otherwise.  Observers are applied in registration
order; for checkpoint-write plans the first observer returning a plan
wins.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.cloud.configuration import Configuration
from repro.obs.events import TimelineEvent


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
    """Base observer: all hooks are no-ops / identity adjustments."""

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


@dataclass
class PhaseTimers:
    """Simulated seconds spent per lifecycle phase."""

    setup: float = 0.0
    checkpoint: float = 0.0

    def as_dict(self) -> dict:
        """Plain-dict view for reports."""
        return {"setup_seconds": self.setup, "checkpoint_seconds": self.checkpoint}


class MetricsObserver(LifecycleObserver):
    """Counters, per-phase timers and an event timeline for one run.

    The runtime/simulator result already carries the headline counters;
    this observer adds what the result drops — failed checkpoint writes,
    forced handovers, setup/checkpoint second totals, and a typed
    :class:`~repro.obs.events.TimelineEvent` timeline (shared with the
    :mod:`repro.obs` trace exporters).
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
        self.counters: dict = {}
        self.timers = PhaseTimers()
        self.timeline: list = []
        self.started_at: float | None = None
        self.finished_at: float | None = None
        self.decision_seconds = 0.0

    def _bump(self, key: str) -> None:
        self.counters[key] = self.counters.get(key, 0) + 1

    def _mark(self, t: float, kind: str, config: Configuration | None) -> None:
        self.timeline.append(
            TimelineEvent(t=t, kind=kind, config=config.name if config else "-")
        )

    def on_run_start(self, t: float) -> None:
        """Reset all collected state for a fresh run."""
        self.counters = {}
        self.timers = PhaseTimers()
        self.timeline = []
        self.started_at = t
        self.finished_at = None
        self.decision_seconds = 0.0

    def on_decision(self, t: float, telemetry) -> None:
        """Accumulate planning-service decision telemetry.

        Counts decisions (split warm/cold by estimator reuse), memo
        hits/misses, snapshot reuses, and the wall-clock seconds the
        decisions cost — real time, not simulated time, so it reports
        what a deployment would actually spend planning.
        """
        self._bump("decisions")
        self._bump(
            "warm_decisions" if telemetry.estimator_reused else "cold_decisions"
        )
        if telemetry.snapshot_reused:
            self._bump("snapshot_reuses")
        self.counters["memo_hits"] = (
            self.counters.get("memo_hits", 0) + telemetry.memo_hits
        )
        self.counters["memo_misses"] = (
            self.counters.get("memo_misses", 0) + telemetry.memo_misses
        )
        self.decision_seconds += telemetry.latency_s

    def on_deploy(self, t: float, config: Configuration, setup_seconds: float) -> None:
        """Count the deployment and accumulate its setup time."""
        self._bump("deployments")
        self.timers.setup += setup_seconds
        self._mark(t, "deploy", config)

    def on_eviction(self, t: float, config: Configuration) -> None:
        """Count the eviction."""
        self._bump("evictions")
        self._mark(t, "eviction", config)

    def on_checkpoint(
        self, t: float, config: Configuration, seconds: float, persisted: bool
    ) -> None:
        """Count the write (persisted or failed) and its duration."""
        self._bump("checkpoints" if persisted else "checkpoint_failures")
        self.timers.checkpoint += seconds
        self._mark(t, "checkpoint" if persisted else "checkpoint-failed", config)

    def on_forced_handover(self, t: float, config: Configuration) -> None:
        """Count the forced decision point."""
        self._bump("forced_handovers")
        self._mark(t, "forced-lrc", config)

    def on_rescale(self, t: float, config: Configuration, decision) -> None:
        """Count the planned reconfiguration."""
        self._bump("rescales")
        self._mark(t, "rescale", config)

    def on_finish(self, t: float, result) -> None:
        """Record completion."""
        self.finished_at = t
        self._mark(t, "finish", None)

    def report(self) -> dict:
        """Counters + timers + wall span as one flat dict.

        The key set is stable across runs: every canonical counter
        (:data:`REPORT_COUNTERS`), both phase timers, and
        ``decision_seconds``/``makespan_seconds`` are always present,
        defaulting to 0 — so recurring-run reports line up column for
        column instead of growing keys as events happen to occur.
        """
        out: dict = {key: 0 for key in self.REPORT_COUNTERS}
        out.update(self.counters)
        out.update(self.timers.as_dict())
        out["decision_seconds"] = self.decision_seconds
        if self.started_at is not None and self.finished_at is not None:
            out["makespan_seconds"] = self.finished_at - self.started_at
        else:
            out["makespan_seconds"] = 0.0
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
