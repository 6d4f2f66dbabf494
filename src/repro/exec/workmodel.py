"""Work models: what "making progress" means to the lifecycle loop.

The lifecycle core (:mod:`repro.exec.lifecycle`) owns the Fig 2 decision
loop — deploy, checkpoint, evict, recover, bill — but delegates the
notion of *work* to a :class:`WorkModel`:

* :class:`AnalyticWorkModel` — the trace-driven simulator's view: a
  work fraction advanced analytically along a
  :class:`~repro.core.phases.PhaseModel` progress curve, with optional
  eviction-warning salvage (§9).
* ``EngineWorkModel`` (in :mod:`repro.runtime.workmodel`) — the real
  thing: actual Pregel supersteps with checkpoint/restore through the
  external datastore.

A model tracks both its in-memory progress and its *persisted* progress
(the rollback point).  Without fault injection every committed
checkpoint persists, so the two never diverge and the analytic model
reproduces the historical simulator bit-for-bit; a failed checkpoint
write (see :mod:`repro.exec.faults`) advances memory but not the
rollback point, exactly like a real engine whose datastore write was
lost.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass

from repro.cloud.configuration import Configuration
from repro.core.phases import ACCOUNT_RAW, ACCOUNT_TIME, PhaseModel
from repro.core.warning import NO_WARNING, WarningPolicy

#: Work fractions below this are "done" (numerical slop guard).
WORK_EPS = 1e-9


@dataclass(frozen=True)
class SegmentPlan:
    """Outcome of one execution segment proposed/run by a work model.

    Attributes:
        elapsed: compute seconds the segment occupies (before the save).
        finishing: whether the segment completes the job.
        handover: the model could not use the deployment at all (zero
            budget on a transient config) — the loop should force a
            fresh decision instead of billing an empty segment.
    """

    elapsed: float
    finishing: bool
    handover: bool = False


class WorkModel(abc.ABC):
    """Progress semantics plugged into the lifecycle loop.

    Implementations expose ``perf`` (a
    :class:`~repro.core.perfmodel.PerformanceModel`-protocol object) and
    the progress hooks the loop calls in a fixed order: ``start`` once,
    then per decision point ``reported_work_left``/``finished``, per
    deployment ``on_deployed``/``on_deploy_evicted``, per segment
    ``run_segment`` followed by either ``commit`` (persisted or not) or
    ``on_evicted`` (rollback to the last persisted state).
    """

    #: PerformanceModel-protocol object (setup/save/exec times).
    perf = None

    @abc.abstractmethod
    def start(self) -> None:
        """Reset per-run progress state."""

    @abc.abstractmethod
    def finished(self) -> bool:
        """Whether the job is complete."""

    @abc.abstractmethod
    def work_left(self) -> float:
        """Raw outstanding work fraction (event timelines)."""

    def reported_work_left(self) -> float:
        """Work fraction as reported to the provisioner."""
        return self.work_left()

    def on_deployed(self, config: Configuration, t: float) -> None:
        """A deployment survived setup; restore state onto it."""

    def on_deploy_evicted(self) -> None:
        """The deployment was evicted during setup (no state built)."""

    @abc.abstractmethod
    def run_segment(self, config: Configuration, budget: float) -> SegmentPlan:
        """Execute/plan one segment of at most *budget* compute seconds."""

    @abc.abstractmethod
    def commit(self, config: Configuration, plan: SegmentPlan, persisted: bool) -> None:
        """The segment's save completed (*persisted* = write landed)."""

    @abc.abstractmethod
    def on_evicted(self, config: Configuration, t_start: float, t_evict: float) -> None:
        """The segment (started at *t_start*) was killed at *t_evict*."""

    @property
    def superstep(self) -> int:
        """Engine superstep counter (0 for analytic models)."""
        return 0

    def final_values(self) -> dict | None:
        """Computed vertex values (engine-backed models only)."""
        return None


class AnalyticWorkModel(WorkModel):
    """The simulator's analytic work fraction over a phase profile.

    Args:
        perf: performance model for the job's application.
        phases: progress-rate profile (None = the paper's uniform pace).
        work_accounting: what "work left" means to the provisioner —
            ``"time"`` (remaining-time fraction) or ``"raw"``.
        warning: provider eviction-warning contract (§9): with a lead
            covering ``t_save``, evictions keep the progress made up to
            the warning instant.
        initial_work: outstanding fraction at release (JobSpec.work).
    """

    def __init__(
        self,
        perf,
        phases: PhaseModel | None = None,
        work_accounting: str = ACCOUNT_TIME,
        warning: WarningPolicy = NO_WARNING,
        initial_work: float = 1.0,
    ):
        if work_accounting not in (ACCOUNT_TIME, ACCOUNT_RAW):
            raise ValueError(
                f"work_accounting must be '{ACCOUNT_TIME}' or '{ACCOUNT_RAW}'"
            )
        self.perf = perf
        self.phases = phases or PhaseModel.uniform()
        self.work_accounting = work_accounting
        self.warning = warning
        self.initial_work = initial_work
        self._work = initial_work
        self._persisted = initial_work
        self._segment = 0.0
        self._exec_time = 1.0

    def start(self) -> None:
        """Reset per-run progress state."""
        self._work = self.initial_work
        self._persisted = self.initial_work

    def finished(self) -> bool:
        """Whether the job is complete."""
        return self._work <= WORK_EPS

    def work_left(self) -> float:
        """Raw outstanding work fraction."""
        return self._work

    def reported_work_left(self) -> float:
        """Remaining-time fraction under time accounting, else raw."""
        if self.work_accounting == ACCOUNT_TIME:
            return self.phases.time_remaining(self._work)
        return self._work

    def run_segment(self, config: Configuration, budget: float) -> SegmentPlan:
        """Plan an analytic segment: min(remaining run, budget)."""
        self._exec_time = self.perf.exec_time(config)
        remaining_run = self.phases.time_remaining(self._work) * self._exec_time
        segment = min(remaining_run, budget)
        self._segment = segment
        return SegmentPlan(
            elapsed=segment,
            finishing=segment >= remaining_run - 1e-9,
            handover=segment <= 0.0,
        )

    def commit(self, config: Configuration, plan: SegmentPlan, persisted: bool) -> None:
        """Advance the work fraction; move the rollback point if saved."""
        if plan.finishing:
            self._work = 0.0
            self._persisted = 0.0
            return
        self._work = self.phases.advance(self._work, self._segment / self._exec_time)
        if persisted:
            self._persisted = self._work

    def on_evicted(self, config: Configuration, t_start: float, t_evict: float) -> None:
        """Roll back to the last persisted state, minus warning salvage."""
        if self.warning.can_save(self.perf.save_time(config)):
            computed = t_evict - self.warning.lead_seconds - t_start
            if computed > 0:
                self._work = self.phases.advance(
                    self._work, computed / self._exec_time
                )
                self._persisted = self._work
                return
        self._work = self._persisted
