"""Multi-phase application support (paper §9, "Model Evolution").

The paper's provisioning model assumes work progresses at uniform pace
(§5.1); §9 points at applications "that execute in multiple phases,
where each phase impacts the computational progress differently".  A
:class:`PhaseModel` describes such a job: an ordered list of phases,
each covering a fraction of the *work* and running at a relative
*speed*.  The execution simulator can run a job under a phase model
while the provisioner keeps its uniform-pace view — which makes the
paper's footnote 2 ("provided that our assumptions regarding the
performance model hold") concrete and testable:

* with **naive accounting** the provisioner is told the raw work
  fraction; a slow tail phase then breaks the slack estimate and even
  Hourglass can miss deadlines;
* with **time accounting** (the default, and what the paper's progress
  metric actually measures) the reported "work" is the remaining-time
  fraction, the uniform model holds by construction, and the guarantee
  survives arbitrary phase skew.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.utils.validation import check_positive

#: Work-accounting modes for phase-aware simulations.
ACCOUNT_TIME = "time"
ACCOUNT_RAW = "raw"


@dataclass(frozen=True)
class Phase:
    """One phase: a fraction of the job's work at a relative speed.

    ``speed`` is relative work-per-second: 2.0 means this phase's work
    completes twice as fast as the job's average pace.
    """

    work: float
    speed: float

    def __post_init__(self):
        check_positive("work", self.work)
        check_positive("speed", self.speed)


class PhaseModel:
    """Piecewise-constant progress-rate profile over a job's work.

    The model is normalised so that the whole job takes exactly the
    profile's ``t_exec``: work fractions are scaled to sum to 1 and the
    time axis is scaled so ``time_remaining(1.0) == 1.0``.
    """

    def __init__(self, phases):
        phases = tuple(phases)
        if not phases:
            raise ValueError("need at least one phase")
        total_work = sum(p.work for p in phases)
        norm = [Phase(work=p.work / total_work, speed=p.speed) for p in phases]
        raw_total_time = sum(p.work / p.speed for p in norm)
        # Scale speeds so the total normalised time is exactly 1.
        self.phases = tuple(
            Phase(work=p.work, speed=p.speed * raw_total_time) for p in norm
        )

    @classmethod
    def uniform(cls) -> "PhaseModel":
        """The paper's base model: one phase at constant pace."""
        return cls([Phase(work=1.0, speed=1.0)])

    # ------------------------------------------------------------------
    def time_remaining(self, work_left: float) -> float:
        """Fraction of t_exec needed to finish *work_left* of the job."""
        if not 0.0 <= work_left <= 1.0 + 1e-12:
            raise ValueError(f"work_left must be in [0, 1], got {work_left}")
        work_left = min(work_left, 1.0)
        remaining = 0.0
        covered = 0.0  # work consumed scanning from the END of the job
        for phase in reversed(self.phases):
            take = min(phase.work, work_left - covered)
            if take <= 0:
                break
            remaining += take / phase.speed
            covered += take
        return remaining

    def advance(self, work_left: float, time_fraction: float) -> float:
        """Work remaining after computing for ``time_fraction * t_exec``.

        Progress flows through the phases in order (the job's earlier
        phases are the ones still outstanding when ``work_left`` is
        large).
        """
        if time_fraction < 0:
            raise ValueError("time_fraction must be >= 0")
        work_done = 1.0 - min(max(work_left, 0.0), 1.0)
        budget = time_fraction
        position = 0.0
        for phase in self.phases:
            end = position + phase.work
            if work_done < end - 1e-15 and budget > 0:
                outstanding = end - work_done
                possible = budget * phase.speed
                step = min(outstanding, possible)
                work_done += step
                budget -= step / phase.speed
            position = end
        return max(0.0, 1.0 - work_done)
