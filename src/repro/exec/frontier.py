"""Frontier curves: the active-vertex collapse as a phase profile.

Non-stationary vertex programs (SSSP) do not keep every vertex busy:
the *frontier* — the fraction of vertices active in a superstep —
starts near 1 and collapses in the late supersteps, so most provisioned
workers idle through the tail (Dindokar & Simmhan).  A
:class:`FrontierCurve` describes that collapse as a function of raw work
progress, and :meth:`FrontierCurve.to_phases` compiles it into a
:class:`~repro.core.phases.PhaseModel`: a superstep whose frontier is
10% of the vertices takes ~10% of a full superstep's time, so the
per-unit-work *speed* of late work is the reciprocal of the frontier.
Under time accounting the reported work-left then tightens exactly as
the frontier shrinks, which is what lets the planner discover that a
smaller configuration finishes the tail in time.

Curves are pure value objects: deterministic and hashable-by-content.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.core.phases import Phase, PhaseModel

#: Frontier fractions are floored here when compiled to phase speeds —
#: a zero frontier would mean an infinitely fast (zero-cost) superstep.
MIN_FRONTIER = 1e-3


@dataclass(frozen=True)
class FrontierCurve:
    """Piecewise-linear frontier fraction over raw work progress.

    Attributes:
        points: ``(progress, frontier)`` knots with progress ascending
            over [0, 1]; frontier values in (0, 1].  Between knots the
            curve interpolates linearly; outside the knot range it
            clamps to the nearest knot.
    """

    points: tuple[tuple[float, float], ...]

    def __post_init__(self):
        if not self.points:
            raise ValueError("a frontier curve needs at least one point")
        last = -math.inf
        for progress, frontier in self.points:
            if not 0.0 <= progress <= 1.0:
                raise ValueError(f"progress {progress} outside [0, 1]")
            if progress <= last:
                raise ValueError("frontier-curve progress must be ascending")
            if not 0.0 < frontier <= 1.0:
                raise ValueError(f"frontier {frontier} outside (0, 1]")
            last = progress

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def flat(cls, level: float = 1.0) -> "FrontierCurve":
        """A stationary program: every superstep touches *level* of the graph."""
        return cls(points=((0.0, level),))

    @classmethod
    def exponential(cls, half_life: float = 0.25, floor: float = 0.01,
                    knots: int = 17) -> "FrontierCurve":
        """Frontier halving every *half_life* of the work (SSSP-shaped).

        Args:
            half_life: work fraction over which the frontier halves.
            floor: lower clamp (a residual trickle of active vertices).
            knots: piecewise-linear resolution.
        """
        if half_life <= 0:
            raise ValueError("half_life must be positive")
        if knots < 2:
            raise ValueError("need at least 2 knots")
        pts = []
        for i in range(knots):
            p = i / (knots - 1)
            f = max(floor, 0.5 ** (p / half_life))
            pts.append((p, min(1.0, f)))
        return cls(points=tuple(pts))

    # ------------------------------------------------------------------
    def value_at(self, progress: float) -> float:
        """Frontier fraction at raw work progress *progress* (clamped)."""
        p = min(1.0, max(0.0, progress))
        pts = self.points
        if p <= pts[0][0]:
            return pts[0][1]
        for (p0, f0), (p1, f1) in zip(pts, pts[1:]):
            if p <= p1:
                span = p1 - p0
                w = (p - p0) / span if span > 0 else 1.0
                return f0 + w * (f1 - f0)
        return pts[-1][1]

    def to_phases(self, num_phases: int = 24) -> PhaseModel:
        """Compile to a :class:`PhaseModel` progress-rate profile.

        Each of *num_phases* equal raw-work slices runs at speed
        ``1 / frontier`` (a collapsed frontier means the remaining work
        flies), floored at :data:`MIN_FRONTIER`; the PhaseModel
        normalises the result so a full job still takes ``t_exec``.
        """
        if num_phases < 1:
            raise ValueError("num_phases must be >= 1")
        phases = []
        for i in range(num_phases):
            mid = (i + 0.5) / num_phases
            frontier = max(MIN_FRONTIER, self.value_at(mid))
            phases.append(Phase(work=1.0 / num_phases, speed=1.0 / frontier))
        return PhaseModel(phases)


#: Curve shapes per paper application, for harnesses that only know the
#: application name: sssp collapses (a traversal frontier), pagerank
#: and coloring are stationary (every vertex active every superstep).
APP_FRONTIERS: dict[str, FrontierCurve] = {
    "sssp": FrontierCurve.exponential(half_life=0.18, floor=0.01),
    "pagerank": FrontierCurve.flat(),
    "coloring": FrontierCurve.flat(),
}


def frontier_for_app(app: str) -> FrontierCurve:
    """Curve for *app* (flat for unknown/stationary applications)."""
    return APP_FRONTIERS.get(app, FrontierCurve.flat())
