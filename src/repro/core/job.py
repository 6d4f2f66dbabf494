"""Job specifications: what gets provisioned and when it must finish.

An :class:`ApplicationProfile` captures the measured characteristics of
one graph application on one dataset — the constants the paper extracts
from real deployments and feeds to its simulator (§8.1).  The three
profiles of the evaluation (SSSP 3 min, PageRank 20 min, GraphColoring
4 h on the last-resort configuration, all on the Twitter dataset) are
provided ready-made.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.utils.units import HOURS, MINUTES
from repro.utils.validation import check_fraction, check_positive, check_time_window


@dataclass(frozen=True)
class ApplicationProfile:
    """Measured characteristics of a graph job on a dataset.

    Attributes:
        name: application label (``sssp`` / ``pagerank`` / ``coloring``).
        lrc_exec_time: pure computation time on the *reference* (fastest)
            configuration, in seconds.
        dataset_vertices: vertex count of the dataset (paper scale).
        dataset_edges: edge count of the dataset (paper scale).
        state_bytes_per_vertex: checkpoint footprint per vertex.
    """

    name: str
    lrc_exec_time: float
    dataset_vertices: int
    dataset_edges: int
    state_bytes_per_vertex: float = 16.0

    def __post_init__(self):
        check_positive("lrc_exec_time", self.lrc_exec_time)
        if self.dataset_vertices < 1 or self.dataset_edges < 0:
            raise ValueError("dataset must have >= 1 vertex and >= 0 edges")

    @property
    def state_bytes(self) -> float:
        """Checkpoint size for the whole job state."""
        return self.state_bytes_per_vertex * self.dataset_vertices

    def scaled(self, factor: float) -> "ApplicationProfile":
        """A profile with execution time scaled by *factor*."""
        check_positive("factor", factor)
        return replace(self, lrc_exec_time=self.lrc_exec_time * factor)


# Twitter dataset scale used throughout the paper's evaluation.
_TWITTER_V = 52_579_678
_TWITTER_E = 1_614_106_187

SSSP_PROFILE = ApplicationProfile(
    name="sssp",
    lrc_exec_time=3 * MINUTES,
    dataset_vertices=_TWITTER_V,
    dataset_edges=_TWITTER_E,
)
PAGERANK_PROFILE = ApplicationProfile(
    name="pagerank",
    lrc_exec_time=20 * MINUTES,
    dataset_vertices=_TWITTER_V,
    dataset_edges=_TWITTER_E,
)
COLORING_PROFILE = ApplicationProfile(
    name="coloring",
    lrc_exec_time=4 * HOURS,
    dataset_vertices=_TWITTER_V,
    dataset_edges=_TWITTER_E,
)

PAPER_PROFILES = {
    p.name: p for p in (SSSP_PROFILE, PAGERANK_PROFILE, COLORING_PROFILE)
}


@dataclass(frozen=True)
class JobSpec:
    """One time-constrained execution request.

    Attributes:
        profile: the application/dataset profile.
        release_time: earliest start (seconds, trace timeline).
        deadline: absolute completion deadline (seconds).
        work: fraction of the job outstanding at release (1.0 = full job).
    """

    profile: ApplicationProfile
    release_time: float
    deadline: float
    work: float = 1.0

    def __post_init__(self):
        check_fraction("work", self.work)
        check_time_window(self.release_time, self.deadline)

    @property
    def horizon(self) -> float:
        """Total wall-clock budget."""
        return self.deadline - self.release_time


def job_with_slack(
    profile: ApplicationProfile,
    release_time: float,
    slack_fraction: float,
    lrc_fixed_time: float,
) -> JobSpec:
    """Build a job whose initial slack is ``slack_fraction * t_lrc_exec``.

    Matches the paper's Fig 5 parameterisation: the deadline is the
    last-resort completion time (fixed costs + execution) plus the given
    slack percentage of the execution time.
    """
    check_fraction("slack_fraction", min(slack_fraction, 1.0))
    deadline = (
        release_time
        + lrc_fixed_time
        + profile.lrc_exec_time * (1.0 + slack_fraction)
    )
    return JobSpec(profile=profile, release_time=release_time, deadline=deadline)
