"""Mechanistic performance model: calibrated from a real engine run.

The provisioning layer needs per-configuration estimates of ``t_exec``,
``t_load``, ``t_save`` and ``t_boot`` (the PerformanceModel protocol).
For the abstract simulator those come from published constants; the
end-to-end runtime instead *calibrates* them the way the paper did —
from a real execution:

1. one calibration run of the vertex program on the reference
   deployment records the per-superstep statistics;
2. :class:`~repro.engine.metrics.ClusterTimingModel` prices those
   statistics for any worker count (with equal-total-capacity scaling,
   matching the paper's paired catalogue);
3. load/save times come from the actual graph/state byte counts,
   through the fixed-phase formula it shares with the analytic model
   (:class:`repro.core.perfmodel.FixedPhaseModel`).

The result is a drop-in for :class:`repro.core.perfmodel.PerformanceModel`
wherever the slack model and estimators consume one.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.cloud.configuration import Configuration
from repro.core.perfmodel import FixedPhaseModel
from repro.engine.engine import ExecutionResult
from repro.engine.metrics import ClusterTimingModel
from repro.graph.graph import Graph
from repro.utils.validation import check_positive

#: Cluster timing constants of the reference shape's workers; other
#: worker counts get equal-total-capacity scaled rates (per-worker
#: speed ∝ reference_workers / w).
REFERENCE_TIMING = ClusterTimingModel()
#: Checkpoint footprint per vertex (bytes).
STATE_BYTES_PER_VERTEX = 16.0


@dataclass(frozen=True)
class MechanisticPerformanceModel(FixedPhaseModel):
    """PerformanceModel-compatible estimates from engine calibration.

    Attributes:
        graph: the actual input graph (drives load/save byte counts).
        calibration: the reference run's execution result.
        reference: the deployment shape the calibration is anchored to.
        time_scale: multiplier on every superstep's simulated duration.
            A repro-scale graph runs in simulated seconds; scaling it up
            emulates a paper-scale job (hours) on the same topology so
            the market's evictions actually bite.
        data_scale: multiplier on byte volumes (load + checkpoint),
            the companion of ``time_scale`` for data movement.
    """

    graph: Graph
    calibration: ExecutionResult
    reference: Configuration
    time_scale: float = 1.0
    data_scale: float = 1.0

    #: Fixed per-checkpoint cost (seconds).
    save_overhead = 2.0

    def __post_init__(self):
        check_positive("time_scale", self.time_scale)
        check_positive("data_scale", self.data_scale)
        if not self.calibration.stats:
            raise ValueError("calibration run has no superstep statistics")

    # ------------------------------------------------------------------
    # PerformanceModel protocol
    # ------------------------------------------------------------------
    def _scaled_timing(self, num_workers: int) -> ClusterTimingModel:
        scale = self.reference.num_workers / num_workers
        return ClusterTimingModel(
            vertex_ops_per_second=REFERENCE_TIMING.vertex_ops_per_second * scale,
            message_ops_per_second=REFERENCE_TIMING.message_ops_per_second * scale,
            network_bandwidth=REFERENCE_TIMING.network_bandwidth * scale,
            barrier_latency=REFERENCE_TIMING.barrier_latency,
        )

    def superstep_seconds(self, stats, config: Configuration) -> float:
        """Price one superstep's statistics on *config*."""
        return self.time_scale * self._scaled_timing(
            config.num_workers
        ).superstep_seconds(stats, config.num_workers)

    def exec_time(self, config: Configuration) -> float:
        """Whole-job time on *config*, from the calibration run."""
        timing = self._scaled_timing(config.num_workers)
        return self.time_scale * sum(
            timing.superstep_seconds(s, config.num_workers)
            for s in self.calibration.stats
        )

    def dataset_size(self) -> tuple[int, int]:
        """The graph's edge and vertex counts at ``data_scale``."""
        return (
            int(self.graph.num_edges * self.data_scale),
            int(self.graph.num_vertices * self.data_scale),
        )

    def state_bytes(self) -> float:
        """One checkpoint of the vertex state at ``data_scale``."""
        return STATE_BYTES_PER_VERTEX * self.graph.num_vertices * self.data_scale

    # ------------------------------------------------------------------
    # Calibration bookkeeping
    # ------------------------------------------------------------------
    @property
    def total_supersteps(self) -> int:
        """Superstep count of the calibration run."""
        return len(self.calibration.stats)

    def work_fraction_done(self, supersteps_done: int) -> float:
        """Map completed supersteps to the provisioner's work fraction.

        Uses the calibrated per-superstep times on the reference shape,
        so "work" is proportional to reference compute time, matching
        the abstract model's uniform-progress convention.
        """
        stats = self.calibration.stats
        total = self.exec_time(self.reference)
        if total <= 0:
            return 1.0
        timing = self._scaled_timing(self.reference.num_workers)
        done_time = self.time_scale * sum(
            timing.superstep_seconds(s, self.reference.num_workers)
            for s in stats[: min(supersteps_done, len(stats))]
        )
        return min(1.0, done_time / total)
