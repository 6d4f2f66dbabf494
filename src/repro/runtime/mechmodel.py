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
3. load/save times come from the actual graph/state byte counts.

The result is a drop-in for :class:`repro.core.perfmodel.PerformanceModel`
wherever the slack model and estimators consume one.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.cloud.configuration import Configuration
from repro.engine.engine import ExecutionResult
from repro.engine.loader import LoadTimingModel
from repro.engine.metrics import ClusterTimingModel
from repro.graph.graph import Graph
from repro.utils.units import MiB
from repro.utils.validation import check_non_negative, check_positive


@dataclass(frozen=True)
class MechanisticPerformanceModel:
    """PerformanceModel-compatible estimates from engine calibration.

    Attributes:
        graph: the actual input graph (drives load/save byte counts).
        calibration: the reference run's execution result.
        reference: the deployment shape the calibration is anchored to.
        timing: cluster timing constants for the reference shape's
            workers; other worker counts get equal-total-capacity scaled
            rates (per-worker speed ∝ reference_workers / w).
        reload_mode: "micro" or "full", as in the abstract model.
        boot_time: request-to-ready seconds.
        bytes_per_vertex_state: checkpoint footprint per vertex.
        store_bandwidth: per-machine checkpoint bandwidth (bytes/s).
        save_overhead: fixed per-checkpoint cost (seconds).
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
    timing: ClusterTimingModel = field(default_factory=ClusterTimingModel)
    reload_mode: str = "micro"
    boot_time: float = 20.0
    bytes_per_vertex_state: float = 16.0
    store_bandwidth: float = 100 * MiB
    save_overhead: float = 2.0
    load_timing: LoadTimingModel = field(default_factory=LoadTimingModel)
    time_scale: float = 1.0
    data_scale: float = 1.0

    def __post_init__(self):
        check_non_negative("boot_time", self.boot_time)
        check_positive("store_bandwidth", self.store_bandwidth)
        check_positive("time_scale", self.time_scale)
        check_positive("data_scale", self.data_scale)
        if self.reload_mode not in ("micro", "full"):
            raise ValueError(f"bad reload_mode {self.reload_mode!r}")
        if not self.calibration.stats:
            raise ValueError("calibration run has no superstep statistics")

    # ------------------------------------------------------------------
    # PerformanceModel protocol
    # ------------------------------------------------------------------
    def _scaled_timing(self, num_workers: int) -> ClusterTimingModel:
        scale = self.reference.num_workers / num_workers
        return ClusterTimingModel(
            vertex_ops_per_second=self.timing.vertex_ops_per_second * scale,
            message_ops_per_second=self.timing.message_ops_per_second * scale,
            network_bandwidth=self.timing.network_bandwidth * scale,
            barrier_latency=self.timing.barrier_latency,
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

    def capacity(self, config: Configuration) -> float:
        """omega_c = t_exec(reference) / t_exec(config)."""
        return self.exec_time(self.reference) / self.exec_time(config)

    def load_time(self, config: Configuration) -> float:
        """t_load under the model's reload mode."""
        strategy = "micro" if self.reload_mode == "micro" else "hash"
        return self.load_timing.estimate(
            strategy,
            int(self.graph.num_edges * self.data_scale),
            int(self.graph.num_vertices * self.data_scale),
            config.num_workers,
        )

    def save_time(self, config: Configuration) -> float:
        """t_save: one checkpoint of the job state."""
        state = self.bytes_per_vertex_state * self.graph.num_vertices * self.data_scale
        return self.save_overhead + state / (
            config.num_workers * self.store_bandwidth
        )

    def setup_time(self, config: Configuration) -> float:
        """t_boot + t_load (pre-computation setup)."""
        return self.boot_time + self.load_time(config)

    def fixed_time(self, config: Configuration) -> float:
        """t_fixed = setup + save (the slack reservation)."""
        return self.setup_time(config) + self.save_time(config)

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
