"""Mechanistic superstep timing: from engine statistics to wall time.

The provisioning performance model (:mod:`repro.core.perfmodel`)
postulates that cluster throughput degrades with the worker count as
``w**-sync_penalty``.  This module derives that behaviour *bottom-up*
from the engine's own per-superstep statistics: a superstep's simulated
wall time is

    max-worker compute  +  remote traffic / network  +  barrier cost

so more workers shrink per-worker compute but inflate the cut (remote
messages) and the barrier, producing the sub-linear scaling the paper
measures.  :class:`~repro.runtime.mechmodel.MechanisticPerformanceModel`
prices a calibration run's supersteps with it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.engine.engine import SuperstepStats
from repro.utils.units import MiB
from repro.utils.validation import check_positive


@dataclass(frozen=True)
class ClusterTimingModel:
    """Hardware constants for the superstep time estimate.

    Attributes:
        vertex_ops_per_second: per-worker vertex-program invocations/s.
        message_ops_per_second: per-worker message handling rate.
        network_bandwidth: per-worker network throughput (bytes/s).
        barrier_latency: per-superstep synchronisation cost (seconds),
            growing logarithmically with the worker count.
    """

    vertex_ops_per_second: float = 2e6
    message_ops_per_second: float = 5e6
    network_bandwidth: float = 120 * MiB
    barrier_latency: float = 0.05

    def __post_init__(self):
        check_positive("vertex_ops_per_second", self.vertex_ops_per_second)
        check_positive("message_ops_per_second", self.message_ops_per_second)
        check_positive("network_bandwidth", self.network_bandwidth)
        check_positive("barrier_latency", self.barrier_latency)

    def superstep_seconds(self, stats: SuperstepStats, num_workers: int) -> float:
        """Estimated wall time of one superstep on *num_workers* machines.

        Assumes even spread of active vertices and messages (the
        partitioners balance load); skew can be added by scaling the
        compute term with the max/avg partition load.
        """
        if num_workers < 1:
            raise ValueError("num_workers must be >= 1")
        compute = stats.active_vertices / (num_workers * self.vertex_ops_per_second)
        messaging = stats.messages_sent / (num_workers * self.message_ops_per_second)
        network = stats.remote_bytes / (num_workers * self.network_bandwidth)
        barrier = self.barrier_latency * (1.0 + math.log2(num_workers))
        return compute + messaging + network + barrier

