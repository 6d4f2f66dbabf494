"""The performance model (§5.1): timing estimates per configuration.

Hourglass's provisioning strategy is fed by a model that estimates, for
every deployment configuration ``c``:

* ``t_exec(c)`` — time to run the whole job on ``c``;
* ``t_boot`` — machine request-to-ready time;
* ``t_load(c)`` — time to load the graph (depends on the reload mode:
  Hourglass's micro-partition fast reload vs a full shuffle load);
* ``t_save(c)`` — time to checkpoint the job state to external storage.

The paper's normalized capacity ``omega(c) = t_exec(lrc) / t_exec(c)``
is not a method: the DP divides by ``t_exec(c)`` directly.

How such a model is built is orthogonal to the paper (they calibrate
from real deployments; we calibrate from the published numbers).  The
scaling law across configurations models a synchronous (BSP) engine:
with the default equal-vCPU catalogue, throughput degrades with the
worker count as ``w**-SYNC_PENALTY`` because every superstep barrier and
the larger cut multiply coordination — which reproduces the paper's
4 h (4 big machines) to 10 h (16 small machines) spread with
``SYNC_PENALTY = 0.66``.

Both this analytic model and the engine-calibrated
:class:`~repro.runtime.mechmodel.MechanisticPerformanceModel` inherit
their fixed phases from :class:`FixedPhaseModel`: they differ only in
``exec_time``, where the dataset and state byte counts come from, and
the per-checkpoint overhead.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass

from repro.cloud.configuration import Configuration
from repro.core.job import ApplicationProfile
from repro.engine import loader
from repro.engine.datastore import STORE_BANDWIDTH

#: Reload modes: Hourglass's fast reload vs the conventional full reload.
RELOAD_MICRO = "micro"
RELOAD_FULL = "full"

#: Request-to-ready seconds of a deployment.  Models a warm machine
#: pool: the paper's SSSP results (spot savings at 10 % slack on a
#: 3-minute job) imply redeploy overheads of this magnitude, far below
#: cold EC2+EMR boots.
BOOT_TIME = 20.0
#: Exponent of the coordination cost in the worker count (see the
#: module docstring).
SYNC_PENALTY = 0.66
#: Offline partitioner (METIS-like) CPU seconds per dataset edge.
PARTITION_SECONDS_PER_EDGE = 2.5e-6


class FixedPhaseModel(abc.ABC):
    """The fixed phases of §5.1, shared by both performance models.

    A model supplies ``exec_time``, ``dataset_size`` (the edge and vertex
    counts a load reads), ``state_bytes`` (one checkpoint) and its
    per-checkpoint ``save_overhead``; everything else is this one
    formula.  Loads use the loader's timing functions and saves the
    external store's :data:`~repro.engine.datastore.STORE_BANDWIDTH` on
    every machine of the deployment.
    """

    reload_mode = RELOAD_MICRO
    save_overhead: float

    @abc.abstractmethod
    def exec_time(self, config: Configuration) -> float:
        """t_exec: full-job computation time on *config*."""

    @abc.abstractmethod
    def dataset_size(self) -> tuple[int, int]:
        """Edge and vertex counts a (re)load reads."""

    @abc.abstractmethod
    def state_bytes(self) -> float:
        """Bytes of one checkpoint of the job state."""

    def load_time(self, config: Configuration) -> float:
        """t_load under the model's reload mode."""
        strategy = "micro" if self.reload_mode == RELOAD_MICRO else "hash"
        edges, vertices = self.dataset_size()
        return loader.estimate(strategy, edges, vertices, config.num_workers)

    def save_time(self, config: Configuration) -> float:
        """t_save: one checkpoint of the job state from *config*."""
        return self.save_overhead + self.state_bytes() / (
            config.num_workers * STORE_BANDWIDTH
        )

    def setup_time(self, config: Configuration) -> float:
        """Pre-computation setup: t_boot + t_load (no trailing save)."""
        return BOOT_TIME + self.load_time(config)

    def fixed_time(self, config: Configuration) -> float:
        """t_fixed = t_boot + t_load + t_save (§5.1, Table 1).

        This is the slack *reservation* for committing to a config: the
        setup happens before the useful interval, the save after it, so
        a worst-case eviction at the end of a ``useful <= slack -
        t_fixed`` interval still leaves non-negative slack.
        """
        return self.setup_time(config) + self.save_time(config)


@dataclass(frozen=True)
class PerformanceModel(FixedPhaseModel):
    """Timing estimates for one application across a catalogue.

    Attributes:
        profile: the application/dataset profile.
        reference: the configuration whose measured time is
            ``profile.lrc_exec_time`` (normally the fastest shape).
        reload_mode: ``"micro"`` (fast reload) or ``"full"``.
    """

    profile: ApplicationProfile
    reference: Configuration
    reload_mode: str = RELOAD_MICRO

    #: Fixed per-checkpoint coordination cost (seconds).
    save_overhead = 10.0

    def __post_init__(self):
        if self.reload_mode not in (RELOAD_MICRO, RELOAD_FULL):
            raise ValueError(
                f"reload_mode must be '{RELOAD_MICRO}' or '{RELOAD_FULL}', "
                f"got {self.reload_mode!r}"
            )

    # ------------------------------------------------------------------
    # Throughput scaling
    # ------------------------------------------------------------------
    def throughput(self, config: Configuration) -> float:
        """Relative work rate of a configuration (arbitrary units)."""
        return config.total_vcpus * config.num_workers ** (-SYNC_PENALTY)

    def exec_time(self, config: Configuration) -> float:
        """t_exec: full-job computation time on *config*."""
        ratio = self.throughput(self.reference) / self.throughput(config)
        return self.profile.lrc_exec_time * ratio

    def dataset_size(self) -> tuple[int, int]:
        """The profile's paper-scale edge and vertex counts."""
        return self.profile.dataset_edges, self.profile.dataset_vertices

    def state_bytes(self) -> float:
        """The profile's checkpoint footprint."""
        return self.profile.state_bytes

    # ------------------------------------------------------------------
    # Offline partitioning (used by the Fig 7 ablation)
    # ------------------------------------------------------------------
    def partition_compute_time(self) -> float:
        """One offline partitioner run over the dataset (METIS-like)."""
        return self.profile.dataset_edges * PARTITION_SECONDS_PER_EDGE


def last_resort(catalog, model_factory) -> Configuration:
    """Pick the fastest on-demand configuration of a catalogue.

    ``model_factory(reference)`` must return a PerformanceModel anchored
    at *reference*; since relative throughput is reference-independent,
    any anchor identifies the same argmin.
    """
    on_demand = [c for c in catalog if not c.is_transient]
    if not on_demand:
        raise ValueError("catalogue has no on-demand configuration")
    probe = model_factory(on_demand[0])
    return min(on_demand, key=lambda c: probe.exec_time(c))
