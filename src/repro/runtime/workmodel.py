"""Engine-backed work model: real Pregel supersteps over the lifecycle.

Plugs the actual graph engine into the shared execution-lifecycle core:

* every surviving deployment clusters the micro-partitioned shards for
  its worker count, builds a fresh :class:`PregelEngine`, and restores
  the latest checkpoint (parallel recovery — state re-scatters to the
  new owners);
* a segment runs real supersteps, accumulating *simulated* time from
  the calibrated :class:`~repro.runtime.mechmodel.MechanisticPerformanceModel`;
* a committed checkpoint captures the engine state into the external
  datastore; an eviction discards the deployment and rolls the
  superstep counter back to the last checkpoint that actually landed.
"""

from __future__ import annotations

from repro.cloud.configuration import Configuration
from repro.engine.checkpoint import CheckpointManager
from repro.engine.engine import PregelEngine
from repro.exec.workmodel import SegmentPlan, WorkModel


class EngineWorkModel(WorkModel):
    """Real vertex-program execution as lifecycle work.

    Args:
        graph: the input graph.
        program_factory: zero-argument callable producing a fresh
            vertex-program instance (one per engine construction).
        loader: micro-partitioning loader for (re)deployments.
        perf: the calibrated mechanistic performance model.
        checkpoints: checkpoint manager bound to this job's namespace.
        seed: randomness for shard clustering.
    """

    def __init__(
        self,
        graph,
        program_factory,
        loader,
        perf,
        checkpoints: CheckpointManager,
        seed=None,
    ):
        self.graph = graph
        self.program_factory = program_factory
        self.loader = loader
        self.perf = perf
        self.checkpoints = checkpoints
        self.seed = seed
        self._engine: PregelEngine | None = None
        self._supersteps = 0

    def start(self) -> None:
        """Reset per-run progress state."""
        self._engine = None
        self._supersteps = 0

    def finished(self) -> bool:
        """Whether the deployed engine has no work left."""
        return self._engine is not None and not self._engine.has_work()

    def work_left(self) -> float:
        """Outstanding work per the calibrated work curve."""
        return max(0.0, 1.0 - self.perf.work_fraction_done(self._supersteps))

    def on_deployed(self, config: Configuration, t: float) -> None:
        """Cluster shards, build a fresh engine, restore the checkpoint."""
        load = self.loader.load(self.graph, config.num_workers, seed=self.seed)
        self._engine = PregelEngine(
            self.graph, self.program_factory(), load.partitioning
        )
        if self.checkpoints.latest() is not None:
            self.checkpoints.load_into(self._engine)
        self._supersteps = self._engine.superstep

    def on_deploy_evicted(self) -> None:
        """The deployment died during setup; no engine was built."""
        self._engine = None

    def run_segment(self, config: Configuration, budget: float) -> SegmentPlan:
        """Run supersteps until the budget (or the job) runs out."""
        elapsed = 0.0
        ran_any = False
        while self._engine.has_work():
            step_time = self._step_seconds(config)
            if ran_any and elapsed + step_time > budget:
                break
            self._engine.step()
            self._supersteps = self._engine.superstep
            elapsed += step_time
            ran_any = True
            if elapsed >= budget:
                break
        return SegmentPlan(elapsed=elapsed, finishing=not self._engine.has_work())

    def commit(self, config: Configuration, plan: SegmentPlan, persisted: bool) -> None:
        """Capture the engine state when the checkpoint write landed."""
        if persisted and not plan.finishing:
            self.checkpoints.save(self._engine, num_writers=config.num_workers)

    def on_evicted(self, config: Configuration, t_start: float, t_evict: float) -> None:
        """Discard the deployment; roll back to the last real checkpoint."""
        self._engine = None
        latest = self.checkpoints.latest()
        self._supersteps = latest.superstep if latest is not None else 0

    @property
    def superstep(self) -> int:
        """Supersteps completed on the current state."""
        return self._supersteps

    def final_values(self) -> dict | None:
        """The computed vertex values (None before completion)."""
        return self._engine.values() if self._engine is not None else None

    def _step_seconds(self, config: Configuration) -> float:
        """Predicted cost of the *next* superstep on *config*.

        Uses the calibration's statistics for the same superstep index
        (falling back to the last calibrated superstep for
        data-dependent overruns).
        """
        stats = self.perf.calibration.stats
        index = min(self._engine.superstep, len(stats) - 1)
        return self.perf.superstep_seconds(stats[index], config)
