"""End-to-end Hourglass runtime: real graph jobs over the spot market.

This is the paper's Fig 2 loop with every component real:

* the **job** is an actual vertex program executed superstep by
  superstep on the Pregel engine;
* the **graph** is micro-partitioned offline; every (re)deployment
  clusters the shards for the selected configuration's worker count and
  builds a fresh engine over that partitioning;
* **checkpoints** capture the real engine state into the simulated
  external datastore on the Daly interval;
* **evictions** replay from the market trace; recovery restores the
  last checkpoint onto the new deployment (the engine re-scatters state
  to the new owners — parallel recovery);
* **time** is simulated: superstep durations come from the calibrated
  :class:`~repro.runtime.mechmodel.MechanisticPerformanceModel`, and the
  bill integrates market prices over every machine-second.

The decision loop itself is the shared execution-lifecycle core
(:mod:`repro.exec.lifecycle`); this module binds it to an
:class:`~repro.runtime.workmodel.EngineWorkModel`, so the runtime and
the analytic simulator run the *same* deploy/checkpoint/evict/bill
logic.  The result carries both the *systems* outcome (cost, deadline,
evictions, spot/on-demand machine-seconds) and the *computation*
outcome (the vertex values), letting tests assert that a job battered
by evictions still produces exactly the undisturbed answer.
"""

from __future__ import annotations

import functools

from repro.cloud.configuration import Configuration
from repro.cloud.market import SpotMarket
from repro.core.perfmodel import last_resort
from repro.core.provisioner import Provisioner
from repro.engine.checkpoint import CheckpointManager
from repro.engine.datastore import DataStore
from repro.engine.engine import PregelEngine
from repro.engine.loader import MicroLoader
from repro.exec.events import RunResult
from repro.exec.lifecycle import ExecutionLifecycle
from repro.graph.graph import Graph
from repro.partitioning.micro import MicroPartitioner, MicroPartitioning
from repro.runtime.mechmodel import MechanisticPerformanceModel
from repro.runtime.workmodel import EngineWorkModel
from repro.utils.validation import check_time_window

__all__ = ["HourglassRuntime"]


class HourglassRuntime:
    """Runs one vertex program to completion over the spot market.

    Args:
        graph: the input graph.
        program_factory: zero-argument callable producing a fresh
            vertex-program instance (one per engine construction).
        market: the replayed spot market.
        catalog: candidate configurations.
        provisioner: the provisioning strategy (Hourglass or a baseline).
        num_micro_parts: shard count for the offline micro-partitioning.
        seed: randomness for partitioning/clustering.
        time_scale / data_scale: emulate a larger dataset of the same
            topology: multiply simulated superstep durations and data
            volumes (a repro-scale graph runs in simulated seconds,
            where no eviction could ever land; scaling makes the market
            matter while the computation stays exact).
        observers: :class:`~repro.exec.observers.LifecycleObserver`
            plug-ins (fault injection).
        delta_checkpoints: write delta checkpoints between periodic full
            snapshots (changed vertices only), cutting steady-state
            checkpoint bytes for shrinking-frontier programs.
    """

    def __init__(
        self,
        graph: Graph,
        program_factory,
        market: SpotMarket,
        catalog,
        provisioner: Provisioner,
        num_micro_parts: int = 64,
        seed=None,
        time_scale: float = 1.0,
        data_scale: float = 1.0,
        observers=(),
        delta_checkpoints: bool = False,
    ):
        self.graph = graph
        self.program_factory = program_factory
        self.market = market
        self.catalog = tuple(catalog)
        self.provisioner = provisioner
        self.datastore = DataStore()
        self.seed = seed
        self.observers = tuple(observers)
        self.delta_checkpoints = delta_checkpoints

        # Offline phase: micro-partition once (Fig 2 step 1).
        self.artefact: MicroPartitioning = MicroPartitioner(
            num_micro_parts=num_micro_parts
        ).build(graph, seed=seed)
        self.loader = MicroLoader(self.artefact)

        # Calibration: an undisturbed pilot run on the first on-demand
        # shape picks the last resort; the model is anchored there, and
        # the cache reuses the pilot when it already is.
        @functools.cache
        def calibrated(reference: Configuration) -> MechanisticPerformanceModel:
            return MechanisticPerformanceModel(
                graph=graph,
                calibration=self._calibrate(reference),
                reference=reference,
                time_scale=time_scale,
                data_scale=data_scale,
            )

        self.lrc = last_resort(self.catalog, calibrated)
        self.perf = calibrated(self.lrc)

    def _calibrate(self, config: Configuration) -> object:
        load = self.loader.load(self.graph, config.num_workers, seed=self.seed)
        engine = PregelEngine(self.graph, self.program_factory(), load.partitioning)
        return engine.run()

    # ------------------------------------------------------------------
    def execute(self, release_time: float, deadline: float) -> RunResult:
        """Run the job between *release_time* and *deadline*."""
        check_time_window(release_time, deadline)
        job_id = f"runtime-{release_time:.0f}"
        model = EngineWorkModel(
            graph=self.graph,
            program_factory=self.program_factory,
            loader=self.loader,
            perf=self.perf,
            checkpoints=CheckpointManager(
                self.datastore, job_id, delta=self.delta_checkpoints
            ),
            seed=self.seed,
        )
        lifecycle = ExecutionLifecycle(
            market=self.market,
            catalog=self.catalog,
            provisioner=self.provisioner,
            work_model=model,
            lrc=self.lrc,
            observers=self.observers,
            rescale_policy=getattr(self.provisioner, "rescale_policy", None),
        )
        return lifecycle.run(release_time, deadline)
