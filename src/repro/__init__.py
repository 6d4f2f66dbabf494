"""repro — a reproduction of Hourglass (EuroSys 2019).

Hourglass provisions transient (spot) cloud resources for
time-constrained graph processing jobs, combining a slack-aware
expected-cost provisioning strategy with a micro-partitioning fast
reload mechanism.  This package reimplements the system and every
substrate it depends on:

* :mod:`repro.graph` — CSR graph structures, generators, dataset registry;
* :mod:`repro.partitioning` — hash / FENNEL / METIS-like multilevel
  partitioners and the micro-partitioner with online clustering;
* :mod:`repro.engine` — a Pregel-style BSP engine with checkpointing,
  a simulated datastore, three loading strategies, and the paper's
  graph applications (PageRank, SSSP, Graph Coloring, and more);
* :mod:`repro.cloud` — instance catalogue, synthetic spot-price traces,
  eviction models and a replayable market simulator;
* :mod:`repro.core` — the Hourglass provisioner, expected-cost
  machinery, baselines, and the trace-driven execution simulator;
* :mod:`repro.service` — the multi-tenant planning service: shared
  estimator caches, market snapshots, and batched decisions;
* :mod:`repro.experiments` — regenerators for every evaluation figure.

Quickstart::

    from repro import (
        ExperimentSetup, HourglassProvisioner, ExecutionSimulator,
        PAGERANK_PROFILE, job_with_slack,
    )
    setup = ExperimentSetup(seed=7)
    perf = setup.perf_model(PAGERANK_PROFILE)
    sim = ExecutionSimulator(setup.market, perf, setup.catalog,
                             HourglassProvisioner())
    job = job_with_slack(PAGERANK_PROFILE, 0.0, 0.5,
                         perf.fixed_time(setup.lrc(perf)))
    result = sim.run(job)
    print(result.cost, result.missed_deadline)
"""

from repro.cloud import (
    Configuration,
    Market,
    PriceTrace,
    SpotMarket,
    default_catalog,
    full_grid_catalog,
)
from repro.core import (
    COLORING_PROFILE,
    PAGERANK_PROFILE,
    SSSP_PROFILE,
    ApplicationProfile,
    DeadlineProtected,
    ExecutionSimulator,
    HourglassNaiveProvisioner,
    HourglassProvisioner,
    JobSpec,
    OnDemandProvisioner,
    PerformanceModel,
    ProteusProvisioner,
    SlackModel,
    SpotOnProvisioner,
    job_with_slack,
    on_demand_baseline_cost,
)
from repro.engine import DataStore, PregelEngine
from repro.exec import (
    DatastoreWriteFaults,
    EvictionStormFaults,
    ExecutionError,
    ExecutionLifecycle,
    LifecycleEvent,
    LifecycleObserver,
    RunResult,
    SlowBootFaults,
)
from repro.experiments import ExperimentSetup
from repro import obs
from repro.runtime import HourglassRuntime
from repro.service import (
    PlanError,
    PlanningService,
    PlanRequest,
    PlanResult,
)
from repro.graph import Graph, get_dataset
from repro.partitioning import (
    FennelPartitioner,
    HashPartitioner,
    MicroPartitioner,
    MultilevelPartitioner,
    Partitioning,
)

__version__ = "1.0.0"

__all__ = [
    "ApplicationProfile",
    "COLORING_PROFILE",
    "Configuration",
    "DataStore",
    "DatastoreWriteFaults",
    "DeadlineProtected",
    "EvictionStormFaults",
    "ExecutionError",
    "ExecutionLifecycle",
    "ExecutionSimulator",
    "ExperimentSetup",
    "LifecycleEvent",
    "LifecycleObserver",
    "RunResult",
    "SlowBootFaults",
    "FennelPartitioner",
    "Graph",
    "HourglassRuntime",
    "HashPartitioner",
    "HourglassNaiveProvisioner",
    "HourglassProvisioner",
    "JobSpec",
    "Market",
    "MicroPartitioner",
    "MultilevelPartitioner",
    "OnDemandProvisioner",
    "PAGERANK_PROFILE",
    "Partitioning",
    "PerformanceModel",
    "PlanError",
    "PlanningService",
    "PlanRequest",
    "PlanResult",
    "PregelEngine",
    "PriceTrace",
    "ProteusProvisioner",
    "SSSP_PROFILE",
    "SlackModel",
    "SpotMarket",
    "SpotOnProvisioner",
    "default_catalog",
    "full_grid_catalog",
    "get_dataset",
    "job_with_slack",
    "obs",
    "on_demand_baseline_cost",
    "__version__",
]
