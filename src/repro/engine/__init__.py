"""Pregel-style BSP graph processing engine (the Giraph stand-in)."""

from repro.engine.aggregators import (
    Aggregator,
    AndAggregator,
    MaxAggregator,
    MinAggregator,
    OrAggregator,
    SumAggregator,
)
from repro.engine.checkpoint import (
    CheckpointCorruptionError,
    CheckpointInfo,
    CheckpointManager,
)
from repro.engine.datastore import DataStore, TransferStats
from repro.engine.engine import ExecutionResult, PregelEngine, SuperstepStats
from repro.engine.loader import (
    HashLoader,
    LoadResult,
    LoadTimingModel,
    MicroLoader,
)
from repro.engine.metrics import ClusterTimingModel
from repro.engine.messages import (
    Combiner,
    MaxCombiner,
    MessageStore,
    MinCombiner,
    SumCombiner,
)
from repro.engine.parallel import parallel_execution_supported
from repro.engine.vertex import DenseComputeContext, VertexProgram
from repro.engine.worker import Worker, build_workers

__all__ = [
    "Aggregator",
    "AndAggregator",
    "CheckpointCorruptionError",
    "CheckpointInfo",
    "CheckpointManager",
    "ClusterTimingModel",
    "Combiner",
    "DataStore",
    "DenseComputeContext",
    "ExecutionResult",
    "HashLoader",
    "LoadResult",
    "LoadTimingModel",
    "MaxAggregator",
    "MaxCombiner",
    "MessageStore",
    "MicroLoader",
    "MinAggregator",
    "MinCombiner",
    "OrAggregator",
    "parallel_execution_supported",
    "PregelEngine",
    "SumAggregator",
    "SumCombiner",
    "SuperstepStats",
    "TransferStats",
    "VertexProgram",
    "Worker",
    "build_workers",
]
