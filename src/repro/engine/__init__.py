"""Pregel-style BSP graph processing engine (the Giraph stand-in)."""

from repro.engine.aggregators import Aggregator, SumAggregator
from repro.engine.checkpoint import (
    CheckpointCorruptionError,
    CheckpointInfo,
    CheckpointManager,
)
from repro.engine.datastore import DataStore, TransferStats
from repro.engine.engine import ExecutionResult, PregelEngine, SuperstepStats
from repro.engine.loader import HashLoader, LoadResult, MicroLoader
from repro.engine.metrics import ClusterTimingModel
from repro.engine.messages import (
    Combiner,
    MaxCombiner,
    MessageStore,
    MinCombiner,
    SumCombiner,
)
from repro.engine.vertex import DenseComputeContext, VertexProgram

__all__ = [
    "Aggregator",
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
    "MaxCombiner",
    "MessageStore",
    "MicroLoader",
    "MinCombiner",
    "PregelEngine",
    "SumAggregator",
    "SumCombiner",
    "SuperstepStats",
    "TransferStats",
    "VertexProgram",
]
