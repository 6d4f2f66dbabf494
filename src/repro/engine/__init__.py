"""Pregel-style BSP graph processing engine (the Giraph stand-in).

Its state is the vertex values, the halted flags, one combined inbox
and the per-superstep stats; every program declares a message combiner
and sends along out-edges.
"""

from repro.engine.checkpoint import (
    CheckpointCorruptionError,
    CheckpointInfo,
    CheckpointManager,
)
from repro.engine.datastore import DataStore
from repro.engine.engine import ExecutionResult, PregelEngine, SuperstepStats
from repro.engine.loader import HashLoader, LoadResult, MicroLoader
from repro.engine.metrics import ClusterTimingModel
from repro.engine.messages import (
    Combiner,
    MessageStore,
    MinCombiner,
    SumCombiner,
)
from repro.engine.vertex import DenseComputeContext, VertexProgram

__all__ = [
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
    "MessageStore",
    "MicroLoader",
    "MinCombiner",
    "PregelEngine",
    "SumCombiner",
    "SuperstepStats",
    "VertexProgram",
]
