"""End-to-end runtime: real vertex programs over the simulated market."""

from repro.runtime.mechmodel import MechanisticPerformanceModel
from repro.runtime.runtime import HourglassRuntime
from repro.runtime.workmodel import EngineWorkModel

__all__ = [
    "EngineWorkModel",
    "HourglassRuntime",
    "MechanisticPerformanceModel",
]
