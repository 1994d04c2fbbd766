"""Simulated Spindle runtime engine: localization, transmissions, parameter
device groups, and wave-by-wave iteration simulation."""

from repro.runtime.engine import LocalMetaOpSlice, LocalProgram, RuntimeEngine
from repro.runtime.param_groups import ParameterDeviceGroupPool, ParameterGroup
from repro.runtime.results import IterationResult, TimeBreakdown, TrainingRunResult
from repro.runtime.simulator import WaveExecutionSimulator, WaveSimulation
from repro.runtime.trace import TraceRecord, TraceSegment, UtilizationTrace
from repro.runtime.transmission import (
    TransmissionOp,
    build_transmissions,
    total_transmission_time,
    transmission_volume_by_link,
)

__all__ = [
    "IterationResult",
    "LocalMetaOpSlice",
    "LocalProgram",
    "ParameterDeviceGroupPool",
    "ParameterGroup",
    "RuntimeEngine",
    "TimeBreakdown",
    "TraceRecord",
    "TraceSegment",
    "TrainingRunResult",
    "TransmissionOp",
    "UtilizationTrace",
    "WaveExecutionSimulator",
    "WaveSimulation",
    "build_transmissions",
    "total_transmission_time",
    "transmission_volume_by_link",
]
