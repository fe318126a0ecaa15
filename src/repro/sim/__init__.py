"""Simulation framework (paper Section X-A2).

Replays a request stream against a ride-sharing engine: for each request,
search for matching rides; book the best match if any (least walking for
XAR, least detour for T-Share), else create a new ride from the request.
Per-operation wall-clock timings and matching statistics are collected —
these are the raw series behind Figures 3, 4 and 5.
"""

from .adapters import EngineAdapter, TShareAdapter, XARAdapter
from .faults import (
    DriverCancellation,
    FaultInjectingAdapter,
    FaultPolicy,
    IndexCorruption,
    TrackingDropout,
    default_fault_policies,
    parse_fault_policies,
)
from .metrics import OperationTimings, SimulationReport, percentile
from .simulator import RideShareSimulator, SimulatorConfig
from .events import EventDrivenSimulator

__all__ = [
    "EngineAdapter",
    "XARAdapter",
    "TShareAdapter",
    "FaultPolicy",
    "FaultInjectingAdapter",
    "TrackingDropout",
    "DriverCancellation",
    "IndexCorruption",
    "default_fault_policies",
    "parse_fault_policies",
    "OperationTimings",
    "SimulationReport",
    "percentile",
    "RideShareSimulator",
    "SimulatorConfig",
    "EventDrivenSimulator",
]
