"""Deterministic discrete-event simulation kernel (time in microseconds)."""

from .core import (
    AllOf,
    AnyOf,
    Event,
    Interrupt,
    PENDING,
    Process,
    SimulationError,
    Simulator,
    Timeout,
)
from .resources import Resource, ResourceHold, ResourceRequest, Signal, Store
from .stats import BusyTracker, Counter, TimeWeighted
from .trace import TraceEvent, Tracer

__all__ = [
    "AllOf",
    "AnyOf",
    "BusyTracker",
    "Counter",
    "Event",
    "Interrupt",
    "PENDING",
    "Process",
    "Resource",
    "ResourceHold",
    "ResourceRequest",
    "Signal",
    "SimulationError",
    "Simulator",
    "Store",
    "TimeWeighted",
    "Timeout",
    "TraceEvent",
    "Tracer",
]
