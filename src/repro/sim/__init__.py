"""Deterministic discrete-event simulation kernel (time in microseconds)."""

from .core import (
    AnyOf,
    Event,
    PENDING,
    Process,
    SimulationError,
    Simulator,
    Timeout,
)
from .resources import Resource, ResourceHold, ResourceRequest, Signal
from .trace import TraceEvent, Tracer

__all__ = [
    "AnyOf",
    "Event",
    "PENDING",
    "Process",
    "Resource",
    "ResourceHold",
    "ResourceRequest",
    "Signal",
    "SimulationError",
    "Simulator",
    "Timeout",
    "TraceEvent",
    "Tracer",
]
