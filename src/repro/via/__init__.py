"""The Virtual Interface Architecture specification layer.

Data structures and semantics of VIA 1.0 — VIs, descriptors, memory
registration, completion queues, connections — independent of how any
particular provider implements them.  Concrete (simulated) providers
live in :mod:`repro.providers`.
"""

from .connection import ConnRequest, ConnectionManager
from .constants import (
    ACK_WIRE_BYTES,
    CONTROL_WIRE_BYTES,
    DEFAULT_MAX_SEGMENTS,
    DESCRIPTOR_WIRE_BYTES,
    CompletionStatus,
    DescriptorOp,
    Reliability,
    ViState,
    WaitMode,
)
from .cq import CompletionQueue
from .descriptor import AddressSegment, ControlSegment, DataSegment, Descriptor
from .errors import (
    VipConnectionError,
    VipDescriptorError,
    VipError,
    VipErrorResource,
    VipInvalidParameter,
    VipNotSupported,
    VipProtectionError,
    VipStateError,
    VipTimeout,
)
from .memory import MemoryHandle, MemoryRegistry
from .nameservice import NameService
from .provider import NicAttributes, NicHandle, ViAttributes
from .vi import VI, WorkQueue

__all__ = [
    "ACK_WIRE_BYTES",
    "AddressSegment",
    "CONTROL_WIRE_BYTES",
    "CompletionQueue",
    "CompletionStatus",
    "ConnRequest",
    "ConnectionManager",
    "ControlSegment",
    "DEFAULT_MAX_SEGMENTS",
    "DESCRIPTOR_WIRE_BYTES",
    "DataSegment",
    "Descriptor",
    "DescriptorOp",
    "MemoryHandle",
    "MemoryRegistry",
    "NameService",
    "NicAttributes",
    "NicHandle",
    "Reliability",
    "VI",
    "ViAttributes",
    "ViState",
    "VipConnectionError",
    "VipDescriptorError",
    "VipError",
    "VipErrorResource",
    "VipInvalidParameter",
    "VipNotSupported",
    "VipProtectionError",
    "VipStateError",
    "VipTimeout",
    "WaitMode",
    "WorkQueue",
]
