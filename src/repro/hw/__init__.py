"""Simulated hardware substrate: memory, CPU, NIC, links, fabrics."""

from .cpu import CpuActor, HostCPU, Rusage
from .link import Channel, Link, Packet
from .memory import (
    PAGE_SIZE,
    MemoryError_,
    MemorySystem,
    PageTable,
    ProtectionError,
    VirtualRegion,
    page_span,
)
from .network import (
    GIGANET,
    GIGE,
    MYRINET,
    Fabric,
    HostParams,
    NetworkParams,
    Switch,
)
from .nic import NIC, DMAEngine, TranslationCache
from .node import Node
from .tiered import TieredFabric

__all__ = [
    "Channel",
    "CpuActor",
    "DMAEngine",
    "Fabric",
    "GIGANET",
    "GIGE",
    "HostCPU",
    "HostParams",
    "Link",
    "MYRINET",
    "MemoryError_",
    "MemorySystem",
    "NIC",
    "NetworkParams",
    "Node",
    "PAGE_SIZE",
    "Packet",
    "PageTable",
    "ProtectionError",
    "Rusage",
    "Switch",
    "TieredFabric",
    "TranslationCache",
    "VirtualRegion",
    "page_span",
]
