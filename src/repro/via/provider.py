"""The VIA provider API surface (VIPL analog): the records and the handle.

An application opens a provider (``VipOpenNic``) to get a
:class:`NicHandle`, which exposes the full VIPL-flavoured operation set
and forwards each call to its provider.  Every operation that consumes
simulated time is a *generator*: call it with ``yield from`` inside a
simulation process.  The one provider is
:class:`repro.providers.base.SimulatedProvider`, parameterised per
platform by design choices and a cost model.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Generator

from ..hw.memory import VirtualRegion
from ..hw.node import Node
from ..sim import Event, Simulator
from .connection import ConnRequest
from .constants import Reliability, ViState, WaitMode
from .cq import CompletionQueue
from .descriptor import DataSegment, Descriptor
from .memory import MemoryHandle
from .vi import VI

if TYPE_CHECKING:  # pragma: no cover
    from ..hw.cpu import CpuActor
    from ..providers.base import SimulatedProvider

__all__ = ["NicHandle", "NicAttributes", "ViAttributes"]

Op = Generator[Event, Any, Any]  # the type of every timed operation


@dataclass(frozen=True)
class NicAttributes:
    """VipQueryNic: the provider's static capabilities and limits."""

    name: str
    max_transfer_size: int
    max_segments: int
    max_outstanding_descriptors: int
    mtu: int
    supports_rdma_write: bool
    supports_rdma_read: bool
    reliability_levels: tuple[Reliability, ...]
    nic_translation_entries: int


@dataclass(frozen=True)
class ViAttributes:
    """VipQueryVi: one endpoint's current state and queue occupancy."""

    vi_id: int
    state: "ViState"
    reliability: Reliability
    peer: tuple[str, int] | None
    send_posted: int
    send_completed: int
    recv_posted: int
    recv_completed: int
    max_transfer_size: int


class NicHandle:
    """An application's session with a provider (VipOpenNic result).

    Thin facade: binds a CPU actor (for rusage accounting) and forwards
    to the provider.  Also offers buffer-management conveniences the
    benchmarks use heavily.
    """

    def __init__(self, provider: "SimulatedProvider", actor: "CpuActor") -> None:
        self.provider = provider
        self.actor = actor
        #: protection tag shared by this session's VIs and registrations
        from .memory import new_protection_tag

        self.ptag = new_protection_tag()

    # -- conveniences -----------------------------------------------------
    @property
    def sim(self) -> Simulator:
        return self.provider.sim

    @property
    def node(self) -> Node:
        return self.provider.node

    def alloc(self, length: int) -> VirtualRegion:
        """Allocate an (unregistered) buffer in host memory."""
        return self.node.mem.alloc(length)

    def segment(self, region: VirtualRegion, mh: MemoryHandle,
                offset: int = 0, length: int | None = None) -> DataSegment:
        """Build a DataSegment for a slice of ``region``."""
        if length is None:
            length = region.length - offset
        return DataSegment(region.base + offset, length, mh)

    def write(self, region: VirtualRegion, data: bytes, offset: int = 0) -> None:
        self.node.mem.write(region.base + offset, data)

    def read(self, region: VirtualRegion, length: int, offset: int = 0) -> bytes:
        return self.node.mem.read(region.base + offset, length)

    # -- forwarding API (all timed generators) ------------------------------
    def create_vi(self, reliability: Reliability | None = None,
                  send_cq: CompletionQueue | None = None,
                  recv_cq: CompletionQueue | None = None) -> Op:
        return self.provider.vi_create(self, reliability, send_cq, recv_cq)

    def destroy_vi(self, vi: VI) -> Op:
        return self.provider.vi_destroy(self, vi)

    def register_mem(self, region_or_addr, length: int | None = None,
                     enable_rdma_write: bool = True,
                     enable_rdma_read: bool = False) -> Op:
        if isinstance(region_or_addr, VirtualRegion):
            address = region_or_addr.base
            length = region_or_addr.length if length is None else length
        else:
            address = int(region_or_addr)
            if length is None:
                raise TypeError("length required when passing a raw address")
        return self.provider.register_mem(
            self, address, length, enable_rdma_write, enable_rdma_read
        )

    def deregister_mem(self, mh: MemoryHandle) -> Op:
        return self.provider.deregister_mem(self, mh)

    def create_cq(self, depth: int = 1024) -> Op:
        return self.provider.cq_create(self, depth)

    def destroy_cq(self, cq: CompletionQueue) -> Op:
        return self.provider.cq_destroy(self, cq)

    def connect(self, vi: VI, remote_host: str, discriminator: int,
                timeout: float | None = None) -> Op:
        return self.provider.connect_request(
            self, vi, remote_host, discriminator, timeout
        )

    def connect_wait(self, discriminator: int,
                     timeout: float | None = None) -> Op:
        return self.provider.connect_wait(self, discriminator, timeout)

    def accept(self, request: ConnRequest, vi: VI) -> Op:
        return self.provider.connect_accept(self, request, vi)

    def reject(self, request: ConnRequest) -> Op:
        return self.provider.connect_reject(self, request)

    def disconnect(self, vi: VI) -> Op:
        return self.provider.disconnect(self, vi)

    def reset_vi(self, vi: VI) -> Op:
        return self.provider.vi_reset(self, vi)

    def post_send(self, vi: VI, desc: Descriptor) -> Op:
        return self.provider.post_send(self, vi, desc)

    def post_recv(self, vi: VI, desc: Descriptor) -> Op:
        return self.provider.post_recv(self, vi, desc)

    def send_done(self, vi: VI) -> Op:
        return self.provider.send_done(self, vi)

    def recv_done(self, vi: VI) -> Op:
        return self.provider.recv_done(self, vi)

    def send_wait(self, vi: VI, mode: WaitMode = WaitMode.POLL,
                  timeout: float | None = None) -> Op:
        return self.provider.send_wait(self, vi, mode, timeout)

    def recv_wait(self, vi: VI, mode: WaitMode = WaitMode.POLL,
                  timeout: float | None = None) -> Op:
        return self.provider.recv_wait(self, vi, mode, timeout)

    def cq_done(self, cq: CompletionQueue) -> Op:
        return self.provider.cq_done(self, cq)

    def cq_wait(self, cq: CompletionQueue, mode: WaitMode = WaitMode.POLL,
                timeout: float | None = None) -> Op:
        return self.provider.cq_wait(self, cq, mode, timeout)

    # -- queries -----------------------------------------------------------
    def query_nic(self) -> NicAttributes:
        return self.provider.query_nic()

    def query_vi(self, vi: VI) -> ViAttributes:
        return self.provider.query_vi(vi)
