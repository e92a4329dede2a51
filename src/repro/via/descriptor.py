"""VIA descriptors: control segment + data segments + address segment.

A descriptor is the unit of work posted to a VI's send or receive
queue (spec §2.2).  It carries:

- a **control segment** (CS): operation, flags, immediate data, and —
  written back by the provider on completion — status and length;
- zero or more **data segments** (DS): (virtual address, length,
  memory handle) triples describing a gather (send) or scatter
  (receive) list in *registered* memory;
- for RDMA operations, one **address segment** (AS) naming the remote
  buffer (virtual address + the remote side's memory handle).

Descriptors are application-owned and reusable, but must not be touched
while posted; the provider enforces that by tracking a ``posted`` flag.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from ..sim.ids import id_space
from .constants import CompletionStatus, DescriptorOp
from .errors import VipDescriptorError, VipInvalidParameter

if TYPE_CHECKING:  # pragma: no cover
    from .memory import MemoryHandle

__all__ = ["DataSegment", "AddressSegment", "ControlSegment", "Descriptor"]

_desc_ids = id_space("desc")


@dataclass(frozen=True)
class DataSegment:
    """One entry of a gather/scatter list."""

    address: int
    length: int
    handle: "MemoryHandle"

    def __post_init__(self) -> None:
        if self.address < 0:
            raise VipInvalidParameter(f"negative segment address {self.address}")
        if self.length < 0:
            raise VipInvalidParameter(f"negative segment length {self.length}")


@dataclass(frozen=True)
class AddressSegment:
    """Remote buffer coordinates for RDMA operations."""

    address: int
    remote_handle_id: int

    def __post_init__(self) -> None:
        if self.address < 0:
            raise VipInvalidParameter(f"negative remote address {self.address}")


@dataclass
class ControlSegment:
    """Operation + provider-written completion fields."""

    op: DescriptorOp
    immediate: int | None = None
    status: CompletionStatus = CompletionStatus.PENDING
    length: int = 0  # bytes actually transferred, written on completion


@dataclass
class Descriptor:
    """A posted unit of work.  Build via the class-method constructors."""

    control: ControlSegment
    segments: tuple[DataSegment, ...] = ()
    address_segment: AddressSegment | None = None
    desc_id: int = field(default_factory=_desc_ids.__next__)
    posted: bool = False
    #: provider-written: simulated time of completion (for benchmarks)
    completed_at: float | None = None
    #: the operation (``control.op``) and the bytes the data segments
    #: span, fixed at construction: the segments are a tuple of frozen
    #: entries and nothing reassigns them or the op
    op: DescriptorOp = field(init=False, repr=False, compare=False)
    total_length: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        self.op = self.control.op
        total = 0
        for seg in self.segments:
            total += seg.length
        self.total_length = total

    # -- constructors ----------------------------------------------------
    @classmethod
    def send(
        cls,
        segments: tuple[DataSegment, ...] | list[DataSegment] = (),
        immediate: int | None = None,
    ) -> "Descriptor":
        return cls(ControlSegment(DescriptorOp.SEND, immediate=immediate),
                   tuple(segments))

    @classmethod
    def recv(
        cls, segments: tuple[DataSegment, ...] | list[DataSegment] = ()
    ) -> "Descriptor":
        return cls(ControlSegment(DescriptorOp.RECEIVE), tuple(segments))

    @classmethod
    def rdma_write(
        cls,
        segments: tuple[DataSegment, ...] | list[DataSegment],
        remote_address: int,
        remote_handle_id: int,
        immediate: int | None = None,
    ) -> "Descriptor":
        return cls(
            ControlSegment(DescriptorOp.RDMA_WRITE, immediate=immediate),
            tuple(segments),
            AddressSegment(remote_address, remote_handle_id),
        )

    @classmethod
    def rdma_read(
        cls,
        segments: tuple[DataSegment, ...] | list[DataSegment],
        remote_address: int,
        remote_handle_id: int,
    ) -> "Descriptor":
        return cls(
            ControlSegment(DescriptorOp.RDMA_READ),
            tuple(segments),
            AddressSegment(remote_address, remote_handle_id),
        )

    # -- derived properties ----------------------------------------------
    @property
    def status(self) -> CompletionStatus:
        return self.control.status

    @property
    def is_complete(self) -> bool:
        return self.control.status is not CompletionStatus.PENDING

    # -- validation --------------------------------------------------------
    def validate(self, max_segments: int, max_transfer_size: int) -> None:
        """Structural checks done at post time (VIP_ERROR_DESC analog)."""
        if self.posted:
            raise VipDescriptorError(
                f"descriptor {self.desc_id} is already posted"
            )
        if len(self.segments) > max_segments:
            raise VipDescriptorError(
                f"{len(self.segments)} segments exceeds provider limit "
                f"of {max_segments}"
            )
        if self.total_length > max_transfer_size:
            raise VipDescriptorError(
                f"transfer of {self.total_length} bytes exceeds provider "
                f"maximum transfer size of {max_transfer_size}"
            )
        needs_as = self.op in (DescriptorOp.RDMA_WRITE, DescriptorOp.RDMA_READ)
        if needs_as and self.address_segment is None:
            raise VipDescriptorError(f"{self.op.value} requires an address segment")
        if not needs_as and self.address_segment is not None:
            raise VipDescriptorError(
                f"{self.op.value} must not carry an address segment"
            )
        if self.op is DescriptorOp.RDMA_READ and self.control.immediate is not None:
            raise VipDescriptorError("RDMA read cannot carry immediate data")
        if not self.segments and self.control.immediate is None:
            if self.op in (DescriptorOp.RDMA_WRITE, DescriptorOp.RDMA_READ):
                raise VipDescriptorError(f"{self.op.value} needs data segments")

    def reset(self) -> None:
        """Re-arm a completed descriptor for reuse (application helper)."""
        if self.posted:
            raise VipDescriptorError("cannot reset a posted descriptor")
        self.control.status = CompletionStatus.PENDING
        self.control.length = 0
        self.completed_at = None
