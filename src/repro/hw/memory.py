"""Host virtual-memory model: regions, pages, pinning, page tables.

VIA requires every communication buffer to live in *registered* memory:
the OS pins the pages and the provider records virtual-to-physical
translations so the NIC can DMA directly to/from user buffers.  The
quantities the paper measures — registration cost per page (Fig. 1),
translation cost per page on the NIC (Fig. 5) — all reduce to page-level
bookkeeping, so this model tracks real pages with real contents.

Addresses are integers in a flat per-node virtual address space.
Payloads are real ``bytes`` so data-integrity can be asserted end to
end.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, field

__all__ = [
    "PAGE_SIZE",
    "MemoryError_",
    "ProtectionError",
    "VirtualRegion",
    "PageTable",
    "MemorySystem",
    "page_span",
]

PAGE_SIZE = 4096

# Virtual allocations start well away from 0 so a 0 address is always bad.
_VA_BASE = 0x1000_0000


class MemoryError_(Exception):
    """Bad address, overlap, or exhausted physical memory."""


class ProtectionError(MemoryError_):
    """Access outside an allocated region or to unpinned pages."""


def page_span(addr: int, length: int, page_size: int = PAGE_SIZE) -> range:
    """Virtual page numbers touched by ``[addr, addr+length)``.

    A zero-length transfer still touches the page of its address (VIA
    descriptors may carry zero-byte segments whose address must still be
    registered).
    """
    if addr < 0 or length < 0:
        raise ValueError("negative address or length")
    first = addr // page_size
    last = (addr + max(length, 1) - 1) // page_size
    return range(first, last + 1)


@dataclass
class VirtualRegion:
    """A contiguous virtual allocation with backing bytes."""

    base: int
    length: int
    data: bytearray = field(repr=False)


class PageTable:
    """Virtual-page -> physical-frame map for one node.

    Frames are handed out by a bump allocator; the simulation never
    reuses a frame number, which makes stale-translation bugs (a classic
    VIA provider hazard the paper alludes to) detectable in tests.
    """

    def __init__(self, page_size: int = PAGE_SIZE) -> None:
        self.page_size = page_size
        self._map: dict[int, int] = {}
        self._next_frame = 1  # frame 0 reserved as "invalid"

    def __len__(self) -> int:
        return len(self._map)

    def map_page(self, vpage: int) -> int:
        """Ensure ``vpage`` has a frame; return the frame number."""
        frame = self._map.get(vpage)
        if frame is None:
            frame = self._next_frame
            self._next_frame += 1
            self._map[vpage] = frame
        return frame

    def unmap_page(self, vpage: int) -> None:
        self._map.pop(vpage, None)

    def translate(self, vpage: int) -> int:
        """Frame for ``vpage``; raises if not mapped (i.e. not pinned)."""
        try:
            return self._map[vpage]
        except KeyError:
            raise ProtectionError(f"virtual page {vpage:#x} has no mapping") from None


class MemorySystem:
    """Per-node allocator + pin accounting.

    Pinning is reference counted per page: two registered memory regions
    may overlap the same page, and the page stays resident until both
    deregister (the semantics the VIA spec requires of providers).
    """

    def __init__(self, page_size: int = PAGE_SIZE, pinnable_pages: int = 1 << 20) -> None:
        self.page_size = page_size
        self.pinnable_pages = pinnable_pages
        self.page_table = PageTable(page_size)
        self._regions: list[VirtualRegion] = []  # sorted by base
        self._bases: list[int] = []
        self._next_va = _VA_BASE
        self._pin_counts: dict[int, int] = {}

    # -- allocation ------------------------------------------------------
    def alloc(self, length: int, align_page: bool = True) -> VirtualRegion:
        """Allocate a fresh region; page-aligned by default."""
        if length <= 0:
            raise ValueError(f"allocation length must be positive, got {length}")
        base = self._next_va
        if align_page and base % self.page_size:
            base += self.page_size - base % self.page_size
        region = VirtualRegion(base=base, length=length, data=bytearray(length))
        self._next_va = base + length
        # bases only grow and regions are never freed: appending keeps
        # both lists sorted
        self._bases.append(base)
        self._regions.append(region)
        return region

    def region_at(self, addr: int) -> VirtualRegion:
        idx = bisect.bisect_right(self._bases, addr) - 1
        if idx >= 0:
            region = self._regions[idx]
            # region.base <= addr by the bisect; the bounds are inline
            # because every read, write and pin comes through here
            if addr < region.base + region.length:
                return region
        raise ProtectionError(f"address {addr:#x} is not allocated")

    # -- data access -----------------------------------------------------
    # region_at leaves 0 <= off < region.length, so a span of 0 or 1
    # bytes always fits and only the span's end needs checking

    def write(self, addr: int, data: bytes) -> None:
        region = self.region_at(addr)
        off = addr - region.base
        if off + len(data) > region.length:
            raise ProtectionError(
                f"write of {len(data)} bytes at {addr:#x} spills out of region"
            )
        region.data[off : off + len(data)] = data

    def read(self, addr: int, length: int) -> bytes:
        region = self.region_at(addr)
        off = addr - region.base
        if off + length > region.length:
            raise ProtectionError(
                f"read of {length} bytes at {addr:#x} spills out of region"
            )
        return bytes(region.data[off : off + length])

    # -- pinning ---------------------------------------------------------
    @property
    def pinned_pages(self) -> int:
        return len(self._pin_counts)

    def pin(self, addr: int, length: int) -> list[int]:
        """Pin all pages of ``[addr, addr+length)``; returns their vpages.

        Raises if the range is not fully inside one allocated region or
        the pinnable-page budget would be exceeded.
        """
        region = self.region_at(addr)
        if addr - region.base + length > region.length:
            raise ProtectionError(
                f"pin range {addr:#x}+{length} spills out of its region"
            )
        pages = list(page_span(addr, length, self.page_size))
        new = sum(1 for p in pages if p not in self._pin_counts)
        if self.pinned_pages + new > self.pinnable_pages:
            raise MemoryError_(
                f"pinning {new} pages exceeds budget of {self.pinnable_pages}"
            )
        for p in pages:
            self._pin_counts[p] = self._pin_counts.get(p, 0) + 1
            self.page_table.map_page(p)
        return pages

    def unpin(self, pages: list[int]) -> None:
        for p in pages:
            count = self._pin_counts.get(p)
            if not count:
                raise MemoryError_(f"unpin of page {p:#x} that is not pinned")
            if count == 1:
                del self._pin_counts[p]
                self.page_table.unmap_page(p)
            else:
                self._pin_counts[p] = count - 1

    def is_pinned(self, addr: int, length: int) -> bool:
        return all(
            p in self._pin_counts for p in page_span(addr, length, self.page_size)
        )
