"""Unit tests for the virtual-memory model."""

import pytest

from repro.hw.memory import (
    PAGE_SIZE,
    MemoryError_,
    MemorySystem,
    PageTable,
    ProtectionError,
    page_span,
)


def test_page_span_single_page():
    assert list(page_span(0, 1)) == [0]
    assert list(page_span(100, 100)) == [0]


def test_page_span_boundary():
    assert list(page_span(PAGE_SIZE - 1, 2)) == [0, 1]
    assert list(page_span(PAGE_SIZE, PAGE_SIZE)) == [1]


def test_page_span_zero_length_still_touches_a_page():
    assert list(page_span(PAGE_SIZE * 3, 0)) == [3]


def test_page_span_rejects_negative():
    with pytest.raises(ValueError):
        page_span(-1, 10)


def test_alloc_is_page_aligned():
    mem = MemorySystem()
    region = mem.alloc(100)
    assert region.base % PAGE_SIZE == 0
    assert region.length == 100


def test_alloc_rejects_nonpositive():
    mem = MemorySystem()
    with pytest.raises(ValueError):
        mem.alloc(0)


def test_write_read_roundtrip():
    mem = MemorySystem()
    region = mem.alloc(64)
    mem.write(region.base + 8, b"hello")
    assert mem.read(region.base + 8, 5) == b"hello"
    assert mem.read(region.base, 3) == b"\x00\x00\x00"


def test_write_outside_region_rejected():
    mem = MemorySystem()
    region = mem.alloc(16)
    with pytest.raises(ProtectionError):
        mem.write(region.base + 10, b"0123456789")
    with pytest.raises(ProtectionError):
        mem.read(region.base - 1, 1)


def test_unallocated_address_rejected():
    mem = MemorySystem()
    with pytest.raises(ProtectionError):
        mem.region_at(0x5)


def test_pin_maps_pages_and_refcounts():
    mem = MemorySystem()
    region = mem.alloc(3 * PAGE_SIZE)
    pages = mem.pin(region.base, 3 * PAGE_SIZE)
    assert len(pages) == 3
    assert mem.pinned_pages == 3
    again = mem.pin(region.base, PAGE_SIZE)
    assert mem.pinned_pages == 3  # shared page refcounted, not re-pinned
    mem.unpin(again)
    assert mem.pinned_pages == 3
    mem.unpin(pages)
    assert mem.pinned_pages == 0


def test_unpin_not_pinned_rejected():
    mem = MemorySystem()
    with pytest.raises(MemoryError_):
        mem.unpin([42])


def test_pin_budget_enforced():
    mem = MemorySystem(pinnable_pages=2)
    region = mem.alloc(3 * PAGE_SIZE)
    with pytest.raises(MemoryError_):
        mem.pin(region.base, 3 * PAGE_SIZE)
    assert mem.pinned_pages == 0  # nothing partially pinned


def test_pin_outside_region_rejected():
    mem = MemorySystem()
    region = mem.alloc(100)
    with pytest.raises(ProtectionError):
        mem.pin(region.base, PAGE_SIZE * 2)


def test_is_pinned():
    mem = MemorySystem()
    region = mem.alloc(PAGE_SIZE)
    assert not mem.is_pinned(region.base, 10)
    pages = mem.pin(region.base, 10)
    assert mem.is_pinned(region.base, 10)
    mem.unpin(pages)
    assert not mem.is_pinned(region.base, 10)


def test_page_table_translate():
    pt = PageTable()
    frame = pt.map_page(7)
    assert pt.translate(7) == frame
    assert pt.map_page(7) == frame  # idempotent
    pt.unmap_page(7)
    with pytest.raises(ProtectionError):
        pt.translate(7)


def test_page_table_frames_never_reused():
    pt = PageTable()
    f1 = pt.map_page(1)
    pt.unmap_page(1)
    f2 = pt.map_page(1)
    assert f2 != f1


def test_distinct_allocations_dont_overlap():
    mem = MemorySystem()
    regions = [mem.alloc(1000) for _ in range(10)]
    spans = sorted((r.base, r.base + r.length) for r in regions)
    for (b1, e1), (b2, _e2) in zip(spans, spans[1:]):
        assert e1 <= b2
