"""Unit tests for completion queues."""

import pytest

from repro.sim import Simulator
from repro.via import (
    CompletionStatus,
    Descriptor,
    Reliability,
    VI,
    VipErrorResource,
    VipStateError,
)
from repro.via.cq import CompletionQueue


def make():
    sim = Simulator()
    vi = VI(sim, "n0", Reliability.UNRELIABLE)
    cq = CompletionQueue(sim, depth=4)
    return sim, vi, cq


def test_notify_and_pop_fifo():
    _sim, vi, cq = make()
    d1, d2 = Descriptor.recv([]), Descriptor.recv([])
    cq.notify(vi.recv_q, d1)
    cq.notify(vi.send_q, d2)
    assert cq.try_pop() == (vi.recv_q, d1)
    assert cq.try_pop() == (vi.send_q, d2)
    assert cq.try_pop() is None
    assert cq.total_notifications == 2


def test_depth_overflow():
    _sim, vi, cq = make()
    for _ in range(4):
        cq.notify(vi.recv_q, Descriptor.recv([]))
    with pytest.raises(VipErrorResource, match="overflow"):
        cq.notify(vi.recv_q, Descriptor.recv([]))


def test_bad_depth():
    with pytest.raises(VipErrorResource):
        CompletionQueue(Simulator(), depth=0)


def test_destroy_rules():
    _sim, vi, cq = make()
    cq.attached = 1
    with pytest.raises(VipStateError, match="attached"):
        cq.destroy()
    cq.attached = 0
    cq.notify(vi.recv_q, Descriptor.recv([]))
    with pytest.raises(VipStateError, match="unreaped"):
        cq.destroy()
    cq.try_pop()
    cq.destroy()
    assert cq.destroyed
    with pytest.raises(VipStateError):
        cq.try_pop()
    with pytest.raises(VipStateError):
        cq.destroy()


def test_signal_fires_on_notify():
    sim, vi, cq = make()
    woke = []
    ev = cq.signal.wait()
    ev.callbacks.append(lambda e: woke.append(True))
    cq.notify(vi.recv_q, Descriptor.recv([]))
    sim.run()
    assert woke == [True]


def test_merges_multiple_work_queues():
    """A CQ merges completions from many VIs (the spec's whole point)."""
    sim = Simulator()
    cq = CompletionQueue(sim, depth=64)
    vis = [VI(sim, "n0") for _ in range(3)]
    for i, vi in enumerate(vis):
        d = Descriptor.recv([])
        cq.notify(vi.recv_q, d)
    sources = [cq.try_pop()[0].vi_id for _ in range(3)]
    assert sources == [vi.vi_id for vi in vis]
