"""Fast-forward equivalence: the burst path must be bit-identical.

Three layers of the same property — flow-level fast-forward is a pure
wall-clock optimisation, never a model change:

* the wire: the planner's one pass over a message's fragments replays
  the serialise/propagate, switch and output-port recurrences
  arithmetically and must reproduce the event path's timestamps
  bit-for-bit for any wire parameters and any spacing of messages;
* the engine: a streamed message sequence run at ``fidelity="auto"``
  must complete at exactly the packet-mode timestamps and leave every
  model counter (NIC, DMA, TLB, wire, work queues) identical, across
  message size x MTU x port-buffer x reliability level x receive
  offset, TLB evictions included; the planner's page arithmetic must
  match the placement walk it stands for;
* the stacks: the differential harness's structural signatures must not
  move under either fast-forward mode on any provider.

Only ``sim.*`` kernel accounting may differ: fast-forward exists to run
fewer events, so ``events_run``/``ctx_switches`` shrink and the
``sim.ff_*`` counters appear.  ``sim.ff_events_skipped`` must count the
difference in ``events_run`` exactly on a single stream.
"""

from __future__ import annotations

from dataclasses import replace
from types import SimpleNamespace
from typing import NamedTuple

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.check.differential import ALL_PROVIDERS, WORKLOADS, run_workload
from repro.obs.harvest import harvest_testbed
from repro.providers import Testbed
from repro.providers.engine import NicEngine
from repro.providers.registry import get_spec
from repro.via import Descriptor
from repro.via.constants import Reliability
from repro.via.descriptor import DataSegment

RELIABILITIES = (Reliability.UNRELIABLE, Reliability.RELIABLE_DELIVERY,
                 Reliability.RELIABLE_RECEPTION)

#: bvia with a 4-entry NIC TLB: an 8-page message evicts mid-burst
SMALL_TLB_BVIA = get_spec("bvia").with_choices(nic_tlb_entries=4)


class _Run(NamedTuple):
    times: dict          # completion timestamps and the final clock
    counters: dict       # every harvested counter outside sim.*
    events_run: int
    ff_events_skipped: int


def _stream_run(provider, sizes, mtu: int, reliability: Reliability,
                fidelity: str, frames: int | None = None,
                recv_offset: int = 0, gaps=()) -> _Run:
    """Stream one message per entry of ``sizes``, each posted after the
    matching entry of ``gaps`` (µs) and waited for; the receiver scatters
    into one segment ``recv_offset`` bytes into its region."""
    tb = Testbed(provider, mtu=mtu, fidelity=fidelity)
    if frames is not None:
        for port in tb.fabric.switch._ports.values():
            port.capacity_frames = frames
    span = max(sizes)
    times: dict = {"send": [], "recv": []}

    def client():
        h = tb.open("node0", "c")
        vi = yield from h.create_vi(reliability=reliability)
        r = h.alloc(span)
        mh = yield from h.register_mem(r)
        yield from h.connect(vi, "node1", 9)
        for i, size in enumerate(sizes):
            if i < len(gaps) and gaps[i] > 0.0:
                yield tb.sim.timeout(gaps[i])
            yield from h.post_send(vi, Descriptor.send(
                [h.segment(r, mh, 0, size)]))
            desc = yield from h.send_wait(vi)
            times["send"].append(desc.completed_at)

    def server():
        h = tb.open("node1", "s")
        vi = yield from h.create_vi(reliability=reliability)
        r = h.alloc(recv_offset + span)
        mh = yield from h.register_mem(r)
        segs = [h.segment(r, mh, recv_offset, span)]
        for _ in sizes:
            yield from h.post_recv(vi, Descriptor.recv(segs))
        req = yield from h.connect_wait(9)
        yield from h.accept(req, vi)
        for _ in sizes:
            desc = yield from h.recv_wait(vi)
            times["recv"].append(desc.completed_at)

    cp = tb.spawn(client(), "client")
    sp = tb.spawn(server(), "server")
    tb.run(cp)
    tb.run(sp)
    tb.run()
    times["now"] = tb.sim.now
    counters = {k: v for k, v in harvest_testbed(tb).snapshot().items()
                if not k.startswith("sim.")}
    return _Run(times, counters, tb.sim.events_run, tb.sim.ff_events_skipped)


# ---------------------------------------------------------------------------
# wire level: the planner's hop recurrences vs the per-packet event path
# ---------------------------------------------------------------------------

@given(
    sizes=st.lists(st.integers(min_value=1, max_value=4096),
                   min_size=1, max_size=10),
    gaps=st.lists(st.floats(min_value=0.0, max_value=50.0,
                            allow_nan=False, allow_infinity=False),
                  min_size=10, max_size=10),
    bandwidth=st.sampled_from([10.0, 125.0, 1250.0]),
    prop_delay=st.sampled_from([0.0, 0.1, 2.5]),
    header=st.sampled_from([0, 14, 40]),
    ppc=st.sampled_from([0.0, 0.05]),
    provider=st.sampled_from(["clan", "mvia"]),
    reliability=st.sampled_from(RELIABILITIES),
)
@settings(max_examples=80, deadline=None)
def test_burst_wire_recurrences_match_event_path(sizes, gaps, bandwidth,
                                                 prop_delay, header, ppc,
                                                 provider, reliability):
    """The uplink's FIFO drain (``start_k = max(emit_k, end_{k-1})``),
    the switch latency, the output port (cut-through backlog on clan,
    store-and-forward on mvia), the downlink and the ack's reverse path,
    all solved in the planner's one pass, land every message where the
    event path does, bit for bit, on any wire: messages of 1-4 fragments
    (1 KiB MTU) at ``flow`` fidelity, posted after drawn gaps so a
    burst meets lines still busy with the previous one."""
    spec = get_spec(provider)
    spec = spec.with_network(replace(
        spec.network, bandwidth=bandwidth, prop_delay=prop_delay,
        header_bytes=header, per_packet_cost=ppc))
    packet = _stream_run(spec, sizes, 1024, reliability, "packet",
                         gaps=gaps)
    flow = _stream_run(spec, sizes, 1024, reliability, "flow", gaps=gaps)
    assert flow.times == packet.times
    assert flow.counters == packet.counters
    assert packet.events_run == flow.events_run + flow.ff_events_skipped


# ---------------------------------------------------------------------------
# engine level: fidelity="auto" vs packet on a fragmented stream
# ---------------------------------------------------------------------------

@given(
    provider=st.sampled_from([*ALL_PROVIDERS, SMALL_TLB_BVIA]),
    size=st.integers(min_value=1, max_value=32_768),
    mtu=st.sampled_from([512, 1024, 2048, 4096]),
    frames=st.integers(min_value=2, max_value=64),
    reliability=st.sampled_from(RELIABILITIES),
    recv_offset=st.one_of(st.just(0), st.integers(min_value=1,
                                                  max_value=9_000)),
)
@settings(max_examples=40, deadline=None)
# fragments ending on page boundaries of an on-NIC table; an unaligned
# receive; mid-burst evictions at an unaligned offset
@example(provider="iba", size=8192, mtu=1024, frames=64,
         reliability=Reliability.UNRELIABLE, recv_offset=0)
@example(provider="clan", size=20_000, mtu=1024, frames=64,
         reliability=Reliability.RELIABLE_DELIVERY, recv_offset=3_000)
@example(provider=SMALL_TLB_BVIA, size=32_768, mtu=4096, frames=64,
         reliability=Reliability.RELIABLE_RECEPTION, recv_offset=1_000)
def test_stream_auto_bit_identical_to_packet(provider, size, mtu, frames,
                                             reliability, recv_offset):
    """Completions and every model counter survive fast-forward, with
    the receive segment page-aligned or at an unaligned offset inside a
    larger region, and with bvia's NIC TLB cut to 4 entries so LRU
    evictions happen mid-burst.  ``sim.ff_events_skipped`` is exactly
    the events the packet path ran beyond the fast-forwarded one."""
    sizes = [size] * 3
    packet = _stream_run(provider, sizes, mtu, reliability, "packet",
                         frames=frames, recv_offset=recv_offset)
    auto = _stream_run(provider, sizes, mtu, reliability, "auto",
                       frames=frames, recv_offset=recv_offset)
    assert auto.times == packet.times          # timestamps, bit for bit
    assert auto.counters == packet.counters    # NIC/DMA/TLB/wire/WQ
    assert packet.events_run == auto.events_run + auto.ff_events_skipped


@given(
    address=st.integers(min_value=0, max_value=1 << 40),
    seg_len=st.integers(min_value=0, max_value=70_000),
    offset=st.integers(min_value=0, max_value=80_000),
    size=st.one_of(st.just(0), st.integers(min_value=1, max_value=9_000)),
    page=st.sampled_from([512, 4096, 8192, 65_536]),
    cut=st.floats(min_value=0.0, max_value=1.0),
)
@settings(max_examples=300, deadline=None)
def test_fragment_page_arithmetic_matches_placement(address, seg_len,
                                                    offset, size, page,
                                                    cut):
    """The planner's page arithmetic for a single receive segment: a
    fragment of ``size`` bytes at message ``offset`` touches the pages
    from its first byte's to its last byte's (two integer divisions),
    none when it is empty or starts past the segment's end, and it is
    clipped at that end.  ``_placement_pages`` agrees, on the one
    segment and on the same span split in two; where the fragment lies
    inside the segment (as every planned one does) the page count is
    ``(a + size - 1) // page - a // page + 1``."""
    engine = SimpleNamespace(node=SimpleNamespace(
        mem=SimpleNamespace(page_size=page)))
    a = address + offset
    if size == 0 or offset >= seg_len:
        expected = []
    else:
        take = min(seg_len - offset, size)
        expected = list(range(a // page, (a + take - 1) // page + 1))
    one = Descriptor.recv([DataSegment(address, seg_len, None)])
    split = int(seg_len * cut)
    two = Descriptor.recv([DataSegment(address, split, None),
                           DataSegment(address + split, seg_len - split,
                                       None)])
    assert list(NicEngine._placement_pages(engine, one, offset,
                                           size)) == expected
    assert list(NicEngine._placement_pages(engine, two, offset,
                                           size)) == expected
    if size and offset + size <= seg_len:
        assert (a + size - 1) // page - a // page + 1 == len(expected)


@pytest.mark.parametrize("reliability", RELIABILITIES)
def test_flow_fidelity_single_fragment_messages(reliability):
    """``flow`` fast-forwards even unfragmented (n=1) sends losslessly."""
    packet = _stream_run("clan", [256] * 3, 4096, reliability, "packet",
                         frames=32)
    flow = _stream_run("clan", [256] * 3, 4096, reliability, "flow",
                       frames=32)
    assert flow[:2] == packet[:2]
    assert flow.ff_events_skipped > 0
    assert packet.events_run == flow.events_run + flow.ff_events_skipped


# ---------------------------------------------------------------------------
# stack level: differential signatures across fidelity modes
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("provider", ALL_PROVIDERS)
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_workload_signature_stable_across_fidelity(provider, workload):
    base = run_workload(provider, workload, check=False)
    for fidelity in ("auto", "flow"):
        ff = run_workload(provider, workload, check=False, fidelity=fidelity)
        assert ff == base, f"{provider}/{workload} diverged under {fidelity}"
