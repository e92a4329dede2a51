"""The NIC-side protocol engine shared by all simulated providers.

This module implements the data-transfer machinery: descriptor
dispatch, translation, DMA, fragmentation, wire transmission, receive
matching/placement, completion writeback, CQ notification, the three
reliability levels (local completion, delivery ack, reception ack),
NAK-driven retry, retransmission timers, and RDMA read/write.

Which costs are paid where is governed by the provider's
:class:`~repro.providers.costs.DesignChoices` — the same engine
reproduces M-VIA, Berkeley VIA and cLAN behaviour purely through those
knobs plus the provider's :class:`~repro.providers.costs.CostModel`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Generator, Iterable

from ..hw import link as _hwlink
from ..hw.link import Packet
from ..hw.memory import page_span
from ..hw.network import Switch
from ..hw.nic import NIC
from ..obs.metrics import DEFAULT_SIZE_BUCKETS
from ..sim import Event
from ..via.constants import (
    ACK_WIRE_BYTES,
    CompletionStatus,
    DescriptorOp,
    Reliability,
    ViState,
)
from ..via.descriptor import Descriptor
from ..via.errors import VipProtectionError
from ..via.vi import VI, WorkQueue
from .costs import (
    DataPath,
    DispatchKind,
    TableLocation,
    TranslationAgent,
    UnexpectedPolicy,
)

if TYPE_CHECKING:  # pragma: no cover
    from .base import SimulatedProvider

__all__ = [
    "DataFrag",
    "RdmaReadReq",
    "AckPayload",
    "NicEngine",
]

Op = Generator[Event, Any, Any]


# ---------------------------------------------------------------------------
# wire payloads
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DataFrag:
    """One fragment of a message, an RDMA write, or an RDMA read response."""

    src_vi: int
    dst_vi: int
    seq: int
    frag: int
    nfrags: int
    offset: int          # byte offset of this fragment within the message
    total_len: int
    data: bytes
    op: str              # "send" | "rdma_write" | "read_resp"
    immediate: int | None = None
    remote_addr: int | None = None    # rdma_write placement base
    remote_handle: int | None = None
    read_id: int | None = None        # read_resp correlation


@dataclass(frozen=True)
class RdmaReadReq:
    src_vi: int          # initiator VI (for the response)
    dst_vi: int          # target VI
    read_id: int
    remote_addr: int
    remote_handle: int
    length: int


@dataclass(frozen=True)
class AckPayload:
    dst_vi: int          # the *sender's* VI (where the send descriptor waits)
    seq: int
    kind: str            # "ack" | "nak_retry" | "nak_prot"


@dataclass
class _SendState:
    """Sender-side record of an un-acknowledged reliable message."""

    vi: VI
    desc: Descriptor
    frags: list[DataFrag]
    dst_node: str
    acked: bool = False
    retries: int = 0


@dataclass
class _RxState:
    """Receiver-side reassembly cursor for the in-flight message on a VI."""

    seq: int
    total_len: int
    nfrags: int
    desc: Descriptor | None          # bound receive descriptor (None = drop/buffer)
    buffer: bytearray | None
    #: fragment indices placed so far; a set (not a count) so that
    #: retransmitted or wire-duplicated fragments of the in-flight
    #: message are absorbed idempotently
    frags_seen: set = field(default_factory=set)
    status: CompletionStatus = CompletionStatus.SUCCESS
    immediate: int | None = None
    buffering: bool = False          # unexpected message being kernel-buffered


@dataclass
class _BufferedMsg:
    """A kernel-buffered unexpected message (BUFFER policy)."""

    data: bytes
    immediate: int | None
    total_len: int


def _finish_at(t: float, wq: WorkQueue, costs, choices) -> tuple[float, int]:
    """When :meth:`NicEngine._finish` begun at ``t`` ends, and how many
    timeouts it waits (one addition per timeout, as it issues them)."""
    t += costs.completion_write
    if wq.cq is not None and not choices.cq_in_hardware:
        return t + costs.cq_notify, 2
    return t, 1


_INF = float("inf")


def _wire_idle(ch) -> bool:
    """A loss-free channel with nothing on or queued for its line."""
    line = ch._line
    return ch.loss_rate == 0.0 and not line._in_use and not line._queue


# ---------------------------------------------------------------------------
# gather/scatter helpers (pure, time-free; DMA time is charged separately)
# ---------------------------------------------------------------------------

def gather(mem, desc: Descriptor) -> bytes:
    """Read a descriptor's gather list out of host memory."""
    parts = [mem.read(seg.address, seg.length) for seg in desc.segments if seg.length]
    return b"".join(parts)


def scatter(mem, desc: Descriptor, data: bytes) -> None:
    """Write ``data`` across a descriptor's scatter list, in order."""
    off = 0
    for seg in desc.segments:
        if off >= len(data):
            break
        chunk = data[off : off + seg.length]
        mem.write(seg.address, chunk)
        off += len(chunk)


def segment_pages(segments: Iterable, page_size: int) -> list[int]:
    """All virtual pages touched by a list of data segments."""
    pages: list[int] = []
    seen: set[int] = set()
    for seg in segments:
        if seg.length == 0:
            continue
        for p in page_span(seg.address, seg.length, page_size):
            if p not in seen:
                seen.add(p)
                pages.append(p)
    return pages


def fragment_sizes(total: int, mtu: int) -> list[int]:
    """Fragment byte counts for a message (always at least one fragment)."""
    full, rest = divmod(total, mtu)
    sizes = [mtu] * full
    if rest or not sizes:
        sizes.append(rest)
    return sizes


# ---------------------------------------------------------------------------
# the engine
# ---------------------------------------------------------------------------

class NicEngine:
    """Protocol engine bound to one provider/node."""

    def __init__(self, provider: "SimulatedProvider") -> None:
        self.p = provider
        self.sim = provider.sim
        self.node = provider.node
        self.nic = provider.node.nic
        self.costs = provider.costs
        self.choices = provider.choices
        self.nic.rx_handler = self.on_packet
        self._unacked: dict[tuple[int, int], _SendState] = {}
        self._pending_reads: dict[int, tuple[VI, Descriptor, bytearray, int]] = {}
        self._buffered: dict[int, list[_BufferedMsg]] = {}
        #: vi_id -> seq of a duplicate RDMA write whose fragments we skip
        self._rdma_skip: dict[int, int] = {}
        self._next_read_id = 1
        #: peer node -> _ff_route's answer (see there); cleared by
        #: Testbed.close(), as it holds the peer's engine
        self._ff_routes: dict[str, tuple | str] = {}
        #: virtual recv-engine occupancy left behind by an arithmetic
        #: burst: event-path rx processes arriving before this instant
        #: wait it out, as if the engine resource had been held for real.
        #: Stays 0.0 in pure packet mode.
        self._ff_rx_free = 0.0
        # observability
        self.messages_sent = 0
        self.messages_received = 0
        self.retransmissions = 0
        self.naks_sent = 0
        self.drops = 0
        self.dma_aborts = 0

    # -- small helpers -------------------------------------------------------
    @property
    def mtu(self) -> int:
        return self.p.mtu

    def _peer_node(self, vi: VI) -> str:
        assert vi.peer is not None
        return vi.peer[0]

    def _translate_pages(self, pages: list[int]) -> Op:
        """NIC-agent translation: TLB hits/misses with table fetches."""
        c = self.costs
        sim = self.sim
        if self.choices.table_location is TableLocation.NIC_MEMORY:
            # Full table on the NIC: every lookup is a hit by construction.
            if pages:
                d = c.tlb_hit * len(pages)
                if not sim.advance(d):
                    yield sim.timeout(d)
            return
        table = self.node.mem.page_table
        for vpage in pages:
            frame = self.nic.tlb.lookup(vpage)
            if frame is None:
                # fetch the entry from the host-resident table over the bus
                if not sim.advance(c.tlb_miss):
                    yield sim.timeout(c.tlb_miss)
                yield from self.nic.dma.transfer(c.tlb_entry_bytes)
                frame = table.translate(vpage)
                self.nic.tlb.insert(vpage, frame)
            elif not sim.advance(c.tlb_hit):
                yield sim.timeout(c.tlb_hit)

    def _finish(self, wq: WorkQueue, desc: Descriptor,
                status: CompletionStatus,
                length: int) -> tuple[()] | Op:
        """Complete a descriptor: status writeback + CQ deposit + wakeups.

        FIFO order is preserved by :meth:`WorkQueue.finish` — an
        out-of-order result is parked until everything ahead of it has
        finished.  Call it as ``yield from``: it returns ``()`` when both
        waits ran in place, else the queued rest."""
        c = self.costs
        sim = self.sim
        if not sim.advance(c.completion_write):
            return self._finish_queued(wq, desc, status, length, True)
        if (wq.cq is not None and not self.choices.cq_in_hardware
                and not sim.advance(c.cq_notify)):
            return self._finish_queued(wq, desc, status, length, False)
        self._complete(wq, desc, status, length)
        return ()

    def _finish_queued(self, wq: WorkQueue, desc: Descriptor,
                       status: CompletionStatus, length: int,
                       write: bool) -> Op:
        """The queued rest of :meth:`_finish`, from the writeback
        (``write``) or from the CQ notify."""
        c = self.costs
        sim = self.sim
        if write:
            yield sim.timeout(c.completion_write)
            notify = (wq.cq is not None and not self.choices.cq_in_hardware
                      and not sim.advance(c.cq_notify))
        else:
            notify = True
        if notify:
            yield sim.timeout(c.cq_notify)
        self._complete(wq, desc, status, length)

    def _complete(self, wq: WorkQueue, desc: Descriptor,
                  status: CompletionStatus, length: int) -> None:
        wq.finish(desc, status, length)
        sim = self.sim
        if sim.tracer is not None:
            sim.trace("via", "completed", self.node.name,
                      desc=desc.desc_id, queue=wq.kind, status=status.value)

    def _dma(self, nbytes: int) -> Op:
        """A data-movement DMA that an injected ``dma_abort`` fault can
        fail.  Returns False when the transfer aborted partway (the bus
        setup time is charged, nothing moves) — callers treat the
        fragment as lost, which the reliable levels recover via RTO/NAK.
        Control DMAs (descriptor fetches, table-entry fetches) and RDMA
        placement are not abortable in this model.
        """
        faults = self.sim.faults
        if faults is not None and faults.dma_abort(self.nic.name):
            self.dma_aborts += 1
            self.sim.trace("nic", "dma_abort", self.node.name)
            d = self.nic.dma.per_transfer_cost
            if not self.sim.advance(d):
                yield self.sim.timeout(d)
            return False
        yield from self.nic.dma.transfer(nbytes)
        return True

    def _tx_packet(self, dst_node: str, kind: str, size: int, payload) -> None:
        """Fire-and-forget transmission (a callback chain, FIFO behind others)."""
        pkt = Packet(src=self.node.name, dst=dst_node, kind=kind,
                     size=size, payload=payload)
        self.nic.launch(pkt)

    # =====================================================================
    # flow-level fast-forward (burst) path
    # =====================================================================
    #
    # At "auto"/"flow" fidelity, when a message's entire journey is
    # provably predictable — no tracer/faults/checker armed, loss-free
    # idle wires, an uncontended switch port, a connected peer with a
    # posted receive descriptor and no reassembly in flight — the
    # per-fragment event cascade (DMA, tx, serialise, switch, port, rx
    # engine, translate, placement, ack) collapses into closed-form
    # recurrences.  :meth:`_plan_burst` solves every timestamp in one
    # scalar pass over the fragments, every stage's recurrence advancing
    # with the others, without mutating state (the receiver TLB walk is
    # snapshot/restored).  Once nothing can decline it commits counters
    # in bulk, leaves virtual-occupancy watermarks on every resource
    # touched so concurrent event-path traffic still queues behind the
    # burst, and schedules only the completion writebacks as real
    # events; the send engine is then held for the burst's tx window.
    # Anything the plan cannot prove falls back to the packet path,
    # which stays bit-identical to the pre-burst model; each fallback
    # counts its reason as ``sim.ff.decline.<reason>``.

    def _ff_decline(self, reason: str) -> None:
        """Count one declined plan as ``sim.ff.decline.<reason>``; the
        message then takes the packet path."""
        declines = self.sim.ff_declines
        declines[reason] = declines.get(reason, 0) + 1

    def _ff_route(self, vi: VI):
        """The hardware objects a burst plan needs on the wire paths to
        ``vi``'s peer and back, or None (with its decline counted) when
        the topology is anything the arithmetic model does not cover.

        The topology is fixed once the testbed is built, so each peer
        node's answer is resolved once and kept; a kept decline is
        counted again on every attempt, as a fresh resolution would."""
        if vi.peer is None:
            return self._ff_decline("route_detached")
        dst = vi.peer[0]
        route = self._ff_routes.get(dst)
        if route is None:
            route = self._ff_routes[dst] = self._resolve_route(dst)
        if route.__class__ is str:
            return self._ff_decline(route)
        return route

    def _resolve_route(self, dst: str) -> tuple | str:
        """Resolve forward and reverse wire paths to ``dst`` through a
        flat Fabric; a string names why the model does not cover them
        (tiered fabrics, detached ports, unexpected sinks)."""
        up = self.nic.port
        if up is None:
            return "route_detached"
        switch = getattr(up.sink, "__self__", None)
        if not isinstance(switch, Switch):
            return "route_not_flat"
        down = switch._downlinks.get(dst)
        oport = switch._ports.get(dst)
        if down is None or oport is None:
            return "route_no_peer_port"
        peer_nic = getattr(down.sink, "__self__", None)
        if not isinstance(peer_nic, NIC) or peer_nic.port is None:
            return "route_peer_not_nic"
        peer_eng = getattr(peer_nic.rx_handler, "__self__", None)
        if not isinstance(peer_eng, NicEngine):
            return "route_peer_not_engine"
        peer_up = peer_nic.port
        if getattr(peer_up.sink, "__self__", None) is not switch:
            return "route_peer_uplink"
        sdown = switch._downlinks.get(self.node.name)
        sport = switch._ports.get(self.node.name)
        if sdown is None or sport is None:
            return "route_no_return_port"
        if getattr(sdown.sink, "__self__", None) is not self.nic:
            return "route_return_sink"
        return (up, switch, oport, down, peer_nic, peer_eng,
                peer_up, sport, sdown)

    def _plan_burst(self, vi: VI, desc: Descriptor, data: bytes, seq: int,
                    sizes: list[int]) -> float | None:
        """Solve the whole message arithmetically and commit it; returns
        when the send engine's tx window ends.  None = fall back: the
        decline is counted and no model state has changed.

        Works from the message geometry alone (``seq``, the fragment
        ``sizes`` and the gathered ``data``): no :class:`DataFrag` is
        built unless the plan declines and the packet path runs."""
        sim = self.sim
        n = len(sizes)
        if n < 2 and sim.fidelity != "flow":
            return self._ff_decline("single_fragment")
        if desc.op is DescriptorOp.RDMA_WRITE:
            return self._ff_decline("rdma_write")
        if (sim.tracer is not None or sim.faults is not None
                or sim.checker is not None):
            return self._ff_decline("hooks_armed")
        reliable = vi.reliability is not Reliability.UNRELIABLE
        if reliable and self.p._recovery_armed:
            return self._ff_decline("recovery_armed")
        route = self._ff_route(vi)
        if route is None:
            return None  # _ff_route counted its own reason
        (up, switch, oport, down, peer_nic, peer_eng,
         peer_up, sport, sdown) = route
        peer_vi = peer_eng.p.vis.get(vi.peer[1])
        if (peer_vi is None or not peer_vi.is_connected
                or peer_vi.rx_state is not None
                or peer_vi.expected_rx_seq != seq
                or peer_eng.has_buffered(peer_vi)
                or peer_vi.recv_q.claimable == 0):
            return self._ff_decline("peer_not_ready")
        rdesc = peer_vi.recv_q._claimable[0]
        total_len = len(data)
        if total_len > rdesc.total_length:
            return self._ff_decline("recv_too_small")

        dma = self.nic.dma
        pdma = peer_nic.dma
        if not (_wire_idle(up) and _wire_idle(down)):
            return self._ff_decline("wire_busy")
        if (dma._bus._in_use or dma._bus._queue
                or pdma._bus._in_use or pdma._bus._queue):
            return self._ff_decline("dma_busy")
        rx = peer_nic.recv_engine
        if rx._in_use or rx._queue:
            return self._ff_decline("peer_rx_busy")
        if reliable:
            if not (_wire_idle(peer_up) and _wire_idle(sdown)):
                return self._ff_decline("ack_wire_busy")
            rx = self.nic.recv_engine
            if rx._in_use or rx._queue:
                return self._ff_decline("ack_rx_busy")
        if not oport.cut_through and n > oport.capacity_frames:
            return self._ff_decline("port_capacity")

        # One scalar pass over the fragments: each stage's recurrence
        # advances with the others.  Every one replays the event path's
        # float operations in the same order and association (a wait
        # ends at ``start + d``, ``d`` computed as its timeout or hold
        # computes it), so each timestamp is bit-identical to the packet
        # path's.  ``steps`` counts the queue entries the packet path
        # runs beyond the burst's own: per fragment 3 at the sender (DMA
        # grant and firing, tx cost), 9 on the wire (launch record,
        # uplink grant and firing, delivery, arbiter flush, switch
        # latency, downlink grant and firing, delivery) and 6 at the
        # receiver (process boot, engine grant and firing, placement DMA
        # grant and firing, process end), plus each port wait and
        # translation step.
        c = self.costs
        rc = peer_eng.costs
        rch = peer_eng.choices
        t0 = sim._now
        dma_free = dma._ff_busy_until
        tx_cost = c.nic_tx_per_frag
        up_free = up._ff_busy_until
        up_prop = up.prop_delay
        sw_lat = switch.params.switch_latency
        cut_through = oport.cut_through
        backlog = oport._backlog
        last = oport._last_at
        max_backlog = oport.max_backlog_us
        buffer_us = oport._buffer_us
        contended = backpressured = 0
        down_free = down._ff_busy_until
        down_prop = down.prop_delay
        r_free = peer_eng._ff_rx_free
        rx_cost = rc.nic_rx_per_frag
        pdma_free = pdma._ff_busy_until
        translate_on = (rch.translation_agent is TranslationAgent.NIC
                        and rch.data_path is DataPath.ZERO_COPY)
        host_table = rch.table_location is not TableLocation.NIC_MEMORY
        tlb_hit = rc.tlb_hit
        tlb_miss = rc.tlb_miss
        ptlb = peer_nic.tlb
        horizon = sim.ff_horizon()
        snap = None
        if translate_on and host_table:
            # the LRU walk below mutates the real cache so hit/miss
            # sequencing is exact; restored verbatim on a late decline,
            # which only a bounded run or an ack through a cut-through
            # return port can bring
            if horizon != _INF or (reliable and sport.cut_through):
                snap = (ptlb._cache.copy(), ptlb.hits, ptlb.misses,
                        ptlb.evictions)
            ptable = peer_eng.node.mem.page_table
            fetch = pdma.transfer_time(rc.tlb_entry_bytes)
        # a single receive segment places each fragment contiguously at
        # its address plus the fragment's offset
        segs = rdesc.segments
        base = segs[0].address if len(segs) == 1 else None
        page_size = peer_eng.node.mem.page_size
        steps = 18 * n
        misses = 0
        offset = 0
        e = t0
        frag_size = -1
        for size in sizes:
            if size != frag_size:
                # every fragment but the last has one size: its durations
                frag_size = size
                dma_d = dma.transfer_time(size)
                up_d = (up.per_packet_cost
                        + (size + up.header_bytes) / up.bandwidth)
                port_d = (size + oport._header_bytes) / oport._line_rate
                down_d = (down.per_packet_cost
                          + (size + down.header_bytes) / down.bandwidth)
                pdma_d = pdma.transfer_time(size)
            # sender engine: DMA fetch, then the tx cost
            if dma_free > e:
                e = dma_free
            dma_free = e + dma_d
            e = dma_free + tx_cost
            # uplink serialisation, propagation, switch latency
            t = e if e > up_free else up_free
            up_free = t + up_d
            t = up_free + up_prop + sw_lat
            # a store-and-forward port adds no delay (queueing is the
            # downlink's, and port_capacity above rules out a tail-drop)
            if cut_through:
                # the output port's backlog recurrence; the uplink spaces
                # the burst's own arrivals, so only the first can precede
                # a frame the port accounted earlier (an interleave)
                if last > t:
                    return self._ff_decline("port_backlog")
                b = backlog - (t - last)
                if b < 0.0:
                    b = 0.0
                last = t
                backlog = b + port_d
                if b > 0.0:
                    contended += 1
                    if b > max_backlog:
                        max_backlog = b
                    if b > buffer_us:
                        backpressured += 1
                    t += b
            # downlink serialisation and propagation
            if down_free > t:
                t = down_free
            down_free = t + down_d
            t = down_free + down_prop
            # receiver engine: rx cost, translation, placement DMA
            if r_free > t:
                t = r_free
            t += rx_cost
            if not translate_on:
                pass
            elif host_table:
                if base is None:
                    pages = peer_eng._placement_pages(rdesc, offset, size)
                elif size:
                    a = base + offset
                    pages = range(a // page_size,
                                  (a + size - 1) // page_size + 1)
                else:
                    pages = ()
                for vpage in pages:
                    steps += 1
                    if ptlb.lookup(vpage) is None:
                        # fetch the entry over the bus (2 more steps)
                        misses += 1
                        t += tlb_miss
                        if pdma_free > t:
                            t = pdma_free
                        t += fetch
                        pdma_free = t
                        ptlb.insert(vpage, ptable.translate(vpage))
                    else:
                        t += tlb_hit
            else:
                # the table is on the NIC, so every lookup hits and only
                # the page count matters
                if base is None:
                    npages = len(peer_eng._placement_pages(rdesc, offset,
                                                           size))
                elif size:
                    a = base + offset
                    npages = (a + size - 1) // page_size - a // page_size + 1
                else:
                    npages = 0
                if npages:
                    t += tlb_hit * npages
                    steps += 1
            if pdma_free > t:
                t = pdma_free
            t += pdma_d
            pdma_free = r_free = t
            offset += size
        steps += contended + 2 * misses

        def _restore_tlb() -> None:
            if snap is not None:
                ptlb._cache, ptlb.hits, ptlb.misses, ptlb.evictions = snap

        # -- last fragment: ack emission + receiver completion ------------
        t = r_free
        ack_emit = 0.0
        if vi.reliability is Reliability.RELIABLE_DELIVERY:
            t += rc.ack_tx
            ack_emit = t
        t, n_finish = _finish_at(t, peer_vi.recv_q, rc, rch)
        recv_complete_at = t
        steps += n_finish - 2  # less the burst's hold and completion
        if vi.reliability is Reliability.RELIABLE_RECEPTION:
            t += rc.ack_tx
            ack_emit = t
        r_free = t
        # -- reverse path: the ack frame back to the sender ---------------
        t_end = recv_complete_at
        if reliable:
            a_free = peer_up._ff_busy_until
            ta = ack_emit if ack_emit > a_free else a_free
            a_free = ta + (peer_up.per_packet_cost
                           + (ACK_WIRE_BYTES + peer_up.header_bytes)
                           / peer_up.bandwidth)
            ta = a_free + peer_up.prop_delay + sw_lat
            s_backlog = sport._backlog
            s_last = sport._last_at
            s_max = sport.max_backlog_us
            s_contended = s_backpressured = 0
            if sport.cut_through:
                if s_last > ta:
                    _restore_tlb()
                    return self._ff_decline("ack_port_backlog")
                b = s_backlog - (ta - s_last)
                if b < 0.0:
                    b = 0.0
                s_last = ta
                s_backlog = b + ((ACK_WIRE_BYTES + sport._header_bytes)
                                 / sport._line_rate)
                if b > 0.0:
                    s_contended = 1
                    if b > s_max:
                        s_max = b
                    if b > sport._buffer_us:
                        s_backpressured = 1
                    ta += b
            sd_free = sdown._ff_busy_until
            if sd_free > ta:
                ta = sd_free
            sd_free = ta + (sdown.per_packet_cost
                            + (ACK_WIRE_BYTES + sdown.header_bytes)
                            / sdown.bandwidth)
            ta = sd_free + sdown.prop_delay
            if self._ff_rx_free > ta:
                ta = self._ff_rx_free
            ta += c.ack_rx
            snd_rx_free = ta
            send_complete_at, n_finish = _finish_at(ta, vi.send_q, c,
                                                    self.choices)
            # ack tx cost, the frame's 9 wire entries and any port wait,
            # the rx-ack process (boot, engine grant and firing, end) and
            # its completion, less the burst's send completion
            steps += 1 + 9 + s_contended + 4 + n_finish - 1
            if send_complete_at > t_end:
                t_end = send_complete_at
        if t_end > horizon:
            # a bounded run would have cut the cascade mid-flight; the
            # packet path reproduces the truncated state exactly
            _restore_tlb()
            return self._ff_decline("run_horizon")

        # -- commit: counters, watermarks, the completions as events ------
        # packet-id parity with the event path (no Packet objects)
        _hwlink._packet_ids.next_value += n + (1 if reliable else 0)
        self.nic.note_tx_burst(n)
        dma.note_burst(n, total_len, dma_free)
        up.note_burst(n, total_len, up_free)
        switch.forwarded += n
        oport.note_burst(n, backlog, last, contended, backpressured,
                         max_backlog)
        down.note_burst(n, total_len, down_free)
        peer_nic.note_rx_burst(n)
        peer_eng.messages_received += 1
        if sim.metrics is not None:
            sim.metrics.observe(f"via.{peer_eng.node.name}.msg_recv_bytes",
                                total_len, DEFAULT_SIZE_BUCKETS)
        pdma.note_burst(n + misses, total_len + misses * rc.tlb_entry_bytes,
                        pdma_free)
        peer_vi.expected_rx_seq = seq + 1
        claimed = peer_vi.recv_q.claim()
        assert claimed is rdesc
        peer_eng._ff_rx_free = r_free
        if reliable:
            peer_nic.note_tx_burst(1)
            peer_up.note_burst(1, ACK_WIRE_BYTES, a_free)
            switch.forwarded += 1
            sport.note_burst(1, s_backlog, s_last, s_contended,
                             s_backpressured, s_max)
            sdown.note_burst(1, ACK_WIRE_BYTES, sd_free)
            self.nic.note_rx_burst(1)
            self._ff_rx_free = snd_rx_free
        immediate = desc.control.immediate

        def complete_recv(_ev) -> None:
            scatter(peer_eng.node.mem, rdesc, data)
            rdesc.control.immediate = immediate
            peer_vi.recv_q.finish(rdesc, CompletionStatus.SUCCESS,
                                  total_len)

        sim.timeout(recv_complete_at - t0).callbacks.append(complete_recv)
        if reliable:
            def complete_send(_ev) -> None:
                vi.send_q.finish(desc, CompletionStatus.SUCCESS,
                                 desc.total_length)

            sim.timeout(send_complete_at - t0).callbacks.append(complete_send)
        sim.note_fast_forward(t0, t_end, steps)
        return e

    # =====================================================================
    # send path
    # =====================================================================

    def send_message(self, vi: VI, desc: Descriptor) -> Op:
        """Process one posted send/RDMA descriptor (runs as a process)."""
        c = self.costs
        ch = self.choices
        sim = self.sim
        if sim.tracer is not None:
            sim.trace("nic", "send_queued", self.node.name,
                      vi=vi.vi_id, desc=desc.desc_id)
        engine = self.nic.send_engine
        yield engine.request()
        try:
            if sim.tracer is not None:
                sim.trace("nic", "engine_acquired", self.node.name,
                          vi=vi.vi_id, desc=desc.desc_id)
            if ch.dispatch is DispatchKind.POLLED:
                # firmware scans every open VI's queue before finding ours
                d = c.nic_dispatch_per_vi * self.p.open_vi_count
                if not sim.advance(d):
                    yield sim.timeout(d)
            if ch.data_path is DataPath.ZERO_COPY:
                yield from self.nic.dma.transfer(c.desc_fetch_bytes)
            extra_segs = max(0, len(desc.segments) - 1)
            d = c.nic_desc_fetch + c.nic_per_segment * extra_segs
            if not sim.advance(d):
                yield sim.timeout(d)

            if desc.op is DescriptorOp.RDMA_READ:
                yield from self._issue_rdma_read(vi, desc)
                return  # completion arrives with the response

            if sim.tracer is not None:
                sim.trace("nic", "desc_fetched", self.node.name,
                          vi=vi.vi_id, desc=desc.desc_id)
            if (ch.translation_agent is TranslationAgent.NIC
                    and ch.data_path is DataPath.ZERO_COPY):
                pages = segment_pages(desc.segments, self.node.mem.page_size)
                yield from self._translate_pages(pages)
            if sim.tracer is not None:
                sim.trace("nic", "tx_translated", self.node.name,
                          vi=vi.vi_id, desc=desc.desc_id)

            chk = sim.checker
            if chk is not None:
                chk.on_local_dma(self.p, vi, desc)
            data = gather(self.node.mem, desc)
            seq = vi.next_send_seq
            vi.next_send_seq += 1
            sizes = fragment_sizes(len(data), self.mtu)
            tx_end = (self._plan_burst(vi, desc, data, seq, sizes)
                      if sim.fidelity != "packet" else None)
            if tx_end is not None:
                # a committed burst: hold the engine for its tx window
                hold = tx_end - sim._now
                if not sim.advance(hold):
                    yield sim.timeout(hold)
            else:
                frags = self._build_frags(vi, desc, data, seq, sizes)
                reliable = vi.reliability is not Reliability.UNRELIABLE
                if reliable:
                    state = _SendState(vi, desc, frags, self._peer_node(vi))
                    self._unacked[(vi.vi_id, frags[0].seq)] = state
                    if self.p._recovery_armed:
                        sim.process(self._retransmit_timer(state),
                                         name=f"rto-vi{vi.vi_id}")
                for frag in frags:
                    ok = yield from self._dma(len(frag.data))
                    if not ok:
                        continue  # fragment lost at the I/O bus
                    if not sim.advance(c.nic_tx_per_frag):
                        yield sim.timeout(c.nic_tx_per_frag)
                    if sim.tracer is not None:
                        sim.trace("nic", "frag_out", self.node.name,
                                  vi=vi.vi_id, seq=frag.seq, frag=frag.frag)
                    self._tx_packet(self._peer_node(vi), "via-data",
                                    len(frag.data), frag)
            self.messages_sent += 1
            metrics = sim.metrics
            if metrics is not None:
                metrics.observe(f"via.{self.node.name}.msg_sent_bytes",
                                desc.total_length, DEFAULT_SIZE_BUCKETS)
        finally:
            engine.release()
        if vi.reliability is Reliability.UNRELIABLE:
            # local completion: data is out of the user buffer
            yield from self._finish(vi.send_q, desc,
                                    CompletionStatus.SUCCESS, desc.total_length)

    def _build_frags(self, vi: VI, desc: Descriptor, data: bytes, seq: int,
                     sizes: list[int]) -> list[DataFrag]:
        assert vi.peer is not None
        op = "rdma_write" if desc.op is DescriptorOp.RDMA_WRITE else "send"
        frags = []
        offset = 0
        for i, size in enumerate(sizes):
            frags.append(
                DataFrag(
                    src_vi=vi.vi_id,
                    dst_vi=vi.peer[1],
                    seq=seq,
                    frag=i,
                    nfrags=len(sizes),
                    offset=offset,
                    total_len=len(data),
                    data=data[offset : offset + size],
                    op=op,
                    immediate=desc.control.immediate,
                    remote_addr=(desc.address_segment.address
                                 if desc.address_segment else None),
                    remote_handle=(desc.address_segment.remote_handle_id
                                   if desc.address_segment else None),
                )
            )
            offset += size
        return frags

    def _issue_rdma_read(self, vi: VI, desc: Descriptor) -> Op:
        assert vi.peer is not None and desc.address_segment is not None
        read_id = self._next_read_id
        self._next_read_id += 1
        length = desc.total_length
        self._pending_reads[read_id] = (vi, desc, bytearray(length), 0)
        req = RdmaReadReq(
            src_vi=vi.vi_id,
            dst_vi=vi.peer[1],
            read_id=read_id,
            remote_addr=desc.address_segment.address,
            remote_handle=desc.address_segment.remote_handle_id,
            length=length,
        )
        if not self.sim.advance(self.costs.nic_tx_per_frag):
            yield self.sim.timeout(self.costs.nic_tx_per_frag)
        self._tx_packet(vi.peer[0], "via-read", ACK_WIRE_BYTES, req)

    def _retransmit_timer(self, state: _SendState) -> Op:
        c = self.costs
        while not state.acked and state.retries < c.max_retries:
            if not self.sim.advance(c.rto):
                yield self.sim.timeout(c.rto)
            if state.acked:
                return
            state.retries += 1
            yield from self._resend(state)
        if not state.acked:
            yield from self._transport_failure(state)

    def _transport_failure(self, state: _SendState) -> Op:
        """Retries exhausted: the connection is broken (VIA semantics).

        The failing descriptor completes with TRANSPORT_ERROR, the VI
        transitions to the ERROR state, and everything else still posted
        on it is flushed — a catastrophic error is a connection-level
        event, not a per-descriptor one."""
        vi = state.vi
        self._unacked.pop((vi.vi_id, state.frags[0].seq), None)
        yield from self._finish(vi.send_q, state.desc,
                                CompletionStatus.TRANSPORT_ERROR, 0)
        if vi.state is ViState.CONNECTED:
            vi.to_state(ViState.ERROR)
            # drop every other pending reliable message on this VI
            for key in [k for k in self._unacked if k[0] == vi.vi_id]:
                self._unacked[key].acked = True  # silence its timer
                del self._unacked[key]
            vi.send_q.flush()
            vi.recv_q.flush()
            self.p.post_async_error(
                vi, detail=f"retries exhausted after {state.retries} attempts"
            )

    def _resend(self, state: _SendState) -> Op:
        c = self.costs
        chk = self.sim.checker
        if chk is not None:
            chk.on_retransmit(state.vi)
        self.retransmissions += 1
        yield self.nic.send_engine.request()
        try:
            for frag in state.frags:
                ok = yield from self._dma(len(frag.data))
                if not ok:
                    continue  # lost again; the next retry covers it
                if not self.sim.advance(c.nic_tx_per_frag):
                    yield self.sim.timeout(c.nic_tx_per_frag)
                self._tx_packet(state.dst_node, "via-data", len(frag.data), frag)
        finally:
            self.nic.send_engine.release()

    # =====================================================================
    # receive path
    # =====================================================================

    def on_packet(self, pkt: Packet) -> None:
        """NIC rx_handler: dispatch by payload type."""
        pl = pkt.payload
        if isinstance(pl, DataFrag):
            self.sim.process(self._rx_data(pl), name="rx-data")
        elif isinstance(pl, AckPayload):
            self.sim.process(self._rx_ack(pl), name="rx-ack")
        elif isinstance(pl, RdmaReadReq):
            self.sim.process(self._rx_read_req(pl), name="rx-read")
        else:
            # connection-management traffic is handled by the provider
            self.p.handle_control_packet(pl)

    def _ff_rx_gate(self) -> Op:
        """Queue behind a burst's virtual recv-engine occupancy (callers
        skip it while ``_ff_rx_free`` is 0.0, as in pure packet mode)."""
        wait = self._ff_rx_free - self.sim._now
        if wait > 0.0 and not self.sim.advance(wait):
            yield self.sim.timeout(wait)

    def _rx_data(self, pl: DataFrag) -> Op:
        c = self.costs
        if self._ff_rx_free > 0.0:
            yield from self._ff_rx_gate()
        engine = self.nic.recv_engine
        if not engine.advance_hold(c.nic_rx_per_frag):
            hold = engine.hold(c.nic_rx_per_frag)
            try:
                yield hold
            except BaseException:
                hold.abandon()
                raise
        try:
            sim = self.sim
            if sim.tracer is not None:
                sim.trace("nic", "frag_in", self.node.name,
                          vi=pl.dst_vi, seq=pl.seq, frag=pl.frag)
            vi = self.p.vis.get(pl.dst_vi)
            if vi is None or not vi.is_connected:
                self.drops += 1
                return
            if pl.op == "read_resp":
                yield from self._rx_read_resp(pl)
            elif pl.op == "rdma_write":
                yield from self._rx_rdma_write(vi, pl)
            else:
                yield from self._rx_send(vi, pl)
        finally:
            engine.release()

    # -- ordinary sends ---------------------------------------------------
    def _rx_send(self, vi: VI, pl: DataFrag) -> Op:
        c = self.costs
        st: _RxState | None = vi.rx_state
        if pl.frag == 0:
            if st is not None and st.seq == pl.seq:
                # retransmitted (or wire-duplicated) first fragment of
                # the in-flight message: resume reassembly — the
                # frags_seen set and idempotent placement absorb the
                # replayed fragments without re-binding a descriptor
                pass
            elif self._duplicate(vi, pl):
                return
            elif (st is not None
                    and vi.reliability is not Reliability.UNRELIABLE):
                # the next message arrived while an earlier reassembly
                # still has a hole (a fragment lost at placement): binding
                # it would orphan the claimed descriptor and the resend of
                # the older message would then be mis-filtered as a
                # duplicate.  In-order delivery must finish the in-flight
                # message first, so NAK this one like any future seq.
                self.naks_sent += 1
                self.drops += 1
                self.sim.process(self._nak_later(vi, pl.seq), name="nak-hole")
                return
            else:
                st = self._bind_rx(vi, pl)
                vi.rx_state = st
        if st is None or st.seq != pl.seq:
            # stale fragment of a dropped/retried message
            self.drops += 1
            return
        if pl.frag in st.frags_seen:
            self.drops += 1
            return
        # placement (skipped when dropping or when a length error occurred)
        if st.buffer is not None and st.status is CompletionStatus.SUCCESS:
            if (self.choices.translation_agent is TranslationAgent.NIC
                    and self.choices.data_path is DataPath.ZERO_COPY
                    and st.desc is not None):
                pages = self._placement_pages(st.desc, pl.offset, len(pl.data))
                yield from self._translate_pages(pages)
            ok = yield from self._dma(len(pl.data))
            if not ok:
                return  # placement failed: fragment effectively lost
            st.buffer[pl.offset : pl.offset + len(pl.data)] = pl.data
        st.frags_seen.add(pl.frag)
        if len(st.frags_seen) < pl.nfrags:
            return
        # ---- last fragment: message is complete ----
        vi.rx_state = None
        self.messages_received += 1
        metrics = self.sim.metrics
        if metrics is not None:
            metrics.observe(f"via.{self.node.name}.msg_recv_bytes",
                            st.total_len, DEFAULT_SIZE_BUCKETS)
        reliable = vi.reliability is not Reliability.UNRELIABLE
        if reliable and vi.reliability is Reliability.RELIABLE_DELIVERY:
            yield from self._send_ack(vi, pl.seq, "ack")
        if st.buffering:
            self._buffered.setdefault(vi.vi_id, []).append(
                _BufferedMsg(bytes(st.buffer or b""), st.immediate, st.total_len)
            )
            self.p.notify_buffered(vi)
        elif st.desc is not None:
            if st.status is CompletionStatus.SUCCESS and st.buffer is not None:
                chk = self.sim.checker
                if chk is not None:
                    chk.on_local_dma(self.p, vi, st.desc)
                scatter(self.node.mem, st.desc, bytes(st.buffer))
                st.desc.control.immediate = st.immediate
            length = st.total_len if st.status is CompletionStatus.SUCCESS else 0
            yield from self._finish(vi.recv_q, st.desc, st.status, length)
        if reliable and vi.reliability is Reliability.RELIABLE_RECEPTION:
            yield from self._send_ack(vi, pl.seq, "ack")

    def _duplicate(self, vi: VI, pl: DataFrag) -> bool:
        """Exactly-once filtering: a retransmission of an already-accepted
        message must not consume another descriptor.  Re-ack it so the
        sender (whose ack was evidently lost) can complete.

        Also rejects *future* messages on reliable VIs: if seq N was
        lost (or NAKed) while seq N+1 was already in flight, accepting
        N+1 early would deliver out of order and later filter the
        retransmission of N as a duplicate — losing N while acking it.
        Reliable levels must deliver in order, so N+1 is NAKed and the
        sender retransmits it once N has gone through."""
        if pl.seq >= vi.expected_rx_seq:
            if (pl.seq > vi.expected_rx_seq
                    and vi.reliability is not Reliability.UNRELIABLE):
                self.naks_sent += 1
                self.drops += 1
                self.sim.process(self._nak_later(vi, pl.seq), name="nak-ooo")
                return True
            return False
        if vi.reliability is not Reliability.UNRELIABLE:
            self.sim.process(self._send_ack(vi, pl.seq, "ack"), name="re-ack")
        self.drops += 1
        return True

    def _bind_rx(self, vi: VI, pl: DataFrag) -> _RxState | None:
        """First fragment of a message: match it to a receive descriptor."""
        desc = vi.recv_q.claim()
        if desc is None:
            return self._unexpected(vi, pl)
        vi.expected_rx_seq = pl.seq + 1
        chk = self.sim.checker
        if chk is not None:
            chk.on_deliver(vi, pl.seq)
        st = _RxState(seq=pl.seq, total_len=pl.total_len, nfrags=pl.nfrags,
                      desc=desc, buffer=bytearray(pl.total_len),
                      immediate=pl.immediate)
        if pl.total_len > desc.total_length:
            st.status = CompletionStatus.LENGTH_ERROR
            st.buffer = None
        return st

    def _unexpected(self, vi: VI, pl: DataFrag) -> _RxState | None:
        """No receive descriptor posted: DROP, BUFFER, or NAK-retry.

        Only the NAK path leaves ``expected_rx_seq`` alone — the sender
        will retransmit the same sequence number and it must then be
        accepted, not filtered as a duplicate."""
        if vi.reliability is not Reliability.UNRELIABLE:
            # reliable modes: the sender must retry until a descriptor shows up
            self.naks_sent += 1
            self.sim.process(self._nak_later(vi, pl.seq), name="nak")
            return None
        vi.expected_rx_seq = pl.seq + 1
        if self.choices.unexpected is UnexpectedPolicy.BUFFER:
            chk = self.sim.checker
            if chk is not None:
                chk.on_deliver(vi, pl.seq)
            return _RxState(seq=pl.seq, total_len=pl.total_len, nfrags=pl.nfrags,
                            desc=None, buffer=bytearray(pl.total_len),
                            immediate=pl.immediate, buffering=True)
        self.drops += 1
        return _RxState(seq=pl.seq, total_len=pl.total_len, nfrags=pl.nfrags,
                        desc=None, buffer=None)

    def _nak_later(self, vi: VI, seq: int) -> Op:
        if not self.sim.advance(self.costs.ack_tx):
            yield self.sim.timeout(self.costs.ack_tx)
        yield from self._send_ack_now(vi, seq, "nak_retry")

    def _placement_pages(self, desc: Descriptor, offset: int, length: int) -> list[int]:
        """Pages touched when placing ``length`` bytes at message ``offset``."""
        if length == 0:
            return []
        segments = desc.segments
        if len(segments) == 1:
            # one contiguous span: no page repeats, nothing to dedupe
            seg = segments[0]
            if offset >= seg.length:
                return []
            return list(page_span(seg.address + offset,
                                  min(seg.length - offset, length),
                                  self.node.mem.page_size))
        pages: list[int] = []
        seen: set[int] = set()
        remaining_off = offset
        remaining_len = length
        for seg in desc.segments:
            if remaining_len <= 0:
                break
            if remaining_off >= seg.length:
                remaining_off -= seg.length
                continue
            start = seg.address + remaining_off
            take = min(seg.length - remaining_off, remaining_len)
            for p in page_span(start, take, self.node.mem.page_size):
                if p not in seen:
                    seen.add(p)
                    pages.append(p)
            remaining_len -= take
            remaining_off = 0
        return pages

    # -- RDMA write -----------------------------------------------------------
    def _rx_rdma_write(self, vi: VI, pl: DataFrag) -> Op:
        c = self.costs
        assert pl.remote_addr is not None and pl.remote_handle is not None
        if pl.frag == 0:
            if self._duplicate(vi, pl):
                if pl.nfrags > 1:
                    self._rdma_skip[vi.vi_id] = pl.seq
                return
            self._rdma_skip.pop(vi.vi_id, None)
            vi.expected_rx_seq = pl.seq + 1
            chk = self.sim.checker
            if chk is not None:
                chk.on_deliver(vi, pl.seq)
        elif self._rdma_skip.get(vi.vi_id) == pl.seq:
            if pl.frag + 1 == pl.nfrags:
                del self._rdma_skip[vi.vi_id]
            return
        try:
            self.p.registry.check_rdma_target(
                pl.remote_addr + pl.offset, len(pl.data), pl.remote_handle,
                write=True,
            )
        except VipProtectionError:
            yield from self._send_ack(vi, pl.seq, "nak_prot")
            self.drops += 1
            return
        if self.choices.translation_agent is TranslationAgent.NIC:
            base = pl.remote_addr + pl.offset
            pages = list(page_span(base, max(len(pl.data), 1),
                                   self.node.mem.page_size))
            yield from self._translate_pages(pages)
        yield from self.nic.dma.transfer(len(pl.data))
        if pl.data:
            chk = self.sim.checker
            if chk is not None:
                chk.on_rdma_dma(self.p, pl.remote_addr + pl.offset,
                                len(pl.data), pl.remote_handle, write=True)
            self.node.mem.write(pl.remote_addr + pl.offset, pl.data)
        if pl.frag + 1 < pl.nfrags:
            return
        # last fragment of the RDMA write
        self.messages_received += 1
        if vi.reliability is not Reliability.UNRELIABLE:
            yield from self._send_ack(vi, pl.seq, "ack")
        if pl.immediate is not None:
            # immediate-data RDMA write consumes a receive descriptor
            desc = vi.recv_q.claim()
            if desc is not None:
                desc.control.immediate = pl.immediate
                yield from self._finish(vi.recv_q, desc,
                                        CompletionStatus.SUCCESS, pl.total_len)
            elif vi.reliability is Reliability.UNRELIABLE:
                self.drops += 1

    # -- RDMA read -------------------------------------------------------------
    def _rx_read_req(self, pl: RdmaReadReq) -> Op:
        """Target side of an RDMA read: stream the data back."""
        c = self.costs
        if self._ff_rx_free > 0.0:
            yield from self._ff_rx_gate()
        engine = self.nic.recv_engine
        if not engine.advance_hold(c.nic_rx_per_frag):
            hold = engine.hold(c.nic_rx_per_frag)
            try:
                yield hold
            except BaseException:
                hold.abandon()
                raise
        try:
            vi = self.p.vis.get(pl.dst_vi)
            if vi is None or not vi.is_connected:
                self.drops += 1
                return
            try:
                self.p.registry.check_rdma_target(
                    pl.remote_addr, pl.length, pl.remote_handle, write=False
                )
            except VipProtectionError:
                yield from self._send_ack_now(vi, pl.read_id, "nak_read")
                return
        finally:
            engine.release()
        self.sim.process(self._stream_read_resp(vi, pl), name="read-resp")

    def _stream_read_resp(self, vi: VI, pl: RdmaReadReq) -> Op:
        c = self.costs
        chk = self.sim.checker
        if chk is not None:
            chk.on_rdma_dma(self.p, pl.remote_addr, pl.length,
                            pl.remote_handle, write=False)
        data = self.node.mem.read(pl.remote_addr, pl.length)
        sizes = fragment_sizes(len(data), self.mtu)
        yield self.nic.send_engine.request()
        try:
            if self.choices.translation_agent is TranslationAgent.NIC:
                pages = list(page_span(pl.remote_addr, max(pl.length, 1),
                                       self.node.mem.page_size))
                yield from self._translate_pages(pages)
            offset = 0
            for i, size in enumerate(sizes):
                frag = DataFrag(
                    src_vi=pl.dst_vi, dst_vi=pl.src_vi, seq=pl.read_id,
                    frag=i, nfrags=len(sizes), offset=offset,
                    total_len=len(data), data=data[offset : offset + size],
                    op="read_resp", read_id=pl.read_id,
                )
                yield from self.nic.dma.transfer(size)
                if not self.sim.advance(c.nic_tx_per_frag):
                    yield self.sim.timeout(c.nic_tx_per_frag)
                self._tx_packet(self._peer_node(vi), "via-data", size, frag)
                offset += size
        finally:
            self.nic.send_engine.release()

    def _rx_read_resp(self, pl: DataFrag) -> Op:
        assert pl.read_id is not None
        entry = self._pending_reads.get(pl.read_id)
        if entry is None:
            self.drops += 1
            return
        vi, desc, buf, received = entry
        if self.choices.translation_agent is TranslationAgent.NIC:
            pages = self._placement_pages(desc, pl.offset, len(pl.data))
            yield from self._translate_pages(pages)
        yield from self.nic.dma.transfer(len(pl.data))
        buf[pl.offset : pl.offset + len(pl.data)] = pl.data
        received += 1
        if received < pl.nfrags:
            self._pending_reads[pl.read_id] = (vi, desc, buf, received)
            return
        del self._pending_reads[pl.read_id]
        chk = self.sim.checker
        if chk is not None:
            chk.on_local_dma(self.p, vi, desc)
        scatter(self.node.mem, desc, bytes(buf))
        yield from self._finish(vi.send_q, desc,
                                CompletionStatus.SUCCESS, pl.total_len)

    # -- acknowledgements ----------------------------------------------------
    def _send_ack(self, vi: VI, seq: int, kind: str) -> Op:
        if not self.sim.advance(self.costs.ack_tx):
            yield self.sim.timeout(self.costs.ack_tx)
        yield from self._send_ack_now(vi, seq, kind)

    def _send_ack_now(self, vi: VI, seq: int, kind: str) -> Op:
        assert vi.peer is not None
        payload = AckPayload(dst_vi=vi.peer[1], seq=seq, kind=kind)
        self._tx_packet(vi.peer[0], "via-ack", ACK_WIRE_BYTES, payload)
        return
        yield  # pragma: no cover - makes this a generator

    def _rx_ack(self, pl: AckPayload) -> Op:
        c = self.costs
        if self._ff_rx_free > 0.0:
            yield from self._ff_rx_gate()
        engine = self.nic.recv_engine
        if not engine.advance_hold(c.ack_rx):
            hold = engine.hold(c.ack_rx)
            try:
                yield hold
            except BaseException:
                hold.abandon()
                raise
        engine.release()
        if pl.kind == "nak_read":
            # protection NAK for an RDMA read request (seq carries read_id)
            entry = self._pending_reads.pop(pl.seq, None)
            if entry is not None:
                vi, desc, _buf, _recv = entry
                yield from self._finish(vi.send_q, desc,
                                        CompletionStatus.PROTECTION_ERROR, 0)
            return
        state = self._unacked.get((pl.dst_vi, pl.seq))
        if state is None:
            return
        if pl.kind == "ack":
            state.acked = True
            del self._unacked[(pl.dst_vi, pl.seq)]
            yield from self._finish(state.vi.send_q, state.desc,
                                    CompletionStatus.SUCCESS,
                                    state.desc.total_length)
        elif pl.kind == "nak_retry":
            # a NAK is proof the peer is reachable, so it does not count
            # toward the catastrophic-failure budget: the receiver just
            # cannot accept this message yet (no descriptor posted, or an
            # earlier message still has a hole).  The RTO timer measures
            # sustained non-progress and remains the sole failure trigger.
            if not self.sim.advance(c.rto / 4):  # retry backoff
                yield self.sim.timeout(c.rto / 4)
            yield from self._resend(state)
        elif pl.kind == "nak_prot":
            state.acked = True
            del self._unacked[(pl.dst_vi, pl.seq)]
            yield from self._finish(state.vi.send_q, state.desc,
                                    CompletionStatus.PROTECTION_ERROR, 0)

    # -- BUFFER policy: deliver kernel-buffered messages at post time -----
    def pop_buffered(self, vi: VI) -> _BufferedMsg | None:
        msgs = self._buffered.get(vi.vi_id)
        if msgs:
            msg = msgs.pop(0)
            if not msgs:
                del self._buffered[vi.vi_id]
            return msg
        return None

    def has_buffered(self, vi: VI) -> bool:
        return bool(self._buffered.get(vi.vi_id))

    def deliver_buffered(self, vi: VI) -> Op:
        """Marry kernel-buffered unexpected messages with posted receives.

        Runs as its own process whenever either side (a buffered arrival
        or a fresh post) might have created a match; claims descriptors
        so concurrent deliveries and wire arrivals never collide."""
        while self.has_buffered(vi):
            desc = vi.recv_q.claim()
            if desc is None:
                return
            msg = self.pop_buffered(vi)
            assert msg is not None
            if msg.total_len > desc.total_length:
                yield from self._finish(vi.recv_q, desc,
                                        CompletionStatus.LENGTH_ERROR, 0)
            else:
                chk = self.sim.checker
                if chk is not None:
                    chk.on_local_dma(self.p, vi, desc)
                scatter(self.node.mem, desc, msg.data)
                desc.control.immediate = msg.immediate
                yield from self._finish(vi.recv_q, desc,
                                        CompletionStatus.SUCCESS, msg.total_len)
