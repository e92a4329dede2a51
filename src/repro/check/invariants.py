"""Online VIA-spec conformance checking: the validating shadow layer.

Real VIA stacks enforce the spec in hardware; our simulated stack
enforces it only implicitly through its own control flow.  This module
makes the rules explicit: a :class:`ConformanceChecker` attached to a
testbed's simulator mirrors the spec-relevant state (descriptor
lifecycle, per-VI FIFO order, VI state machine, delivery sequence
numbers) *independently* of the model code, so a perf refactor that
silently bends semantics while keeping timings plausible fails loudly.

Invariants asserted online (hook sites in ``via/`` and ``providers/``):

- **descriptor lifecycle** — a descriptor completes exactly once per
  posting, on the queue it was posted to, and its status writeback
  happens before any CQ deposit;
- **FIFO completion** — each work queue completes descriptors in the
  order they were posted (spec §2.1);
- **VI state machine** — every transition is legal per the spec's state
  diagram (an independent copy of the transition table);
- **memory protection** — every simulated DMA lands inside a region
  that is registered, still pinned, and carries the VI's protection
  tag; RDMA targets additionally need the matching enable bit;
- **reliability semantics** — an unreliable VI never retransmits;
  reliable VIs deliver each message exactly once, in order;
- **packet conservation** (at quiesce) — every packet a channel
  serialised was either delivered or dropped.

Zero cost when disabled: ``Simulator.checker`` is ``None`` by default
(the same discipline as ``sim.tracer`` / ``sim.metrics``) and every
hook site reads the attribute once and skips on ``None``.  The checker
itself only *reads* model state — it consumes no simulated time,
schedules nothing, and mutates nothing — so a checked run is
bit-identical to an unchecked one.
"""

from __future__ import annotations

from collections import deque
from math import inf
from typing import TYPE_CHECKING

from ..via.constants import CompletionStatus, Reliability, ViState
from ..via.errors import VipProtectionError

if TYPE_CHECKING:  # pragma: no cover
    from ..providers.base import SimulatedProvider
    from ..providers.registry import Testbed
    from ..via.cq import CompletionQueue
    from ..via.descriptor import Descriptor
    from ..via.memory import MemoryHandle
    from ..via.vi import VI, WorkQueue

__all__ = ["ConformanceError", "ConformanceChecker", "attach_checker"]


class ConformanceError(Exception):
    """A VIA-spec invariant was violated.

    Deliberately *not* a ``VipError`` subclass: application-level code
    (and the workload fuzzer) catches ``VipError`` as legitimate VIA
    semantics (timeouts, flushed descriptors, connection errors), while
    a conformance violation is a bug in the stack itself and must
    propagate all the way out.
    """


#: independent copy of the spec's legal VI transitions (§2.1); kept
#: separate from ``VI.to_state`` on purpose so bending the model's
#: table cannot silently bend the check too
_SPEC_LEGAL = {
    ViState.IDLE: frozenset({ViState.CONNECT_PENDING, ViState.CONNECTED,
                             ViState.DESTROYED}),
    ViState.CONNECT_PENDING: frozenset({ViState.CONNECTED, ViState.IDLE,
                                        ViState.ERROR, ViState.DESTROYED}),
    ViState.CONNECTED: frozenset({ViState.DISCONNECTED, ViState.ERROR,
                                  ViState.DESTROYED}),
    ViState.DISCONNECTED: frozenset({ViState.IDLE, ViState.DESTROYED,
                                     ViState.CONNECTED}),
    ViState.ERROR: frozenset({ViState.IDLE, ViState.DESTROYED}),
    ViState.DESTROYED: frozenset(),
}


class ConformanceChecker:
    """Mirrors spec-relevant state and raises on any divergence.

    One instance per testbed; attach with :func:`attach_checker` (or
    ``Testbed(..., check=True)``).  All ``on_*`` methods are hook
    targets called from instrumentation sites; ``check_quiesced`` is
    the end-of-run audit.
    """

    def __init__(self) -> None:
        #: node name -> provider, for protection lookups
        self._providers: dict[str, "SimulatedProvider"] = {}
        #: desc_id -> (vi_id, kind, descriptor) while posted
        self._posted: dict[int, tuple[int, str, "Descriptor"]] = {}
        #: (vi_id, kind) -> posted desc_ids in FIFO order (shadow queue)
        self._fifo: dict[tuple[int, str], deque[int]] = {}
        #: completions written back but not yet deposited in their CQ
        self._awaiting_deposit: set[int] = set()
        #: vi_id -> next acceptable incoming sequence number
        self._next_rx: dict[int, int] = {}
        #: running totals, for reports
        self.posts = 0
        self.completions = 0
        self.deliveries = 0

    def register_provider(self, provider: "SimulatedProvider") -> None:
        self._providers[provider.node.name] = provider

    def _fail(self, msg: str) -> None:
        raise ConformanceError(msg)

    # -- descriptor lifecycle + FIFO ordering ----------------------------
    def on_post(self, wq: "WorkQueue", desc: "Descriptor") -> None:
        if desc.desc_id in self._posted:
            vi_id, kind, _ = self._posted[desc.desc_id]
            self._fail(
                f"descriptor {desc.desc_id} posted twice (already on the "
                f"{kind} queue of VI {vi_id})"
            )
        key = (wq.vi_id, wq.kind)
        self._posted[desc.desc_id] = (key[0], key[1], desc)
        self._fifo.setdefault(key, deque()).append(desc.desc_id)
        self.posts += 1

    def on_complete(self, wq: "WorkQueue", desc: "Descriptor",
                    status: CompletionStatus) -> None:
        rec = self._posted.pop(desc.desc_id, None)
        if rec is None:
            self._fail(
                f"descriptor {desc.desc_id} completed but not posted "
                "(double completion, or completion of a foreign descriptor)"
            )
        key = (wq.vi_id, wq.kind)
        if (rec[0], rec[1]) != key:
            self._fail(
                f"descriptor {desc.desc_id} posted on the {rec[1]} queue of "
                f"VI {rec[0]} but completed on the {wq.kind} queue of "
                f"VI {key[0]}"
            )
        shadow = self._fifo.get(key)
        if not shadow or shadow[0] != desc.desc_id:
            head = shadow[0] if shadow else None
            self._fail(
                f"FIFO violation on the {wq.kind} queue of VI {key[0]}: "
                f"completed descriptor {desc.desc_id} while {head} is the "
                "oldest posted"
            )
        shadow.popleft()
        if status is CompletionStatus.PENDING:
            self._fail(
                f"descriptor {desc.desc_id} completed with PENDING status"
            )
        if desc.control.status is not status:
            self._fail(
                f"descriptor {desc.desc_id}: status writeback missing at "
                f"completion (control block says "
                f"{desc.control.status.value}, completion says "
                f"{status.value})"
            )
        if wq.cq is not None:
            self._awaiting_deposit.add(desc.desc_id)
        self.completions += 1

    def on_cq_deposit(self, cq: "CompletionQueue", wq: "WorkQueue",
                      desc: "Descriptor") -> None:
        if desc.control.status is CompletionStatus.PENDING:
            self._fail(
                f"CQ {cq.cq_id}: deposit of descriptor {desc.desc_id} "
                "precedes its status writeback"
            )
        if desc.desc_id not in self._awaiting_deposit:
            self._fail(
                f"CQ {cq.cq_id}: deposit of descriptor {desc.desc_id} "
                "without a completed writeback on its work queue"
            )
        self._awaiting_deposit.discard(desc.desc_id)

    # -- VI state machine -------------------------------------------------
    def on_vi_transition(self, vi: "VI", old: ViState, new: ViState) -> None:
        if new not in _SPEC_LEGAL[old]:
            self._fail(
                f"VI {vi.vi_id} on {vi.node_name}: illegal transition "
                f"{old.value} -> {new.value}"
            )

    # -- memory protection -------------------------------------------------
    def on_local_dma(self, provider: "SimulatedProvider", vi: "VI",
                     desc: "Descriptor") -> None:
        """A descriptor's gather/scatter list is about to be DMAed."""
        for seg in desc.segments:
            if seg.length == 0:
                continue
            self._check_segment(provider, vi, desc, seg)

    def _check_segment(self, provider, vi, desc, seg) -> None:
        mh = seg.handle
        where = (f"descriptor {desc.desc_id} on VI {vi.vi_id} "
                 f"({vi.node_name})")
        if mh is None:
            self._fail(f"{where}: DMA segment without a memory handle")
        if not mh.active or not provider.registry.is_registered(mh):
            self._fail(
                f"{where}: DMA through deregistered handle {mh.handle_id}"
            )
        if mh.tag != vi.ptag:
            self._fail(
                f"{where}: protection tag mismatch (handle has {mh.tag}, "
                f"VI has {vi.ptag})"
            )
        if not mh.covers(seg.address, seg.length):
            self._fail(
                f"{where}: DMA segment [{seg.address:#x}, +{seg.length}) "
                f"outside handle {mh.handle_id} "
                f"[{mh.address:#x}, +{mh.length})"
            )
        if not provider.node.mem.is_pinned(seg.address, seg.length):
            self._fail(
                f"{where}: DMA through unpinned pages at "
                f"[{seg.address:#x}, +{seg.length})"
            )

    def on_rdma_dma(self, provider: "SimulatedProvider", address: int,
                    length: int, handle_id: int, write: bool) -> None:
        """An incoming RDMA is about to touch this node's memory."""
        op = "write" if write else "read"
        try:
            mh = provider.registry.lookup(handle_id)
        except VipProtectionError:
            self._fail(
                f"RDMA {op} on {provider.node.name} through unknown "
                f"handle {handle_id}"
            )
            return  # pragma: no cover - _fail always raises
        if not mh.covers(address, max(length, 1)):
            self._fail(
                f"RDMA {op} on {provider.node.name}: "
                f"[{address:#x}, +{length}) outside handle {handle_id}"
            )
        if write and not mh.enable_rdma_write:
            self._fail(
                f"RDMA write on {provider.node.name}: handle {handle_id} "
                "has RDMA write disabled"
            )
        if not write and not mh.enable_rdma_read:
            self._fail(
                f"RDMA read on {provider.node.name}: handle {handle_id} "
                "has RDMA read disabled"
            )
        if not provider.node.mem.is_pinned(address, max(length, 1)):
            self._fail(
                f"RDMA {op} on {provider.node.name} through unpinned "
                f"pages at [{address:#x}, +{length})"
            )

    def on_deregister(self, provider: "SimulatedProvider",
                      mh: "MemoryHandle") -> None:
        """A handle is being deregistered; no posted descriptor may
        still name it (its pages would unpin under an armed DMA)."""
        for vi_id, kind, desc in self._posted.values():
            for seg in desc.segments:
                if seg.handle is mh:
                    self._fail(
                        f"handle {mh.handle_id} deregistered on "
                        f"{provider.node.name} while descriptor "
                        f"{desc.desc_id} ({kind} queue of VI {vi_id}) "
                        "still references it"
                    )

    # -- reliability semantics ---------------------------------------------
    def on_retransmit(self, vi: "VI") -> None:
        if vi.reliability is Reliability.UNRELIABLE:
            self._fail(
                f"VI {vi.vi_id} on {vi.node_name} is UNRELIABLE but the "
                "engine retransmitted a message"
            )

    def on_deliver(self, vi: "VI", seq: int) -> None:
        """The receive engine accepted message ``seq`` on ``vi``."""
        expected = self._next_rx.get(vi.vi_id, 0)
        if vi.reliability is Reliability.UNRELIABLE:
            # datagram semantics: gaps are fine, duplicates are not
            # (an unreliable sender never retransmits, so a repeat can
            # only be an engine bug)
            if seq < expected:
                self._fail(
                    f"VI {vi.vi_id} on {vi.node_name}: duplicate delivery "
                    f"of datagram seq {seq} (next expected {expected})"
                )
        elif seq != expected:
            self._fail(
                f"VI {vi.vi_id} on {vi.node_name} "
                f"({vi.reliability.value}): delivered seq {seq} out of "
                f"order (expected {expected}) — reliable levels must "
                "deliver exactly once, in order"
            )
        self._next_rx[vi.vi_id] = seq + 1
        self.deliveries += 1

    def on_vi_reset(self, vi: "VI") -> None:
        """The VI's sequence space restarts after error recovery; forget
        the shadow delivery cursor so the fresh connection starts at 0."""
        self._next_rx.pop(vi.vi_id, None)

    # -- end-of-run audit ---------------------------------------------------
    def check_quiesced(self, tb: "Testbed") -> None:
        """Full-state audit once the simulation has drained."""
        if tb.sim.peek() != inf:
            self._fail(
                "quiesce audit called with events still scheduled "
                f"(next at t={tb.sim.peek()})"
            )
        if self._awaiting_deposit:
            self._fail(
                "completions written back but never deposited in their "
                f"CQ: descriptors {sorted(self._awaiting_deposit)}"
            )
        for name, provider in sorted(tb.providers.items()):
            for vi in provider.vis.values():
                for wq in (vi.send_q, vi.recv_q):
                    shadow = list(self._fifo.get((vi.vi_id, wq.kind), ()))
                    actual = [d.desc_id for d in wq.posted]
                    if shadow != actual:
                        self._fail(
                            f"{wq.kind} queue of VI {vi.vi_id} ({name}): "
                            f"shadow posted list {shadow} diverges from "
                            f"the model's {actual}"
                        )
            dangling = provider.connmgr.outstanding_count()
            if dangling:
                self._fail(
                    f"{name}: {dangling} connection request(s) still "
                    "outstanding at quiesce"
                )
        for label, channel in _iter_channels(tb):
            # injected wire_duplicate faults deliver a packet twice, so
            # duplicated copies count as extra sends in the ledger
            in_flight = (channel.sent_packets + channel.dup_packets
                         - channel.delivered_packets
                         - channel.dropped_packets)
            if in_flight != 0:
                self._fail(
                    f"packet conservation broken on {label}: "
                    f"{channel.sent_packets} sent + "
                    f"{channel.dup_packets} duplicated != "
                    f"{channel.delivered_packets} delivered + "
                    f"{channel.dropped_packets} dropped "
                    f"({in_flight} unaccounted at quiesce)"
                )


def _iter_channels(tb: "Testbed"):
    """Every (label, channel) in the fabric, uplinks and downlinks."""
    for name in tb.node_names:
        up = tb.fabric.node(name).nic.port
        if up is not None:
            yield f"wire.{name}.up", up
    switch = getattr(tb.fabric, "switch", None)
    if switch is not None:
        for name, down in sorted(switch._downlinks.items()):
            yield f"wire.{name}.down", down


def attach_checker(tb: "Testbed") -> ConformanceChecker:
    """Attach a fresh conformance checker to a testbed's simulator."""
    chk = ConformanceChecker()
    for provider in tb.providers.values():
        chk.register_provider(provider)
    tb.sim.checker = chk
    return chk
