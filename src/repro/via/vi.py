"""VI endpoints and their work queues (spec §2.1).

A VI is a bidirectional communication endpoint with a send queue and a
receive queue.  Descriptors posted to a queue complete in FIFO order —
a property the VIA spec requires of providers and that our tests assert
as an invariant.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING

from ..sim import Signal, Simulator
from ..sim.ids import id_space
from .constants import CompletionStatus, Reliability, ViState
from .descriptor import Descriptor
from .errors import VipStateError

if TYPE_CHECKING:  # pragma: no cover
    from .cq import CompletionQueue

__all__ = ["WorkQueue", "VI"]

_vi_ids = id_space("vi")


class WorkQueue:
    """One of a VI's two queues: posted (in-flight) and completed."""

    def __init__(self, sim: Simulator, vi_id: int, kind: str) -> None:
        assert kind in ("send", "recv")
        self.sim = sim
        #: the owning VI's id (an id, not the VI: no reference cycle)
        self.vi_id = vi_id
        self.kind = kind
        self.posted: deque[Descriptor] = deque()
        #: descriptors not yet claimed by an in-flight operation; the
        #: engine binds incoming messages to these so two concurrent
        #: deliveries can never grab the same descriptor
        self._claimable: deque[Descriptor] = deque()
        #: out-of-order finishes parked until they reach the FIFO head
        self._ready: dict[int, tuple[CompletionStatus, int]] = {}
        self.completed: deque[Descriptor] = deque()
        self.signal = Signal(sim)  # fired once per completion
        self.cq: "CompletionQueue" | None = None
        self.total_posted = 0
        self.total_completed = 0

    # -- posting -----------------------------------------------------------
    def enqueue(self, desc: Descriptor) -> None:
        desc.posted = True
        self.posted.append(desc)
        self._claimable.append(desc)
        self.total_posted += 1
        chk = self.sim.checker
        if chk is not None:
            chk.on_post(self, desc)

    def head(self) -> Descriptor | None:
        return self.posted[0] if self.posted else None

    def claim(self) -> Descriptor | None:
        """Take the next unclaimed descriptor for an in-flight operation."""
        if self._claimable:
            return self._claimable.popleft()
        return None

    @property
    def claimable(self) -> int:
        return len(self._claimable)

    # -- completion (engine side) -------------------------------------------
    def complete_head(
        self, desc: Descriptor, status: CompletionStatus, length: int
    ) -> None:
        """Complete the FIFO head; it must be ``desc`` (spec invariant)."""
        if not self.posted or self.posted[0] is not desc:
            raise VipStateError(
                f"{self.kind} queue of VI {self.vi_id}: completion out of "
                f"FIFO order (descriptor {desc.desc_id})"
            )
        self.posted.popleft()
        desc.posted = False
        desc.control.status = status
        desc.control.length = length
        desc.completed_at = self.sim.now
        self.total_completed += 1
        chk = self.sim.checker
        if chk is not None:
            # after the status writeback, before any CQ deposit
            chk.on_complete(self, desc, status)
        if self.cq is not None:
            self.cq.notify(self, desc)
        else:
            self.completed.append(desc)
        self.signal.fire()

    def finish(self, desc: Descriptor, status: CompletionStatus,
               length: int) -> list[Descriptor]:
        """Finish ``desc``, preserving FIFO completion order.

        If ``desc`` is not yet at the head (e.g. an RDMA read responded
        after a later local send finished processing) its result is
        parked and applied once everything ahead of it has finished —
        the in-order completion guarantee the VIA spec requires of every
        provider.  Returns the descriptors actually completed now.
        """
        self._ready[desc.desc_id] = (status, length)
        drained: list[Descriptor] = []
        while self.posted and self.posted[0].desc_id in self._ready:
            head = self.posted[0]
            st, ln = self._ready.pop(head.desc_id)
            self.complete_head(head, st, ln)
            drained.append(head)
        return drained

    def flush(self) -> list[Descriptor]:
        """Complete everything still posted with FLUSHED status
        (disconnect/destroy semantics)."""
        flushed = []
        self._ready.clear()
        self._claimable.clear()
        while self.posted:
            head = self.posted[0]
            self.complete_head(head, CompletionStatus.FLUSHED, 0)
            flushed.append(head)
        return flushed

    # -- reaping (host side) -------------------------------------------------
    def try_reap(self) -> Descriptor | None:
        if self.cq is not None:
            raise VipStateError(
                f"{self.kind} queue of VI {self.vi_id} is bound to a CQ; "
                "reap through the CQ"
            )
        if self.completed:
            return self.completed.popleft()
        return None

    @property
    def outstanding(self) -> int:
        return len(self.posted)


class VI:
    """A Virtual Interface endpoint."""

    def __init__(
        self,
        sim: Simulator,
        node_name: str,
        reliability: Reliability = Reliability.UNRELIABLE,
        max_transfer_size: int = 1 << 20,
        ptag: int = 0,
    ) -> None:
        self.sim = sim
        self.vi_id = next(_vi_ids)
        self.node_name = node_name
        self.reliability = reliability
        self.max_transfer_size = max_transfer_size
        self.ptag = ptag
        self.state = ViState.IDLE
        self.send_q = WorkQueue(sim, self.vi_id, "send")
        self.recv_q = WorkQueue(sim, self.vi_id, "recv")
        #: peer coordinates once connected: (node_name, vi_id)
        self.peer: tuple[str, int] | None = None
        #: engine bookkeeping: next outgoing message sequence number
        self.next_send_seq = 0
        #: engine bookkeeping: receive-side reassembly cursor
        self.rx_state: dict | None = None
        #: engine bookkeeping: lowest not-yet-accepted incoming sequence
        #: number (duplicate retransmissions are below this)
        self.expected_rx_seq = 0
        #: provider bookkeeping: sends whose doorbell was lost, in post
        #: order, waiting for the NIC's recovery scan to dispatch them
        self.scan_pending: list[Descriptor] = []

    # -- state machine -------------------------------------------------------
    def require_state(self, *states: ViState) -> None:
        if self.state not in states:
            allowed = "/".join(s.value for s in states)
            raise VipStateError(
                f"VI {self.vi_id} is {self.state.value}, needs {allowed}"
            )

    def to_state(self, new: ViState) -> None:
        _LEGAL = {
            ViState.IDLE: {ViState.CONNECT_PENDING, ViState.CONNECTED,
                           ViState.DESTROYED},
            ViState.CONNECT_PENDING: {ViState.CONNECTED, ViState.IDLE,
                                      ViState.ERROR, ViState.DESTROYED},
            ViState.CONNECTED: {ViState.DISCONNECTED, ViState.ERROR,
                                ViState.DESTROYED},
            ViState.DISCONNECTED: {ViState.IDLE, ViState.DESTROYED,
                                   ViState.CONNECTED},
            ViState.ERROR: {ViState.IDLE, ViState.DESTROYED},
            ViState.DESTROYED: set(),
        }
        if new not in _LEGAL[self.state]:
            raise VipStateError(
                f"VI {self.vi_id}: illegal transition "
                f"{self.state.value} -> {new.value}"
            )
        chk = self.sim.checker
        if chk is not None:
            chk.on_vi_transition(self, self.state, new)
        self.state = new

    @property
    def is_connected(self) -> bool:
        return self.state is ViState.CONNECTED

    # -- error recovery ------------------------------------------------------
    def drain(self) -> list[Descriptor]:
        """Pop every completed-but-unreaped descriptor from both queues.

        First step of the VIPL catastrophic-error recovery sequence: the
        application must consume all completions (most of them FLUSHED
        or error-status) before the VI can be reset.  Queues bound to a
        CQ drain through the CQ instead and are skipped here.
        """
        drained: list[Descriptor] = []
        for wq in (self.send_q, self.recv_q):
            if wq.cq is None:
                while wq.completed:
                    drained.append(wq.completed.popleft())
        return drained

    def reset(self) -> list[Descriptor]:
        """Return an ERROR/DISCONNECTED VI to IDLE (VipErrorReset analog).

        Clears the peer binding and all engine sequencing state so the
        endpoint can dial (or accept) a fresh connection; both sides of
        a re-established connection restart their sequence spaces from
        zero.  Work must already be flushed — resetting with descriptors
        still posted would silently orphan them.
        """
        self.require_state(ViState.ERROR, ViState.DISCONNECTED)
        for wq in (self.send_q, self.recv_q):
            if wq.posted:
                raise VipStateError(
                    f"VI {self.vi_id}: reset with {len(wq.posted)} "
                    f"descriptor(s) still on the {wq.kind} queue"
                )
        drained = self.drain()
        self.peer = None
        self.next_send_seq = 0
        self.rx_state = None
        self.expected_rx_seq = 0
        self.scan_pending.clear()
        chk = self.sim.checker
        if chk is not None:
            chk.on_vi_reset(self)
        self.to_state(ViState.IDLE)
        return drained

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<VI {self.vi_id} on {self.node_name} {self.state.value} "
            f"peer={self.peer}>"
        )
