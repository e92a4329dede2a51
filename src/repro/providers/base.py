"""SimulatedProvider: host-side VIA operations over the NIC engine.

One instance per node.  All public operations are generators (timed);
they charge the calling application's CPU actor and drive the shared
:class:`~repro.providers.engine.NicEngine` for anything that happens on
the NIC or the wire.
"""

from __future__ import annotations

from typing import Any, Generator

from ..hw.memory import page_span
from ..hw.node import Node
from ..sim import Event
from ..via.connection import ConnectionManager, ConnRequest, backoff_schedule
from ..via.constants import (
    CONTROL_WIRE_BYTES,
    DescriptorOp,
    Reliability,
    ViState,
    WaitMode,
)
from ..via.cq import CompletionQueue
from ..via.descriptor import Descriptor
from ..via.errors import (
    VIP_CATASTROPHIC,
    AsyncError,
    VipConnectionError,
    VipErrorResource,
    VipInvalidParameter,
    VipNotSupported,
    VipStateError,
    VipTimeout,
)
from ..via.memory import MemoryHandle, MemoryRegistry
from ..via.nameservice import NameService
from ..via.provider import ViaProvider
from ..via.vi import VI, WorkQueue
from .costs import CostModel, DataPath, DesignChoices, DoorbellKind, TranslationAgent, TableLocation
from .engine import NicEngine

__all__ = ["SimulatedProvider"]

Op = Generator[Event, Any, Any]


# -- wire payloads for connection management --------------------------------

class _ConnReqPayload:
    __slots__ = ("conn_id", "client_node", "client_vi_id", "discriminator",
                 "reliability")

    def __init__(self, conn_id, client_node, client_vi_id, discriminator,
                 reliability):
        self.conn_id = conn_id
        self.client_node = client_node
        self.client_vi_id = client_vi_id
        self.discriminator = discriminator
        self.reliability = reliability


class _ConnAckPayload:
    __slots__ = ("conn_id", "server_node", "server_vi_id")

    def __init__(self, conn_id, server_node, server_vi_id):
        self.conn_id = conn_id
        self.server_node = server_node
        self.server_vi_id = server_vi_id


class _ConnRejPayload:
    __slots__ = ("conn_id", "reason")

    def __init__(self, conn_id, reason):
        self.conn_id = conn_id
        self.reason = reason


class _DisconnectPayload:
    __slots__ = ("dst_vi_id",)

    def __init__(self, dst_vi_id):
        self.dst_vi_id = dst_vi_id


class SimulatedProvider(ViaProvider):
    """A VIA provider parameterised by design choices + a cost model."""

    def __init__(
        self,
        node: Node,
        nameservice: NameService,
        choices: DesignChoices,
        costs: CostModel,
        mtu: int,
        loss_possible: bool = False,
        name: str = "sim",
    ) -> None:
        super().__init__(node, nameservice)
        self.name = name
        self.choices = choices
        self.costs = costs
        #: effective wire MTU (min of fabric MTU and provider policy)
        self.mtu = mtu
        self.loss_possible = loss_possible
        self.vis: dict[int, VI] = {}
        self.cqs: list[CompletionQueue] = []
        self.registry = MemoryRegistry(node.mem)
        self.connmgr = ConnectionManager(node.sim)
        node.nic.tlb.entries = choices.nic_tlb_entries
        self.engine = NicEngine(self)
        # -- fault/recovery bookkeeping ---------------------------------
        #: handshake control packets retransmitted (client + server side)
        self.conn_retransmissions = 0
        #: VIs that entered ERROR via an asynchronous transport failure
        self.vi_errors = 0
        #: successful vi_reset recoveries
        self.recoveries = 0
        #: dial attempts this side rejected (admission control)
        self.conn_rejects = 0
        #: asynchronous errors recorded (VipErrorCallback analog)
        self.async_errors: list[AsyncError] = []
        self._error_callbacks: list = []
        #: server side: conn_id -> the ack/reject payload we answered
        #: with, resent when a duplicate conn_req shows our reply lost
        self._conn_replies: dict = {}

    # -- introspection -----------------------------------------------------
    @property
    def open_vi_count(self) -> int:
        return len(self.vis)

    @property
    def max_transfer_size(self) -> int:
        return self.costs.max_transfer_size

    @property
    def supports_rdma_read(self) -> bool:
        return self.choices.supports_rdma_read

    @property
    def default_reliability(self) -> Reliability:
        return self.choices.default_reliability

    def query_nic(self):
        """VipQueryNic: static capabilities of this provider instance."""
        from ..via.provider import NicAttributes

        return NicAttributes(
            name=self.name,
            max_transfer_size=self.costs.max_transfer_size,
            max_segments=self.costs.max_segments,
            max_outstanding_descriptors=self.costs.max_outstanding,
            mtu=self.mtu,
            supports_rdma_write=True,
            supports_rdma_read=self.choices.supports_rdma_read,
            reliability_levels=tuple(Reliability),
            nic_translation_entries=self.choices.nic_tlb_entries,
        )

    # =====================================================================
    # VI lifecycle
    # =====================================================================

    def vi_create(self, handle, reliability=None, send_cq=None, recv_cq=None) -> Op:
        c = self.costs
        reliability = reliability or self.default_reliability
        yield from handle.actor.busy(c.vi_create, "sys")
        vi = VI(self.sim, self.node.name, reliability,
                max_transfer_size=c.max_transfer_size, ptag=handle.ptag)
        if send_cq is not None:
            send_cq._check_live()
            vi.send_q.cq = send_cq
            send_cq.attached += 1
        if recv_cq is not None:
            recv_cq._check_live()
            vi.recv_q.cq = recv_cq
            recv_cq.attached += 1
        self.vis[vi.vi_id] = vi
        return vi

    def vi_destroy(self, handle, vi: VI) -> Op:
        vi.require_state(ViState.IDLE, ViState.DISCONNECTED, ViState.ERROR)
        for wq in (vi.send_q, vi.recv_q):
            if wq.posted or wq.completed:
                raise VipStateError(
                    f"VI {vi.vi_id}: {wq.kind} queue not empty at destroy "
                    f"({len(wq.posted)} posted, {len(wq.completed)} unreaped)"
                )
        yield from handle.actor.busy(self.costs.vi_destroy, "sys")
        for wq in (vi.send_q, vi.recv_q):
            if wq.cq is not None:
                wq.cq.attached -= 1
                wq.cq = None
        vi.to_state(ViState.DESTROYED)
        del self.vis[vi.vi_id]

    # =====================================================================
    # memory
    # =====================================================================

    def register_mem(self, handle, address, length,
                     enable_rdma_write=True, enable_rdma_read=False) -> Op:
        c = self.costs
        npages = len(page_span(address, length, self.node.mem.page_size))
        yield from handle.actor.busy(c.reg_base + c.reg_per_page * npages, "sys")
        mh = self.registry.register(address, length, handle.ptag,
                                    enable_rdma_write, enable_rdma_read)
        if self.choices.table_location is TableLocation.NIC_MEMORY:
            # translations installed in NIC memory at registration time
            table = self.node.mem.page_table
            for vpage in mh.pages:
                self.node.nic.tlb.insert(vpage, table.translate(vpage))
        return mh

    def deregister_mem(self, handle, mh: MemoryHandle) -> Op:
        c = self.costs
        yield from handle.actor.busy(
            c.dereg_base + c.dereg_per_page * mh.page_count, "sys"
        )
        chk = self.sim.checker
        if chk is not None:
            chk.on_deregister(self, mh)
        self.registry.deregister(mh)
        # stale translations must never survive deregistration
        for vpage in mh.pages:
            self.node.nic.tlb.invalidate(vpage)

    # =====================================================================
    # completion queues
    # =====================================================================

    def cq_create(self, handle, depth: int = 1024) -> Op:
        yield from handle.actor.busy(self.costs.cq_create, "sys")
        cq = CompletionQueue(self.sim, depth)
        self.cqs.append(cq)
        return cq

    def cq_destroy(self, handle, cq: CompletionQueue) -> Op:
        yield from handle.actor.busy(self.costs.cq_destroy, "sys")
        cq.destroy()

    # =====================================================================
    # connections
    # =====================================================================

    def _control_tx(self, dst_node: str, payload) -> Op:
        from ..hw.link import Packet

        pkt = Packet(src=self.node.name, dst=dst_node, kind="via-ctl",
                     size=CONTROL_WIRE_BYTES, payload=payload)
        yield from self.node.nic.transmit(pkt)

    @property
    def _recovery_armed(self) -> bool:
        """Packets can be lost: run the retransmission machinery."""
        if self.loss_possible:
            return True
        faults = self.sim.faults
        return faults is not None and faults.affects_delivery

    def connect_request(self, handle, vi: VI, remote_host: str,
                        discriminator: int, timeout: float | None = None) -> Op:
        vi.require_state(ViState.IDLE)
        c = self.costs
        yield from handle.actor.busy(c.conn_client, "sys")
        remote_node = self.nameservice.resolve(remote_host)
        conn_id = self.connmgr.new_request_id()
        ev = self.connmgr.track(conn_id)
        vi.to_state(ViState.CONNECT_PENDING)
        payload = _ConnReqPayload(conn_id, self.node.name, vi.vi_id,
                                  discriminator, vi.reliability)
        try:
            if self._recovery_armed:
                result = yield from self._connect_with_retx(
                    ev, remote_node, payload, timeout
                )
            else:
                yield from self._control_tx(remote_node, payload)
                result = yield from self._wait_event(ev, timeout)
        except (VipConnectionError, VipTimeout):
            self.connmgr.forget(conn_id)
            vi.to_state(ViState.IDLE)
            raise
        server_node, server_vi_id = result
        vi.peer = (server_node, server_vi_id)
        vi.to_state(ViState.CONNECTED)
        return vi

    def _connect_with_retx(self, ev: Event, remote_node: str, payload,
                           timeout: float | None) -> Op:
        """Dial with deterministic exponential backoff.

        Attempt k waits ``min(conn_rto * 2**k, conn_backoff_cap)`` µs for
        the server's answer before retransmitting the conn_req; a
        caller-supplied ``timeout`` additionally caps the whole exchange.  A rejection fails ``ev``
        and raises VipConnectionError out of the yield.
        """
        c = self.costs
        deadline = None if timeout is None else self.sim.now + timeout
        waits = backoff_schedule(c.conn_rto, c.conn_max_retries,
                                 cap=c.conn_backoff_cap)
        for attempt, wait in enumerate(waits):
            if attempt:
                self.conn_retransmissions += 1
                self.sim.trace("via", "conn_retx", self.node.name,
                               conn=payload.conn_id, attempt=attempt)
            yield from self._control_tx(remote_node, payload)
            if deadline is not None:
                wait = min(wait, deadline - self.sim.now)
                if wait <= 0:
                    raise VipTimeout(f"no response within {timeout} us")
            yield self.sim.any_of([ev, self.sim.timeout(wait)])
            if ev.triggered and ev.ok:
                return ev.value
            if deadline is not None and self.sim.now >= deadline:
                raise VipTimeout(f"no response within {timeout} us")
        raise VipConnectionError(
            f"no response from {remote_node} after {len(waits)} attempts"
        )

    def connect_wait(self, handle, discriminator: int,
                     timeout: float | None = None) -> Op:
        ev = self.connmgr.wait_for(discriminator)
        request = yield from self._wait_event(ev, timeout)
        return request

    def connect_accept(self, handle, request: ConnRequest, vi: VI) -> Op:
        vi.require_state(ViState.IDLE)
        if vi.reliability is not request.reliability:
            rej = _ConnRejPayload(request.conn_id, "reliability mismatch")
            self._conn_replies[request.conn_id] = rej
            yield from self._control_tx(request.client_node, rej)
            raise VipConnectionError(
                f"reliability mismatch: client wants "
                f"{request.reliability.value}, VI has {vi.reliability.value}"
            )
        yield from handle.actor.busy(self.costs.conn_server, "sys")
        vi.peer = (request.client_node, request.client_vi_id)
        vi.to_state(ViState.CONNECTED)
        ack = _ConnAckPayload(request.conn_id, self.node.name, vi.vi_id)
        self._conn_replies[request.conn_id] = ack
        yield from self._control_tx(request.client_node, ack)
        return vi

    def connect_reject(self, handle, request: ConnRequest) -> Op:
        self.conn_rejects += 1
        rej = _ConnRejPayload(request.conn_id, "rejected by peer")
        self._conn_replies[request.conn_id] = rej
        yield from self._control_tx(request.client_node, rej)

    def disconnect(self, handle, vi: VI) -> Op:
        vi.require_state(ViState.CONNECTED)
        c = self.costs
        yield from handle.actor.busy(c.conn_teardown_active, "sys")
        peer = vi.peer
        vi.to_state(ViState.DISCONNECTED)
        vi.send_q.flush()
        vi.recv_q.flush()
        if peer is not None:
            yield from self._control_tx(peer[0], _DisconnectPayload(peer[1]))

    # -- error recovery ------------------------------------------------------
    def vi_reset(self, handle, vi: VI) -> Op:
        """VipErrorReset analog: recover an ERROR/DISCONNECTED VI.

        Purges the engine's per-VI protocol state (un-acked messages,
        kernel buffers, duplicate-skip cursors) so the endpoint restarts
        with a clean sequence space, then returns it to IDLE.  Any
        unreaped completions are drained as part of the reset; the
        application reconnects and reposts afterwards — the full VIPL
        catastrophic-error recovery sequence.
        """
        yield from handle.actor.busy(self.costs.error_recovery, "sys")
        for key in [k for k in self.engine._unacked if k[0] == vi.vi_id]:
            self.engine._unacked[key].acked = True  # silence its timer
            del self.engine._unacked[key]
        self.engine._buffered.pop(vi.vi_id, None)
        self.engine._rdma_skip.pop(vi.vi_id, None)
        vi.reset()
        self.recoveries += 1
        self.sim.trace("via", "vi_reset", self.node.name, vi=vi.vi_id)
        return vi

    def register_error_callback(self, callback) -> None:
        """VipErrorCallback analog: invoked with each AsyncError."""
        self._error_callbacks.append(callback)

    def post_async_error(self, vi: VI, code: str = VIP_CATASTROPHIC,
                         detail: str = "") -> None:
        """Record an asynchronous error and fire registered callbacks
        (called by the engine when a VI enters ERROR)."""
        err = AsyncError(code=code, node=self.node.name, vi_id=vi.vi_id,
                         time_us=self.sim.now, detail=detail)
        self.vi_errors += 1
        self.async_errors.append(err)
        self.sim.trace("via", "async_error", self.node.name,
                       vi=vi.vi_id, code=code)
        for cb in list(self._error_callbacks):
            cb(err)

    def handle_control_packet(self, payload) -> None:
        """Engine callback for connection-management wire traffic."""
        if isinstance(payload, _ConnReqPayload):
            reply = self._conn_replies.get(payload.conn_id)
            if reply is not None:
                # duplicate conn_req: our answer was evidently lost
                self.conn_retransmissions += 1
                self.sim.trace("via", "conn_reply_retx", self.node.name,
                               conn=payload.conn_id)
                self.sim.process(
                    self._control_tx(payload.client_node, reply),
                    name=f"conn-reack-{payload.conn_id}",
                )
            elif not self.connmgr.seen(payload.conn_id):
                self.connmgr.deliver(ConnRequest(
                    conn_id=payload.conn_id,
                    client_node=payload.client_node,
                    client_vi_id=payload.client_vi_id,
                    discriminator=payload.discriminator,
                    reliability=payload.reliability,
                ))
            # else: duplicate of a request still parked or mid-accept
        elif isinstance(payload, _ConnAckPayload):
            self.connmgr.resolve(payload.conn_id, payload.server_node,
                                 payload.server_vi_id)
        elif isinstance(payload, _ConnRejPayload):
            self.connmgr.reject(payload.conn_id, payload.reason)
        elif isinstance(payload, _DisconnectPayload):
            vi = self.vis.get(payload.dst_vi_id)
            if vi is not None and vi.state is ViState.CONNECTED:
                # passive teardown
                cost = self.costs.conn_teardown_passive
                vi.to_state(ViState.DISCONNECTED)
                vi.send_q.flush()
                vi.recv_q.flush()
                if cost:
                    self.sim.process(self._charge_passive(cost),
                                     name="disc-passive")
        else:  # pragma: no cover - defensive
            raise VipInvalidParameter(f"unknown control payload {payload!r}")

    def _charge_passive(self, cost: float) -> Op:
        yield self.sim.timeout(cost)

    def notify_buffered(self, vi: VI) -> None:
        """Engine callback: a kernel-buffered message became available."""
        self.sim.process(self.engine.deliver_buffered(vi), name="deliver-buf")

    # =====================================================================
    # data transfer
    # =====================================================================

    def _validate_post(self, vi: VI, desc: Descriptor, *ops: DescriptorOp) -> None:
        if desc.op not in ops:
            raise VipInvalidParameter(
                f"cannot post a {desc.op.value} descriptor here"
            )
        desc.validate(self.costs.max_segments, self.costs.max_transfer_size)
        for seg in desc.segments:
            self.registry.check_local(seg.address, seg.length, seg.handle,
                                      vi.ptag)

    def post_send(self, handle, vi: VI, desc: Descriptor) -> Op:
        vi.require_state(ViState.CONNECTED)
        self._validate_post(vi, desc, DescriptorOp.SEND,
                            DescriptorOp.RDMA_WRITE, DescriptorOp.RDMA_READ)
        if desc.op is DescriptorOp.RDMA_READ and not self.supports_rdma_read:
            raise VipNotSupported(f"{self.name} does not implement RDMA read")
        if vi.send_q.outstanding >= self.costs.max_outstanding:
            raise VipErrorResource(
                f"send queue of VI {vi.vi_id} is full "
                f"({self.costs.max_outstanding})"
            )
        c = self.costs
        self.sim.trace("host", "post_send", self.node.name,
                       vi=vi.vi_id, desc=desc.desc_id,
                       nbytes=desc.total_length)
        yield from handle.actor.busy(c.post_cost, "user")
        db_kind = "sys" if self.choices.doorbell is DoorbellKind.SYSCALL else "user"
        yield from handle.actor.busy(c.doorbell_cost, db_kind)
        db_delay = self.node.nic.ring_doorbell()
        self.sim.trace("host", "doorbell", self.node.name,
                       vi=vi.vi_id, desc=desc.desc_id)
        if self.choices.data_path is DataPath.STAGED:
            # software VIA: the kernel copies to a staging buffer and
            # translates on the host, all inside the doorbell trap
            if self.choices.translation_agent is TranslationAgent.HOST:
                npages = len(segment_pages_of(desc, self.node.mem.page_size))
                yield from handle.actor.busy(
                    c.host_translation_per_page * npages, "sys"
                )
            yield from handle.actor.copy(desc.total_length, "sys")
        vi.send_q.enqueue(desc)
        claimed = vi.send_q.claim()
        assert claimed is desc
        if db_delay is None:
            if vi.scan_pending:
                # the NIC works the queue in order: sends still waiting
                # for a recovery scan go first, or this one overtakes them
                self._dispatch_pending(vi, len(vi.scan_pending))
            self.sim.process(self.engine.send_message(vi, desc),
                             name=f"send-vi{vi.vi_id}")
        else:
            # the doorbell was lost (injected fault): the descriptor
            # sits until the NIC's periodic recovery scan finds it
            vi.scan_pending.append(desc)
            self.sim.process(self._dispatch_after_scan(vi, desc, db_delay),
                             name=f"db-scan-vi{vi.vi_id}")

    def _dispatch_pending(self, vi: VI, count: int) -> None:
        """Dispatch the first ``count`` scan-pending sends, in post order."""
        for d in vi.scan_pending[:count]:
            if d.posted:  # else flushed by a disconnect/error meanwhile
                self.sim.process(self.engine.send_message(vi, d),
                                 name=f"send-vi{vi.vi_id}")
        del vi.scan_pending[:count]

    def _dispatch_after_scan(self, vi: VI, desc: Descriptor,
                             delay: float) -> Op:
        yield self.sim.timeout(delay)
        pending = vi.scan_pending
        at = next((i for i, d in enumerate(pending) if d is desc), None)
        if at is None:
            return  # a later ring or an earlier scan dispatched it
        if at:
            # earlier sends still wait on slower scans: this scan finds
            # them too, and they keep their place in the queue
            self._dispatch_pending(vi, at + 1)
            return
        del pending[0]
        if not desc.posted:
            return  # flushed by a disconnect/error before the scan ran
        yield from self.engine.send_message(vi, desc)

    def post_recv(self, handle, vi: VI, desc: Descriptor) -> Op:
        vi.require_state(ViState.IDLE, ViState.CONNECT_PENDING,
                         ViState.CONNECTED)
        self._validate_post(vi, desc, DescriptorOp.RECEIVE)
        if vi.recv_q.outstanding >= self.costs.max_outstanding:
            raise VipErrorResource(
                f"receive queue of VI {vi.vi_id} is full "
                f"({self.costs.max_outstanding})"
            )
        c = self.costs
        yield from handle.actor.busy(c.post_cost, "user")
        db_kind = "sys" if self.choices.doorbell is DoorbellKind.SYSCALL else "user"
        yield from handle.actor.busy(c.doorbell_cost, db_kind)
        # receive doorbells only advertise descriptor availability; the
        # engine discovers recv descriptors when data arrives, so a
        # dropped ring here would have no NIC-visible effect
        self.node.nic.ring_doorbell(droppable=False)
        vi.recv_q.enqueue(desc)
        if self.engine.has_buffered(vi):
            self.notify_buffered(vi)

    # -- completion discovery ------------------------------------------------
    def _reap_postprocess(self, handle, wq: WorkQueue, desc: Descriptor) -> Op:
        """Host-side work deferred to reap time (kernel receive path)."""
        c = self.costs
        if (wq.kind == "recv" and desc.op is DescriptorOp.RECEIVE
                and self.choices.data_path is DataPath.STAGED
                and desc.control.length > 0):
            nfrags = max(1, -(-desc.control.length // self.mtu))
            yield from handle.actor.busy(c.recv_host_per_frag * nfrags, "sys")
            if self.choices.translation_agent is TranslationAgent.HOST:
                npages = len(segment_pages_of(desc, self.node.mem.page_size,
                                              desc.control.length))
                yield from handle.actor.busy(
                    c.host_translation_per_page * npages, "sys"
                )
            yield from handle.actor.copy(desc.control.length, "sys")

    def send_done(self, handle, vi: VI) -> Op:
        yield from handle.actor.busy(self.costs.reap_cost, "user")
        return vi.send_q.try_reap()

    def recv_done(self, handle, vi: VI) -> Op:
        yield from handle.actor.busy(self.costs.reap_cost, "user")
        desc = vi.recv_q.try_reap()
        if desc is not None:
            yield from self._reap_postprocess(handle, vi.recv_q, desc)
            self.sim.trace("host", "reap_done", self.node.name,
                           desc=desc.desc_id)
        return desc

    def send_wait(self, handle, vi: VI, mode=WaitMode.POLL,
                  timeout: float | None = None) -> Op:
        desc = yield from self._await(handle, vi.send_q.try_reap,
                                      vi.send_q.signal, mode, timeout)
        return desc

    def recv_wait(self, handle, vi: VI, mode=WaitMode.POLL,
                  timeout: float | None = None) -> Op:
        desc = yield from self._await(handle, vi.recv_q.try_reap,
                                      vi.recv_q.signal, mode, timeout)
        yield from self._reap_postprocess(handle, vi.recv_q, desc)
        self.sim.trace("host", "reap_done", self.node.name,
                       desc=desc.desc_id)
        return desc

    def cq_done(self, handle, cq: CompletionQueue) -> Op:
        yield from handle.actor.busy(self.costs.reap_cost, "user")
        entry = cq.try_pop()
        if entry is not None:
            wq, desc = entry
            yield from self._reap_postprocess(handle, wq, desc)
        return entry

    def cq_wait(self, handle, cq: CompletionQueue, mode=WaitMode.POLL,
                timeout: float | None = None) -> Op:
        entry = yield from self._await(handle, cq.try_pop, cq.signal,
                                       mode, timeout)
        wq, desc = entry
        yield from self._reap_postprocess(handle, wq, desc)
        self.sim.trace("host", "reap_done", self.node.name,
                       desc=desc.desc_id)
        return entry

    # -- wait plumbing -----------------------------------------------------
    def _await(self, handle, check, signal, mode: WaitMode,
               timeout: float | None) -> Op:
        """Reap-check loop shared by all Wait variants."""
        actor = handle.actor
        c = self.costs
        deadline = None if timeout is None else self.sim.now + timeout
        while True:
            yield from actor.busy(c.reap_cost, "user")
            item = check()
            if item is not None:
                self.sim.trace("host", "reaped", self.node.name)
                return item
            ev = signal.wait()
            if deadline is not None:
                remaining = deadline - self.sim.now
                if remaining <= 0:
                    raise VipTimeout(f"wait expired after {timeout} us")
                ev = self.sim.any_of([ev, self.sim.timeout(remaining)])
            if mode is WaitMode.POLL:
                yield from actor.spin_wait(ev)
            else:
                yield from actor.block_wait(ev, c.blocking_wakeup,
                                            c.blocking_delay)
            if deadline is not None and self.sim.now >= deadline:
                item = check()
                if item is not None:
                    return item
                raise VipTimeout(f"wait expired after {timeout} us")

    def _wait_event(self, ev: Event, timeout: float | None) -> Op:
        """Wait for a one-shot event with an optional deadline."""
        if timeout is None:
            result = yield ev
            return result
        cond = self.sim.any_of([ev, self.sim.timeout(timeout)])
        yield cond
        if not ev.triggered:
            raise VipTimeout(f"no response within {timeout} us")
        return ev.value


def segment_pages_of(desc: Descriptor, page_size: int,
                     limit: int | None = None) -> list[int]:
    """Pages touched by a descriptor's first ``limit`` bytes (all if None)."""
    pages: list[int] = []
    seen: set[int] = set()
    remaining = desc.total_length if limit is None else limit
    for seg in desc.segments:
        if remaining <= 0:
            break
        take = min(seg.length, remaining)
        if take <= 0:
            continue
        for p in page_span(seg.address, take, page_size):
            if p not in seen:
                seen.add(p)
                pages.append(p)
        remaining -= take
    return pages
