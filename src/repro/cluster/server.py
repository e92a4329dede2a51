"""The cluster server: one CQ-dispatch event loop, many VIs.

The paper's multi-VI benchmarks (Fig. 6) measure how per-VI cost grows
with endpoint count on an otherwise idle node.  :class:`ClusterServer`
is that experiment under load: one VI per connected client, all
completions funnelled into a single recv CQ, one event loop draining it
— the canonical VIA serving architecture.  Request handling charges a
pluggable service time on the host CPU (the application work), then
posts the response on the same VI.

Service-time models are seeded callables so every run is deterministic;
:func:`make_service` parses the CLI spec format (``fixed:20``,
``exp:50``, ``bytes:0.02``).

With a :class:`~repro.cluster.policy.ServerPolicy` attached the server
runs *admission control*: completions drain into a bounded pending
queue, overflow (and, in ``deadline`` mode, dead-on-arrival work) is
marked shed and answered with a static NAK payload instead of service.
Marked entries keep their place in the queue and are NAK'd when they
reach the head, so every VI still sees exactly one response per request
*in request order* — the client's FIFO matching never skews.  A
``max_conns`` cap rejects surplus dials outright.
"""

from __future__ import annotations

import random
from collections import deque
from typing import Callable

from ..via.constants import CompletionStatus, Reliability, WaitMode
from ..via.descriptor import Descriptor
from ..via.errors import VipError, VipTimeout
from .policy import (DEADLINE_HDR, DEFAULT_DEADLINE_US, NAK_BYTES,
                     RESP_EXPIRED, RESP_SHED, ServerPolicy)

__all__ = ["ClusterServer", "make_service"]

#: how often the dispatch loop wakes to re-check its deadline when idle
_IDLE_POLL_US = 5_000.0

ServiceModel = Callable[[random.Random, int], float]


def make_service(spec: str) -> ServiceModel:
    """Parse a service-time spec into a ``(rng, request_size) -> us`` model.

    * ``fixed:T``  — constant ``T`` us per request
    * ``exp:M``    — exponential with mean ``M`` us (seeded, deterministic)
    * ``bytes:C``  — ``C`` us per request byte (size-proportional work)
    * ``none``     — zero service time (pure VIPL overhead)
    """
    kind, _, arg = spec.partition(":")
    if kind == "none":
        return lambda rng, size: 0.0
    try:
        value = float(arg)
    except ValueError:
        raise ValueError(f"bad service spec {spec!r}: {arg!r} is not a "
                         "number") from None
    if value < 0:
        raise ValueError(f"bad service spec {spec!r}: negative time")
    if kind == "fixed":
        return lambda rng, size: value
    if kind == "exp":
        return lambda rng, size: rng.expovariate(1.0 / value) if value else 0.0
    if kind == "bytes":
        return lambda rng, size: value * size
    raise ValueError(f"unknown service model {kind!r}; "
                     "expected fixed:T, exp:M, bytes:C or none")


class ClusterServer:
    """A request/response server multiplexing one VI per client.

    Spawn :meth:`body` as a simulation process.  The server accepts
    ``n_clients`` connections on ``discriminator``, pre-posts ``window``
    receives per VI, then dispatches from one shared recv CQ until it
    has served ``total_requests`` requests, the deadline passes, or the
    simulation is quiescent (an idle poll finds that nothing else can
    ever act, so no request can arrive) — whichever comes first.  A
    partitioned client can never wedge it, and an overloaded cell whose
    clients keep failures does not poll out an idle tail to the
    deadline.

    ``deadline_aware`` says clients prepend their absolute request
    deadline (``DEADLINE_HDR`` bytes, big-endian us) to every payload;
    ``policy`` switches the dispatch loop to the admission-controlled
    variant.
    """

    def __init__(
        self,
        tb,
        node: str,
        n_clients: int,
        total_requests: int,
        *,
        discriminator: int = 4000,
        window: int = 4,
        service: ServiceModel | None = None,
        req_size: int = 128,
        resp_size: int = 1024,
        reliability: Reliability = Reliability.RELIABLE_DELIVERY,
        wait_mode: WaitMode = WaitMode.BLOCK,
        seed: int = 0,
        deadline_us: float | None = None,
        policy: ServerPolicy | None = None,
        deadline_aware: bool = False,
    ) -> None:
        self.tb = tb
        self.node = node
        self.n_clients = n_clients
        self.total_requests = total_requests
        self.discriminator = discriminator
        self.window = window
        self.service = service or make_service("none")
        self.req_size = req_size
        self.resp_size = resp_size
        self.reliability = reliability
        self.wait_mode = wait_mode
        self.rng = random.Random(seed)
        self.deadline_us = (DEFAULT_DEADLINE_US if deadline_us is None
                            else deadline_us)
        self.policy = policy
        self.deadline_aware = deadline_aware
        self.stats = {"accepted": 0, "served": 0, "errors": 0,
                      "shed_queue": 0, "shed_deadline": 0, "naks_sent": 0,
                      "conns_rejected": 0}
        #: absolute completion timestamps, for served-during-outage checks
        self.served_at: list[float] = []

    def _accept_one(self, h, req, state):
        """Bind one conn request to a fresh VI with pre-posted recvs.

        A client that gave up on a parked dial and redialled re-binds
        to a fresh VI (its abandoned one just goes quiet), so a slow
        connection storm can never starve the later arrivals.
        """
        recv_cq, send_cq, slot, slots_by_wq, peers = state
        vi = yield from h.create_vi(self.reliability,
                                    send_cq=send_cq, recv_cq=recv_cq)
        buf = h.alloc(self.window * slot)
        mh = yield from h.register_mem(buf)
        slots: deque[int] = deque()
        for w in range(self.window):
            yield from h.post_recv(
                vi, Descriptor.recv([h.segment(buf, mh, w * slot, slot)]))
            slots.append(w * slot)
        slots_by_wq[vi.recv_q] = (vi, buf, mh, slots)
        yield from h.accept(req, vi)
        self.stats["accepted"] += 1
        peers[(req.client_node, req.client_vi_id)] = vi

    def _idle_for_good(self, connmgr) -> bool:
        """After an idle poll: True when no request, dial or disconnect
        can ever reach this server again.

        Nothing else in the simulation can act (see
        :meth:`~repro.sim.core.Simulator.quiescent`) and no dial is
        parked, so every further poll would time out on an empty CQ
        until the deadline.  Stopping now leaves the state those polls
        would have left, less their CPU time and events.
        """
        return (not connmgr.pending_count(self.discriminator)
                and self.tb.sim.quiescent())

    def _conn_cap(self) -> int:
        if self.policy is not None and self.policy.max_conns is not None:
            return min(self.n_clients, self.policy.max_conns)
        return self.n_clients

    def body(self):
        tb = self.tb
        h = tb.open(self.node, "server")
        depth = max(64, self.n_clients * self.window * 2)
        recv_cq = yield from h.create_cq(depth=depth)
        send_cq = yield from h.create_cq(depth=depth)
        slot = max(self.req_size, 8)
        resp_slot = max(self.resp_size, 8)
        resp_buf = h.alloc(resp_slot)
        resp_mh = yield from h.register_mem(resp_buf)
        deadline = tb.now + self.deadline_us

        # fast path: accept until every distinct client endpoint (up to
        # the connection cap) has a binding, or the deadline says some
        # never will
        cap = self._conn_cap()
        slots_by_wq: dict = {}
        peers: dict = {}
        state = (recv_cq, send_cq, slot, slots_by_wq, peers)
        while len(peers) < cap and tb.now < deadline:
            try:
                req = yield from h.connect_wait(
                    self.discriminator, timeout=deadline - tb.now)
            except VipTimeout:
                break
            yield from self._accept_one(h, req, state)

        if self.policy is not None:
            yield from self._dispatch_admission(h, state, resp_buf,
                                                resp_mh, deadline)
        else:
            yield from self._dispatch(h, state, resp_buf, resp_mh, deadline)

        # drain whatever send completions are still in flight
        while True:
            done = yield from h.cq_done(send_cq)
            if done is None:
                break

    # -- legacy dispatch (no policy): byte-identical defaults ------------

    def _dispatch(self, h, state, resp_buf, resp_mh, deadline):
        # the server never joins the start gate — it serves reactively,
        # and keeps accepting parked redials between completions so a
        # client whose earlier dial went stale while we were busy still
        # gets connected (no accept, no traffic)
        tb = self.tb
        recv_cq, send_cq, slot, slots_by_wq, peers = state
        connmgr = tb.providers[self.node].connmgr
        while (self.stats["served"] < self.total_requests
               and tb.now < deadline):
            while connmgr.pending_count(self.discriminator):
                req = yield from h.connect_wait(self.discriminator,
                                                timeout=0.0)
                yield from self._accept_one(h, req, state)
            budget = min(_IDLE_POLL_US, deadline - tb.now)
            try:
                wq, desc = yield from h.cq_wait(
                    recv_cq, mode=self.wait_mode, timeout=budget)
            except VipTimeout:
                if self._idle_for_good(connmgr):
                    break
                continue
            vi, buf, mh, slots = slots_by_wq[wq]
            off = slots.popleft()
            if desc.status is not CompletionStatus.SUCCESS:
                self.stats["errors"] += 1
                continue
            service_us = self.service(self.rng, desc.control.length)
            if service_us > 0.0:
                yield from h.actor.busy(service_us, "user")
            try:
                yield from h.post_send(
                    vi, Descriptor.send(
                        [h.segment(resp_buf, resp_mh, 0, self.resp_size)]))
                yield from h.post_recv(
                    vi, Descriptor.recv([h.segment(buf, mh, off, slot)]))
                slots.append(off)
            except VipError:
                # the client's VI died (e.g. its link is down and the
                # response RTO exhausted); keep serving everyone else
                self.stats["errors"] += 1
                continue
            self.stats["served"] += 1
            self.served_at.append(tb.now)
            while True:  # reap acked responses without blocking
                done = yield from h.cq_done(send_cq)
                if done is None:
                    break

    # -- admission-controlled dispatch (policy attached) -----------------

    def _admit(self, h, item, slots_by_wq, pending) -> int:
        """Move one recv completion into the pending queue; returns how
        many live (un-shed) entries that added."""
        wq, desc = item
        vi, buf, mh, slots = slots_by_wq[wq]
        off = slots.popleft()
        if desc.status is not CompletionStatus.SUCCESS:
            self.stats["errors"] += 1
            return 0
        hdr = None
        if self.deadline_aware:
            hdr = int.from_bytes(h.read(buf, DEADLINE_HDR, offset=off),
                                 "big")
        # entry: [wq, desc, slot offset, deadline header, shed marker]
        pending.append([wq, desc, off, hdr, None])
        return 1

    def _nak(self, h, entry, slots_by_wq, naks):
        """Answer one shed entry with its static NAK payload and repost
        the freed receive."""
        wq, desc, off, hdr, shed = entry
        vi, buf, mh, slots = slots_by_wq[wq]
        slot = max(self.req_size, 8)
        nak_buf, nak_mh = naks[shed]
        try:
            yield from h.post_send(vi, Descriptor.send(
                [h.segment(nak_buf, nak_mh, 0, NAK_BYTES)]))
            yield from h.post_recv(
                vi, Descriptor.recv([h.segment(buf, mh, off, slot)]))
            slots.append(off)
        except VipError:
            self.stats["errors"] += 1
            return
        self.stats["naks_sent"] += 1
        key = "shed_deadline" if shed == "deadline" else "shed_queue"
        self.stats[key] += 1

    def _dispatch_admission(self, h, state, resp_buf, resp_mh, deadline):
        tb = self.tb
        recv_cq, send_cq, slot, slots_by_wq, peers = state
        pol = self.policy
        cap = self._conn_cap()
        connmgr = tb.providers[self.node].connmgr
        # static NAK payloads, written once: response sends gather their
        # bytes at engine time, so per-response buffers must never change
        naks = {}
        for shed, marker in (("queue", RESP_SHED), ("deadline",
                                                    RESP_EXPIRED)):
            nbuf = h.alloc(NAK_BYTES)
            nmh = yield from h.register_mem(nbuf)
            h.write(nbuf, bytes([marker]))
            naks[shed] = (nbuf, nmh)
        pending: deque = deque()
        live = 0
        deadline_shed = self.deadline_aware and pol.shed_mode == "deadline"

        def clients_done() -> bool:
            # a retrying client can be re-served the same request, so a
            # served-count exit would fire early and strand the rest of
            # its schedule.  The only trustworthy end-of-traffic signal
            # is teardown: every expected endpoint connected and has
            # since disconnected.  Clients that keep failures never
            # disconnect, so an overloaded cell serves until its
            # deadline or until the simulation is quiescent.
            return (len(peers) >= cap
                    and all(not vi.is_connected for vi in peers.values()))

        while not clients_done() and tb.now < deadline:
            while connmgr.pending_count(self.discriminator):
                req = yield from h.connect_wait(self.discriminator,
                                                timeout=0.0)
                known = (req.client_node, req.client_vi_id) in peers
                if not known and len(peers) >= cap:
                    yield from h.reject(req)
                    self.stats["conns_rejected"] += 1
                else:
                    yield from self._accept_one(h, req, state)
            if not pending:
                budget = min(_IDLE_POLL_US, deadline - tb.now)
                try:
                    item = yield from h.cq_wait(
                        recv_cq, mode=self.wait_mode, timeout=budget)
                except VipTimeout:
                    if self._idle_for_good(connmgr):
                        break
                    continue
                live += self._admit(h, item, slots_by_wq, pending)
            while True:  # drain the whole CQ into the pending queue
                item = yield from h.cq_done(recv_cq)
                if item is None:
                    break
                live += self._admit(h, item, slots_by_wq, pending)
            # shed: deadline mode first marks dead-on-arrival work
            # anywhere in the queue, then both modes mark overflow from
            # the tail.  Marked entries stay queued and are NAK'd when
            # they reach the head, preserving per-VI response order.
            if deadline_shed:
                for e in pending:
                    if e[4] is None and e[3] is not None and tb.now >= e[3]:
                        e[4] = "deadline"
                        live -= 1
            if pol.queue_depth is not None and live > pol.queue_depth:
                for e in reversed(pending):
                    if live <= pol.queue_depth:
                        break
                    if e[4] is None:
                        e[4] = "queue"
                        live -= 1
            if not pending:
                continue
            e = pending.popleft()
            if e[4] is None:
                live -= 1
                # head may have died between admission and service
                if deadline_shed and e[3] is not None and tb.now >= e[3]:
                    e[4] = "deadline"
            if e[4] is not None:
                yield from self._nak(h, e, slots_by_wq, naks)
            else:
                wq, desc, off, hdr, _shed = e
                vi, buf, mh, slots = slots_by_wq[wq]
                service_us = self.service(self.rng, desc.control.length)
                if service_us > 0.0:
                    yield from h.actor.busy(service_us, "user")
                try:
                    yield from h.post_send(vi, Descriptor.send([h.segment(
                        resp_buf, resp_mh, 0, self.resp_size)]))
                    yield from h.post_recv(vi, Descriptor.recv(
                        [h.segment(buf, mh, off, slot)]))
                    slots.append(off)
                except VipError:
                    self.stats["errors"] += 1
                    continue
                self.stats["served"] += 1
                self.served_at.append(tb.now)
            while True:  # reap acked responses without blocking
                done = yield from h.cq_done(send_cq)
                if done is None:
                    break

        # flush: NAK everything still queued or sitting in the CQ, so a
        # client draining a late attempt gets its answer instead of
        # waiting out its full deadline on a request nobody will serve
        while True:
            item = yield from h.cq_done(recv_cq)
            if item is None:
                break
            live += self._admit(h, item, slots_by_wq, pending)
        while pending:
            e = pending.popleft()
            if e[4] is None:
                e[4] = "queue"
            yield from self._nak(h, e, slots_by_wq, naks)
