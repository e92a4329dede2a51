"""Standard genesis programs for replay-tier checkpoints.

The ``"transfer"`` builder covers the workload shapes the equivalence
suite exercises — ``pingpong``, ``stream``, ``rdma_write``, and
``segmented`` — on any provider, with optional fidelity modes and an
optional armed :class:`~repro.faults.plan.FaultPlan`.  Every workload
writes its observable results (per-iteration completion times, final
simulated time) into the session board, so a cold run and a
restored-and-finished run can be compared field by field.
"""

from __future__ import annotations

from ..via.constants import Reliability
from ..via.descriptor import Descriptor
from .recipe import Session, register_builder

__all__ = ["transfer_session"]

_DISCRIMINATOR = 11
_WORKLOADS = ("pingpong", "stream", "rdma_write", "segmented")


def _reliability(params: dict) -> Reliability | None:
    name = params.get("reliability")
    return Reliability(name) if name is not None else None


@register_builder("transfer")
def transfer_session(params: dict) -> Session:
    """Two-node data-transfer session, parameterized by ``workload``."""
    from ..providers.registry import Testbed

    workload = params.get("workload", "pingpong")
    if workload not in _WORKLOADS:
        raise ValueError(
            f"unknown transfer workload {workload!r}; one of {_WORKLOADS}")
    size = int(params.get("size", 256))
    count = int(params.get("count", 8))
    segments = int(params.get("segments", 4 if workload == "segmented" else 1))
    tb = Testbed(
        params.get("provider", "clan"),
        seed=int(params.get("seed", 0)),
        loss_rate=params.get("loss_rate"),
        check=bool(params.get("check", False)),
        faults=params.get("faults"),
        fidelity=params.get("fidelity", "packet"),
    )
    if params.get("trace"):
        # attached at genesis, so replay reproduces the full event log
        from ..sim.trace import Tracer

        tb.sim.tracer = Tracer()
    reliability = _reliability(params)
    board: dict = {"completed_at": []}

    def segs_for(h, region, mh):
        if segments == 1:
            return [h.segment(region, mh, 0, size)]
        base = size // segments
        sizes = [base] * segments
        sizes[-1] += size - base * segments
        out, off = [], 0
        for s in sizes:
            out.append(h.segment(region, mh, off, s))
            off += s
        return out

    if workload == "rdma_write":
        client_body, server_body = _rdma_write_pair(
            tb, board, size, count, reliability)
    elif workload == "stream":
        client_body, server_body = _stream_pair(
            tb, board, size, count, reliability, segs_for)
    else:  # pingpong / segmented share the echo engine
        client_body, server_body = _pingpong_pair(
            tb, board, size, count, reliability, segs_for)

    procs = [tb.spawn(client_body(), "client"),
             tb.spawn(server_body(), "server")]
    return Session(tb, procs, board)


def _pingpong_pair(tb, board, size, count, reliability, segs_for):
    def client_body():
        h = tb.open(tb.node_names[0], "client")
        vi = yield from h.create_vi(reliability=reliability)
        region = h.alloc(max(size, 4))
        mh = yield from h.register_mem(region)
        segs = segs_for(h, region, mh)
        yield from h.post_recv(vi, Descriptor.recv(segs))
        yield from h.connect(vi, tb.node_names[1], _DISCRIMINATOR)
        for i in range(count):
            yield from h.post_send(vi, Descriptor.send(segs))
            yield from h.send_wait(vi)
            done = yield from h.recv_wait(vi)
            board["completed_at"].append(done.completed_at)
            if i + 1 < count:
                yield from h.post_recv(vi, Descriptor.recv(segs))
        board["client_done"] = tb.now
        yield from h.disconnect(vi)

    def server_body():
        h = tb.open(tb.node_names[1], "server")
        vi = yield from h.create_vi(reliability=reliability)
        region = h.alloc(max(size, 4))
        mh = yield from h.register_mem(region)
        segs = segs_for(h, region, mh)
        yield from h.post_recv(vi, Descriptor.recv(segs))
        req = yield from h.connect_wait(_DISCRIMINATOR)
        yield from h.accept(req, vi)
        for i in range(count):
            yield from h.recv_wait(vi)
            if i + 1 < count:
                yield from h.post_recv(vi, Descriptor.recv(segs))
            yield from h.post_send(vi, Descriptor.send(segs))
            yield from h.send_wait(vi)
        board["server_done"] = tb.now

    return client_body, server_body


def _stream_pair(tb, board, size, count, reliability, segs_for):
    window = 8

    def client_body():
        h = tb.open(tb.node_names[0], "client")
        vi = yield from h.create_vi(reliability=reliability)
        region = h.alloc(max(size, 4))
        mh = yield from h.register_mem(region)
        segs = segs_for(h, region, mh)
        ctl = h.alloc(4)
        ctl_mh = yield from h.register_mem(ctl)
        # final-ack receive pre-posted before connect, so it can never
        # race the server's send (same discipline as the harness)
        yield from h.post_recv(
            vi, Descriptor.recv([h.segment(ctl, ctl_mh, 0, 4)]))
        yield from h.connect(vi, tb.node_names[1], _DISCRIMINATOR)
        inflight = 0
        for _ in range(count):
            if inflight >= window:
                done = yield from h.send_wait(vi)
                board["completed_at"].append(done.completed_at)
                inflight -= 1
            yield from h.post_send(vi, Descriptor.send(segs))
            inflight += 1
        while inflight:
            done = yield from h.send_wait(vi)
            board["completed_at"].append(done.completed_at)
            inflight -= 1
        yield from h.recv_wait(vi)   # server acks the last message
        board["client_done"] = tb.now
        yield from h.disconnect(vi)

    def server_body():
        h = tb.open(tb.node_names[1], "server")
        vi = yield from h.create_vi(reliability=reliability)
        region = h.alloc(max(size, 4))
        mh = yield from h.register_mem(region)
        segs = segs_for(h, region, mh)
        for _ in range(count):
            yield from h.post_recv(vi, Descriptor.recv(segs))
        req = yield from h.connect_wait(_DISCRIMINATOR)
        yield from h.accept(req, vi)
        for _ in range(count):
            yield from h.recv_wait(vi)
        ctl = h.alloc(4)
        ctl_mh = yield from h.register_mem(ctl)
        yield from h.post_send(
            vi, Descriptor.send([h.segment(ctl, ctl_mh, 0, 4)]))
        yield from h.send_wait(vi)
        board["server_done"] = tb.now

    return client_body, server_body


def _rdma_write_pair(tb, board, size, count, reliability):
    target: dict = {}

    def client_body():
        h = tb.open(tb.node_names[0], "client")
        vi = yield from h.create_vi(reliability=reliability)
        region = h.alloc(max(size, 4))
        mh = yield from h.register_mem(region)
        yield from h.connect(vi, tb.node_names[1], _DISCRIMINATOR)
        while "addr" not in target:
            yield tb.sim.timeout(1.0)
        raddr, rhid = target["addr"]
        segs = [h.segment(region, mh, 0, size)]
        for i in range(count):
            # immediate data consumes a server receive, giving the
            # remote side a completion per write to synchronize on
            desc = Descriptor.rdma_write(segs, raddr, rhid, immediate=i)
            yield from h.post_send(vi, desc)
            done = yield from h.send_wait(vi)
            board["completed_at"].append(done.completed_at)
        board["client_done"] = tb.now
        yield from h.disconnect(vi)

    def server_body():
        h = tb.open(tb.node_names[1], "server")
        vi = yield from h.create_vi(reliability=reliability)
        region = h.alloc(max(size, 4))
        mh = yield from h.register_mem(region, enable_rdma_write=True)
        for _ in range(count):
            yield from h.post_recv(vi, Descriptor.recv([]))
        req = yield from h.connect_wait(_DISCRIMINATOR)
        yield from h.accept(req, vi)
        target["addr"] = (region.base, mh.handle_id)
        for _ in range(count):
            yield from h.recv_wait(vi)
        board["server_done"] = tb.now

    return client_body, server_body

