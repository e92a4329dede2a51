"""Differential cross-provider testing.

All four simulated stacks (mvia, bvia, clan, iba) implement the same
VIA spec over very different design choices, so any *structural* result
— payload bytes delivered, message counts, completion statuses,
descriptor bookkeeping — must be identical across them even though
every timing differs.  This module runs a small canon of workloads on
each provider under the conformance checker and compares their
structural signatures pairwise; a divergence means one stack bent the
spec.

A second cross-check fits the LogGP model (``repro.models.logp``) to a
quick base latency/bandwidth sweep per provider: base transfers are by
construction linear in message size, so a poor linear fit flags a
provider whose timing model went nonlinear where the paper says it
must not.
"""

from __future__ import annotations

import hashlib

from ..providers.registry import Testbed
from ..via.constants import Reliability
from ..via.descriptor import Descriptor

__all__ = ["ALL_PROVIDERS", "WORKLOADS", "run_workload",
           "compare_signatures", "logp_consistency"]

ALL_PROVIDERS = ("mvia", "bvia", "clan", "iba")


def _pattern(n: int, salt: int = 0) -> bytes:
    """Deterministic payload bytes, distinct per message."""
    return bytes((i * 7 + 3 + salt * 13) % 256 for i in range(n))


def _digest(chunks) -> str:
    h = hashlib.sha256()
    for c in chunks:
        h.update(c)
    return h.hexdigest()[:16]


# ---------------------------------------------------------------------------
# workloads: each runs on a fresh checked testbed and returns the
# workload-specific part of the structural signature
# ---------------------------------------------------------------------------

def _wl_pingpong(tb: Testbed) -> dict:
    """Unreliable send/recv ping-pong with per-iteration payloads."""
    size, iters, disc = 512, 4, 21
    node0, node1 = tb.node_names[:2]
    out: dict = {"echoes": [], "statuses": []}

    def client():
        h = tb.open(node0, "client")
        vi = yield from h.create_vi(reliability=Reliability.UNRELIABLE)
        buf = h.alloc(size)
        mh = yield from h.register_mem(buf)
        segs = [h.segment(buf, mh, 0, size)]
        yield from h.post_recv(vi, Descriptor.recv(segs))
        yield from h.connect(vi, node1, disc)
        for i in range(iters):
            h.write(buf, _pattern(size, salt=i))
            yield from h.post_send(vi, Descriptor.send(segs))
            yield from h.send_wait(vi)
            desc = yield from h.recv_wait(vi)
            out["echoes"].append(h.read(buf, size))
            out["statuses"].append(desc.control.status.value)
            if i + 1 < iters:
                yield from h.post_recv(vi, Descriptor.recv(segs))
        yield from h.disconnect(vi)

    def server():
        h = tb.open(node1, "server")
        vi = yield from h.create_vi(reliability=Reliability.UNRELIABLE)
        buf = h.alloc(size)
        mh = yield from h.register_mem(buf)
        segs = [h.segment(buf, mh, 0, size)]
        yield from h.post_recv(vi, Descriptor.recv(segs))
        req = yield from h.connect_wait(disc)
        yield from h.accept(req, vi)
        for i in range(iters):
            yield from h.recv_wait(vi)
            if i + 1 < iters:
                yield from h.post_recv(vi, Descriptor.recv(segs))
            yield from h.post_send(vi, Descriptor.send(segs))
            yield from h.send_wait(vi)

    cproc = tb.spawn(client(), "client")
    sproc = tb.spawn(server(), "server")
    tb.run(cproc)
    tb.run(sproc)
    return {"echo": _digest(out["echoes"]),
            "statuses": tuple(out["statuses"])}


def _wl_stream(tb: Testbed) -> dict:
    """Windowed reliable-delivery stream; multi-fragment messages."""
    size, count, window, disc = 1500, 12, 4, 22
    node0, node1 = tb.node_names[:2]
    out: dict = {"got": [], "statuses": []}

    def client():
        h = tb.open(node0, "client")
        vi = yield from h.create_vi(
            reliability=Reliability.RELIABLE_DELIVERY)
        bufs = []
        for _ in range(window):
            buf = h.alloc(size)
            mh = yield from h.register_mem(buf)
            bufs.append((buf, mh))
        ctl = h.alloc(4)
        ctl_mh = yield from h.register_mem(ctl)
        # the server's "done" message can never be unexpected
        yield from h.post_recv(
            vi, Descriptor.recv([h.segment(ctl, ctl_mh, 0, 4)]))
        yield from h.connect(vi, node1, disc)
        inflight = 0
        for i in range(count):
            if inflight >= window:
                yield from h.send_wait(vi)
                inflight -= 1
            buf, mh = bufs[i % window]
            h.write(buf, _pattern(size, salt=i))
            segs = [h.segment(buf, mh, 0, size)]
            yield from h.post_send(vi, Descriptor.send(segs))
            inflight += 1
        while inflight:
            yield from h.send_wait(vi)
            inflight -= 1
        yield from h.recv_wait(vi)           # server's "done"
        yield from h.disconnect(vi)

    def server():
        h = tb.open(node1, "server")
        vi = yield from h.create_vi(
            reliability=Reliability.RELIABLE_DELIVERY)
        pool = []
        for _ in range(count):
            buf = h.alloc(size)
            mh = yield from h.register_mem(buf)
            pool.append(buf)
            yield from h.post_recv(
                vi, Descriptor.recv([h.segment(buf, mh, 0, size)]))
        ctl = h.alloc(4)
        ctl_mh = yield from h.register_mem(ctl)
        req = yield from h.connect_wait(disc)
        yield from h.accept(req, vi)
        for i in range(count):
            desc = yield from h.recv_wait(vi)
            out["statuses"].append(desc.control.status.value)
            out["got"].append(h.read(pool[i], size))
        yield from h.post_send(
            vi, Descriptor.send([h.segment(ctl, ctl_mh, 0, 4)]))
        yield from h.send_wait(vi)

    cproc = tb.spawn(client(), "client")
    sproc = tb.spawn(server(), "server")
    tb.run(cproc)
    tb.run(sproc)
    return {"stream": _digest(out["got"]),
            "statuses": tuple(out["statuses"])}


def _wl_rdma_write(tb: Testbed) -> dict:
    """Reliable RDMA writes with immediate data into a peer region."""
    size, iters, disc = 1024, 3, 23
    node0, node1 = tb.node_names[:2]
    out: dict = {"placed": [], "immediates": []}
    xchg: dict = {}

    def client():
        h = tb.open(node0, "client")
        vi = yield from h.create_vi(
            reliability=Reliability.RELIABLE_DELIVERY)
        buf = h.alloc(size)
        mh = yield from h.register_mem(buf)
        yield from h.connect(vi, node1, disc)
        raddr, rhandle = xchg["server"]   # registered before accept
        for i in range(iters):
            h.write(buf, _pattern(size, salt=100 + i))
            segs = [h.segment(buf, mh, 0, size)]
            yield from h.post_send(
                vi, Descriptor.rdma_write(segs, raddr, rhandle, immediate=i))
            yield from h.send_wait(vi)
        yield from h.disconnect(vi)

    def server():
        h = tb.open(node1, "server")
        vi = yield from h.create_vi(
            reliability=Reliability.RELIABLE_DELIVERY)
        region = h.alloc(size)
        mh = yield from h.register_mem(region, enable_rdma_write=True)
        xchg["server"] = (region.base, mh.handle_id)
        for _ in range(iters):
            yield from h.post_recv(vi, Descriptor.recv([]))
        req = yield from h.connect_wait(disc)
        yield from h.accept(req, vi)
        for _ in range(iters):
            desc = yield from h.recv_wait(vi)
            out["immediates"].append(desc.control.immediate)
            out["placed"].append(h.read(region, size))

    cproc = tb.spawn(client(), "client")
    sproc = tb.spawn(server(), "server")
    tb.run(cproc)
    tb.run(sproc)
    return {"placed": _digest(out["placed"]),
            "immediates": tuple(out["immediates"])}


def _wl_segmented(tb: Testbed) -> dict:
    """Reliable-reception ping-pong with three-segment descriptors."""
    size, nseg, iters, disc = 600, 3, 2, 24
    seg_len = size // nseg
    node0, node1 = tb.node_names[:2]
    out: dict = {"echoes": []}

    def body(me: str, peer: str, is_client: bool):
        h = tb.open(me, "app-" + me)
        vi = yield from h.create_vi(
            reliability=Reliability.RELIABLE_RECEPTION)
        buf = h.alloc(size)
        mh = yield from h.register_mem(buf)
        segs = [h.segment(buf, mh, k * seg_len, seg_len)
                for k in range(nseg)]
        yield from h.post_recv(vi, Descriptor.recv(segs))
        if is_client:
            yield from h.connect(vi, peer, disc)
        else:
            req = yield from h.connect_wait(disc)
            yield from h.accept(req, vi)
        for i in range(iters):
            if is_client:
                h.write(buf, _pattern(size, salt=200 + i))
                yield from h.post_send(vi, Descriptor.send(segs))
                yield from h.send_wait(vi)
                yield from h.recv_wait(vi)
                out["echoes"].append(h.read(buf, size))
            else:
                yield from h.recv_wait(vi)
                yield from h.post_send(vi, Descriptor.send(segs))
                yield from h.send_wait(vi)
            if i + 1 < iters:
                yield from h.post_recv(vi, Descriptor.recv(segs))
        if is_client:
            yield from h.disconnect(vi)

    cproc = tb.spawn(body(node0, node1, True), "client")
    sproc = tb.spawn(body(node1, node0, False), "server")
    tb.run(cproc)
    tb.run(sproc)
    return {"echo": _digest(out["echoes"])}


WORKLOADS = {
    "pingpong": _wl_pingpong,
    "stream": _wl_stream,
    "rdma_write": _wl_rdma_write,
    "segmented": _wl_segmented,
}


# ---------------------------------------------------------------------------
# signatures and comparison
# ---------------------------------------------------------------------------

def run_workload(provider: str, workload: str, seed: int = 0,
                 check: bool = True, fidelity: str = "packet") -> dict:
    """Run one workload on one provider under the checker.

    Returns the structural signature: workload-specific digests plus
    provider-independent bookkeeping (message counts, posted/completed
    totals, fault counters, checker totals).  Raises
    :class:`~repro.check.invariants.ConformanceError` on any invariant
    violation, including the end-of-run quiesce audit.

    ``check=False`` skips the conformance checker (an armed checker
    forces every message down the packet path, so fast-forward
    equivalence tests compare unchecked runs); ``fidelity`` selects the
    simulation mode as on :class:`~repro.providers.registry.Testbed`.
    """
    tb = Testbed(provider, seed=seed, check=check, fidelity=fidelity)
    sig = dict(WORKLOADS[workload](tb))
    tb.run()          # drain teardown events before the quiesce audit
    if check:
        tb.checker.check_quiesced(tb)
        chk = tb.checker
        sig["checker"] = (chk.posts, chk.completions, chk.deliveries)
    for name, p in sorted(tb.providers.items()):
        e = p.engine
        sig[f"{name}.messages"] = (e.messages_sent, e.messages_received)
        sig[f"{name}.faults"] = (e.retransmissions, e.naks_sent, e.drops)
        posted = {"send": 0, "recv": 0}
        completed = {"send": 0, "recv": 0}
        for vi in p.vis.values():
            for wq in (vi.send_q, vi.recv_q):
                posted[wq.kind] += wq.total_posted
                completed[wq.kind] += wq.total_completed
        sig[f"{name}.posted"] = (posted["send"], posted["recv"])
        sig[f"{name}.completed"] = (completed["send"], completed["recv"])
    tb.close()
    return sig


def compare_signatures(table: dict, providers) -> list[str]:
    """Pairwise-compare per-workload signatures against the first
    provider's; returns human-readable mismatch descriptions."""
    mismatches: list[str] = []
    for workload, sigs in table.items():
        present = [p for p in providers if p in sigs]
        if not present:
            continue
        ref_name, ref = present[0], sigs[present[0]]
        for p in present[1:]:
            sig = sigs[p]
            for key in sorted(set(ref) | set(sig)):
                if ref.get(key) != sig.get(key):
                    mismatches.append(
                        f"{workload}: {key} diverges — {ref_name} has "
                        f"{ref.get(key)!r}, {p} has {sig.get(key)!r}"
                    )
    return mismatches


# ---------------------------------------------------------------------------
# LogGP cross-check
# ---------------------------------------------------------------------------

def logp_consistency(provider: str,
                     sizes: tuple[int, ...] = (64, 1024, 4096),
                     max_rel_err: float = 0.25) -> dict:
    """Fit LogGP on a quick checked sweep and score self-consistency.

    Base latency is linear in size by construction, so the
    three-parameter model must reproduce the measured points closely;
    drift beyond ``max_rel_err`` means a provider's cost accounting
    went nonlinear where the model says it cannot.
    """
    from ..models.logp import fit_loggp
    from ..vibe.harness import TransferConfig, run_bandwidth, run_latency
    from ..vibe.metrics import BenchResult

    lat_points = [
        run_latency(provider,
                    TransferConfig(size=s, iters=8, warmup=2, check=True))
        for s in sizes
    ]
    bw_points = [
        run_bandwidth(provider,
                      TransferConfig(size=s, count=40, check=True))
        for s in sizes
    ]
    fit = fit_loggp(BenchResult("base_latency", provider, lat_points),
                    BenchResult("base_bandwidth", provider, bw_points))
    errs = [abs(fit.predict_latency(s) - m.latency_us) / m.latency_us
            for s, m in zip(sizes, lat_points)]
    mean_err = sum(errs) / len(errs)
    bw_ratio = (fit.predict_bandwidth(sizes[-1])
                / bw_points[-1].bandwidth_mbs)
    ok = (mean_err <= max_rel_err and fit.G > 0
          and 1.0 / 3.0 <= bw_ratio <= 3.0)
    return {
        "provider": provider,
        "mean_rel_err": round(mean_err, 4),
        "bw_ratio": round(bw_ratio, 3),
        "L": round(fit.L, 3),
        "G": round(fit.G, 6),
        "ok": ok,
    }
