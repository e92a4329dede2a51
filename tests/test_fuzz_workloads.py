"""Workload fuzzing under the conformance checker.

Hypothesis generates random *valid* benchmark programs — message
sizes, windows, segment splits, buffer-reuse mixes, reliability
levels, wait modes, loss rates — and runs them on every provider with
the invariant checker attached.  ``VipError`` is legitimate VIA
semantics and is tolerated; a :class:`ConformanceError` (or any
simulator crash) is a stack bug and propagates.

Lossy draws use a self-contained stream program that establishes the
connection on a lossless wire first, so every draw exercises the data
path rather than occasionally burning its budget on handshake
retransmissions.  The data phase then runs lossy under a reliable
level, and the received payload sequence is checked for exactly-once
in-order delivery on top of the invariant hooks.

The fault-plan draws go further: a random :class:`FaultPlan` (wire
loss/corruption/duplication/reordering, link flaps, doorbell drops,
DMA aborts, TLB storms, CPU stalls and jitter) is armed from t=0 —
handshake included, which the retransmission machinery must survive.
Whatever subset of messages gets through must still be an exact
in-order prefix of what was sent.
"""

import hashlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.check import ALL_PROVIDERS
from repro.faults import FaultPlan, FaultSpec
from repro.providers import Testbed
from repro.via import Descriptor
from repro.via.constants import CompletionStatus, Reliability, WaitMode
from repro.via.errors import VipError, VipTimeout
from repro.vibe.harness import TransferConfig, run_latency

from conftest import run_pair, set_wire_loss

_RELIABLE = (Reliability.RELIABLE_DELIVERY, Reliability.RELIABLE_RECEPTION)


def _payload(i: int, size: int) -> bytes:
    return bytes((i + j) % 256 for j in range(size))


@st.composite
def latency_config(draw):
    provider = draw(st.sampled_from(ALL_PROVIDERS))
    cfg = TransferConfig(
        size=draw(st.integers(min_value=1, max_value=8192)),
        iters=draw(st.integers(min_value=1, max_value=5)),
        warmup=1,
        mode=draw(st.sampled_from([WaitMode.POLL, WaitMode.BLOCK])),
        reliability=draw(st.sampled_from((None,) + _RELIABLE
                                         + (Reliability.UNRELIABLE,))),
        use_recv_cq=draw(st.booleans()),
        use_send_cq=draw(st.booleans()),
        buffer_pool=draw(st.integers(min_value=1, max_value=3)),
        reuse_fraction=draw(st.sampled_from([0.0, 0.5, 1.0])),
        segments=draw(st.integers(min_value=1, max_value=3)),
        check=True,
    )
    return provider, cfg, draw(st.integers(min_value=0, max_value=3))


@st.composite
def lossy_stream_case(draw):
    return {
        "provider": draw(st.sampled_from(ALL_PROVIDERS)),
        "size": draw(st.integers(min_value=1, max_value=4096)),
        "count": draw(st.integers(min_value=1, max_value=10)),
        "window": draw(st.integers(min_value=1, max_value=4)),
        "level": draw(st.sampled_from(_RELIABLE)),
        "loss": draw(st.sampled_from([0.02, 0.05, 0.1])),
        "seed": draw(st.integers(min_value=0, max_value=3)),
    }


def run_lossy_stream(provider, size, count, window, level, loss, seed,
                     deadline=50_000.0):
    """Checked windowed stream: lossless handshake, lossy data phase.

    Returns (payload digests the server received in order, number the
    client believes it delivered).
    """
    tb = Testbed(provider, seed=seed, loss_rate=loss, check=True)
    set_wire_loss(tb, 0.0)
    ep: dict = {}

    def c_setup():
        h = tb.open(tb.node_names[0], "client")
        vi = yield from h.create_vi(reliability=level)
        bufs = []
        for _ in range(window):
            buf = h.alloc(max(size, 4))
            mh = yield from h.register_mem(buf)
            bufs.append((buf, mh))
        yield from h.connect(vi, tb.node_names[1], 31)
        ep["c"] = (h, vi, bufs)

    def s_setup():
        h = tb.open(tb.node_names[1], "server")
        vi = yield from h.create_vi(reliability=level)
        pool = []
        for _ in range(count):
            buf = h.alloc(max(size, 4))
            mh = yield from h.register_mem(buf)
            pool.append((buf, mh))
            yield from h.post_recv(
                vi, Descriptor.recv([h.segment(buf, mh, 0, size)]))
        req = yield from h.connect_wait(31)
        yield from h.accept(req, vi)
        ep["s"] = (h, vi, pool)

    run_pair(tb, c_setup(), s_setup())
    set_wire_loss(tb, loss)
    sent_ok = {"n": 0}
    got: list = []

    def c_data():
        h, vi, bufs = ep["c"]
        inflight = 0
        for i in range(count):
            if inflight >= window:
                # a reliable send completes only on acknowledgement,
                # so the i % window buffer is free again here
                try:
                    desc = yield from h.send_wait(vi, timeout=deadline)
                except VipTimeout:
                    return
                inflight -= 1
                if desc.status is not CompletionStatus.SUCCESS:
                    return
                sent_ok["n"] += 1
            buf, mh = bufs[i % window]
            h.write(buf, _payload(i, size))
            segs = [h.segment(buf, mh, 0, size)]
            yield from h.post_send(vi, Descriptor.send(segs))
            inflight += 1
        while inflight:
            try:
                desc = yield from h.send_wait(vi, timeout=deadline)
            except VipTimeout:
                return
            inflight -= 1
            if desc.status is CompletionStatus.SUCCESS:
                sent_ok["n"] += 1

    def s_data():
        h, vi, pool = ep["s"]
        for i in range(count):
            try:
                desc = yield from h.recv_wait(vi, timeout=deadline)
            except VipTimeout:
                return
            if desc.status is not CompletionStatus.SUCCESS:
                return
            buf, _mh = pool[i]
            got.append(hashlib.sha256(h.read(buf, size)).hexdigest())

    run_pair(tb, c_data(), s_data())
    tb.run()
    tb.checker.check_quiesced(tb)
    return got, sent_ok["n"]


@given(latency_config())
@settings(max_examples=15, deadline=None)
def test_fuzzed_pingpong_conforms(case):
    provider, cfg, seed = case
    try:
        m = run_latency(provider, cfg, seed=seed)
        assert m.latency_us > 0
    except VipError:
        pass          # legitimate VIA semantics, not a conformance bug


@given(lossy_stream_case())
@settings(max_examples=10, deadline=None)
def test_fuzzed_lossy_stream_delivers_exactly_once_in_order(case):
    got, _sent_ok = run_lossy_stream(**case)
    expected = [
        hashlib.sha256(_payload(i, case["size"])).hexdigest()
        for i in range(case["count"])
    ]
    # a reliable stream the server saw must be an exact in-order prefix
    # of what the client sent: no loss surfaced, no dup, no reorder
    assert got == expected[:len(got)]


# ---------------------------------------------------------------------------
# Random fault plans
# ---------------------------------------------------------------------------

@st.composite
def random_fault_spec(draw):
    kind = draw(st.sampled_from([
        "wire_loss", "wire_corrupt", "wire_duplicate", "wire_reorder",
        "link_down", "partition", "doorbell_drop", "dma_abort",
        "tlb_flush", "cpu_stall", "cpu_jitter",
    ]))
    kwargs = {
        "kind": kind,
        "at": draw(st.sampled_from([0.0, 50.0, 300.0, 1500.0])),
        "target": draw(st.sampled_from(
            [None, "node0", "node1", "node0.up", "node1.up"])),
        "rate": draw(st.sampled_from([0.05, 0.2, 0.5, 1.0])),
    }
    if kind in ("link_down", "partition"):
        # keep outages finite so a blacked-out stream can still finish
        kwargs["duration"] = draw(st.sampled_from([100.0, 800.0]))
    else:
        kwargs["duration"] = draw(st.sampled_from([None, 200.0, 2000.0]))
    if kind == "wire_reorder":
        kwargs["magnitude"] = draw(st.sampled_from([5.0, 25.0]))
    elif kind == "cpu_jitter":
        kwargs["magnitude"] = draw(st.sampled_from([0.5, 2.0]))
    elif kind == "cpu_stall":
        kwargs["duration"] = draw(st.sampled_from([200.0, 1500.0]))
    elif kind == "tlb_flush":
        kwargs["count"] = draw(st.integers(min_value=1, max_value=5))
        kwargs["period"] = 50.0
    return FaultSpec(**kwargs)


@st.composite
def fault_plan_case(draw):
    return {
        "provider": draw(st.sampled_from(ALL_PROVIDERS)),
        "level": draw(st.sampled_from(_RELIABLE)),
        "plan": FaultPlan(
            name="fuzz",
            seed=draw(st.integers(min_value=0, max_value=5)),
            faults=tuple(draw(st.lists(random_fault_spec(),
                                       min_size=1, max_size=3))),
        ),
        "size": draw(st.integers(min_value=1, max_value=2048)),
        "count": draw(st.integers(min_value=1, max_value=8)),
        "window": draw(st.integers(min_value=1, max_value=4)),
    }


def run_faulted_stream(provider, level, plan, size, count, window,
                       deadline=60_000.0):
    """Checked windowed stream with a fault plan armed from t=0.

    Timeouts, failed sends, and connection errors are all legitimate
    outcomes under arbitrary faults — the workload gives up rather than
    recovering.  What may never happen is a conformance violation, and
    whatever the server did receive must be an in-order prefix.
    """
    tb = Testbed(provider, seed=0, check=True, faults=plan)
    got: list = []

    def client():
        h = tb.open(tb.node_names[0], "client")
        vi = yield from h.create_vi(reliability=level)
        bufs = []
        for _ in range(window):
            buf = h.alloc(max(size, 4))
            mh = yield from h.register_mem(buf)
            bufs.append((buf, mh))
        try:
            yield from h.connect(vi, tb.node_names[1], 31, timeout=deadline)
        except VipError:
            return  # a blacked-out handshake may legitimately give up
        inflight = 0
        for i in range(count):
            if inflight >= window:
                try:
                    desc = yield from h.send_wait(vi, timeout=deadline)
                except VipTimeout:
                    return
                inflight -= 1
                if desc.status is not CompletionStatus.SUCCESS:
                    return
            buf, mh = bufs[i % window]
            h.write(buf, _payload(i, size))
            segs = [h.segment(buf, mh, 0, size)]
            yield from h.post_send(vi, Descriptor.send(segs))
            inflight += 1
        while inflight:
            try:
                desc = yield from h.send_wait(vi, timeout=deadline)
            except VipTimeout:
                return
            inflight -= 1
            if desc.status is not CompletionStatus.SUCCESS:
                return

    def server():
        h = tb.open(tb.node_names[1], "server")
        vi = yield from h.create_vi(reliability=level)
        pool = []
        for _ in range(count):
            buf = h.alloc(max(size, 4))
            mh = yield from h.register_mem(buf)
            pool.append((buf, mh))
            yield from h.post_recv(
                vi, Descriptor.recv([h.segment(buf, mh, 0, size)]))
        try:
            req = yield from h.connect_wait(31, timeout=deadline)
        except VipTimeout:
            return  # the client never got through
        yield from h.accept(req, vi)
        for i in range(count):
            try:
                desc = yield from h.recv_wait(vi, timeout=deadline)
            except VipTimeout:
                return
            if desc.status is not CompletionStatus.SUCCESS:
                return
            buf, _mh = pool[i]
            got.append(hashlib.sha256(h.read(buf, size)).hexdigest())

    run_pair(tb, client(), server())
    tb.run()  # drain retransmission timers and fault processes
    tb.checker.check_quiesced(tb)
    return got


@given(fault_plan_case())
@settings(max_examples=10, deadline=None)
def test_fuzzed_fault_plans_preserve_invariants(case):
    """Arbitrary fault plans on reliable levels: the conformance
    invariants must hold no matter what the wire, NIC, or host does."""
    got = run_faulted_stream(**case)
    expected = [
        hashlib.sha256(_payload(i, case["size"])).hexdigest()
        for i in range(case["count"])
    ]
    assert got == expected[:len(got)]


def _lossy_doorbell_plan(seed: int) -> FaultPlan:
    return FaultPlan(name="doorbell-order", seed=seed, faults=(
        FaultSpec(kind="wire_loss", rate=0.05),
        FaultSpec(kind="wire_loss", rate=0.05),
        FaultSpec(kind="doorbell_drop", rate=0.5),
    ))


@pytest.mark.parametrize("plan", [
    # these two once delivered 0, 2, 1 and 1, 0, 2
    pytest.param(_lossy_doorbell_plan(0), id="lossy-seed0"),
    pytest.param(_lossy_doorbell_plan(1), id="lossy-seed1"),
    # the first send's lost doorbell waits on a slower scan than the
    # second's, so the second scan must take the first send along
    pytest.param(FaultPlan(name="slow-scan-first", faults=(
        FaultSpec(kind="doorbell_drop", magnitude=300.0, count=1),
        FaultSpec(kind="doorbell_drop", magnitude=20.0, count=1),
    )), id="slow-scan-first"),
])
def test_lost_doorbell_never_lets_a_later_send_overtake(plan):
    """A send whose doorbell was lost waits for the recovery scan; a
    later ring or scan must dispatch it first, not overtake it (VIA
    works a queue in order)."""
    got = run_faulted_stream("mvia", Reliability.RELIABLE_DELIVERY, plan,
                             size=1, count=3, window=2)
    assert got == [hashlib.sha256(_payload(i, 1)).hexdigest()
                   for i in range(3)]
