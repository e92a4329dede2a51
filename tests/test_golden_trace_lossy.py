"""Golden regression for the lossy-link machinery (mvia).

The lossless golden traces (``test_golden_trace.py``) pin the happy
path; this file pins the *fault* path: one windowed stream under
injected wire loss, once unreliable (drops surface as missing
deliveries) and once with reliable delivery (drops surface as NAKs and
retransmissions).  The full event sequence and the fault counters are
fixtures, so any change to drop selection, retransmission scheduling,
or ack ordering fails loudly here.

The connection is established on a lossless wire (the handshake has no
retransmission); loss is injected for the data phase only.

Regenerate after an intentional change with::

    GOLDEN_REGEN=1 PYTHONPATH=src python -m pytest tests/test_golden_trace_lossy.py
"""

import json
import os
import pathlib

import pytest

from repro.providers import Testbed
from repro.sim.ids import reset_ids
from repro.sim.trace import Tracer
from repro.via import Descriptor
from repro.via.constants import Reliability
from repro.via.errors import VipTimeout

from conftest import run_pair, set_wire_loss

FIXTURE = pathlib.Path(__file__).parent / "fixtures" / "golden_trace_mvia_lossy.json"
SIZE, COUNT, WINDOW, LOSS, SEED = 2000, 8, 4, 0.1, 5
LEVELS = ("unreliable", "reliable_delivery")
_DEADLINE = 20_000.0


def _lossy_stream_trace(level_name: str) -> dict:
    """One traced, checked stream under loss; returns events + counters."""
    level = Reliability(level_name)
    reset_ids()
    tb = Testbed("mvia", seed=SEED, loss_rate=LOSS, check=True)
    tracer = Tracer()
    tb.sim.tracer = tracer
    set_wire_loss(tb, 0.0)
    ep: dict = {}

    def c_setup():
        h = tb.open("node0", "client")
        vi = yield from h.create_vi(reliability=level)
        bufs = []
        for _ in range(WINDOW):
            buf = h.alloc(SIZE)
            mh = yield from h.register_mem(buf)
            bufs.append((buf, mh))
        yield from h.connect(vi, "node1", 41)
        ep["c"] = (h, vi, bufs)

    def s_setup():
        h = tb.open("node1", "server")
        vi = yield from h.create_vi(reliability=level)
        for _ in range(COUNT):
            buf = h.alloc(SIZE)
            mh = yield from h.register_mem(buf)
            yield from h.post_recv(
                vi, Descriptor.recv([h.segment(buf, mh, 0, SIZE)]))
        req = yield from h.connect_wait(41)
        yield from h.accept(req, vi)
        ep["s"] = (h, vi)

    run_pair(tb, c_setup(), s_setup())
    set_wire_loss(tb, LOSS)
    delivered = {"n": 0}

    def c_data():
        h, vi, bufs = ep["c"]
        inflight = 0
        for i in range(COUNT):
            if inflight >= WINDOW:
                yield from h.send_wait(vi, timeout=_DEADLINE)
                inflight -= 1
            buf, mh = bufs[i % WINDOW]
            h.write(buf, bytes((i * 17 + j) % 256 for j in range(SIZE)))
            segs = [h.segment(buf, mh, 0, SIZE)]
            yield from h.post_send(vi, Descriptor.send(segs))
            inflight += 1
        while inflight:
            yield from h.send_wait(vi, timeout=_DEADLINE)
            inflight -= 1

    def s_data():
        h, vi = ep["s"]
        for _ in range(COUNT):
            try:
                yield from h.recv_wait(vi, timeout=_DEADLINE)
            except VipTimeout:
                return
            delivered["n"] += 1

    run_pair(tb, c_data(), s_data())
    tb.run()
    tb.checker.check_quiesced(tb)

    client = tb.provider("node0").engine
    server = tb.provider("node1").engine
    wire_drops = sum(ch.dropped_packets
                     for ch in _channels(tb))
    return {
        "events": [[ev.t, ev.category, ev.label, ev.node]
                   for ev in tracer.events],
        "counters": {
            "delivered": delivered["n"],
            "retransmissions": client.retransmissions,
            "naks_sent": server.naks_sent,
            "dup_drops": server.drops,
            "wire_drops": wire_drops,
        },
    }


def _channels(tb):
    from repro.check.invariants import _iter_channels

    return [ch for _label, ch in _iter_channels(tb)]


@pytest.fixture(scope="module")
def traces():
    return {level: _lossy_stream_trace(level) for level in LEVELS}


def test_golden_lossy_traces(traces):
    if os.environ.get("GOLDEN_REGEN"):  # pragma: no cover - maintenance aid
        FIXTURE.write_text(json.dumps(traces, indent=1) + "\n")
    want = json.loads(FIXTURE.read_text())
    for level in LEVELS:
        assert traces[level]["counters"] == want[level]["counters"], level
        assert traces[level]["events"] == want[level]["events"], level


def test_lossy_semantics(traces):
    """The two levels must show the paper's §3.2.5 semantics."""
    unrel = traces["unreliable"]["counters"]
    rel = traces["reliable_delivery"]["counters"]
    # the run is only a meaningful regression if the wire actually lost
    # something in both configurations
    assert unrel["wire_drops"] > 0 and rel["wire_drops"] > 0
    # unreliable: no recovery machinery, losses surface as gaps
    assert unrel["retransmissions"] == 0
    assert unrel["delivered"] < COUNT
    # reliable delivery: recovery machinery, no losses surface
    assert rel["retransmissions"] > 0
    assert rel["delivered"] == COUNT
