"""Unit tests for the observability layer (``repro.obs``).

Metric primitives, span recording, phase reconstruction, the Perfetto
exporter, testbed harvesting, and the ``Measurement.get`` /
``BenchResult.point`` contract unification.
"""

import json

import pytest

from repro.obs.metrics import (
    DEFAULT_SIZE_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)
from repro.obs.perfetto import chrome_trace, dumps_trace, write_chrome_trace
from repro.obs.spans import PhaseBoundary, Span, SpanRecorder, phase_spans
from repro.sim import Simulator
from repro.sim.trace import Tracer
from repro.vibe.metrics import BenchResult, Measurement, merge_tables

# ---------------------------------------------------------------------------
# metric primitives


def test_counter_rejects_negative_increment():
    c = Counter("c")
    c.inc()
    c.inc(2.5)
    assert c.value == 3.5
    with pytest.raises(ValueError):
        c.inc(-1)


def test_gauge_tracks_extremes():
    g = Gauge("g")
    g.set(3.0)
    g.add(-5.0)
    assert g.snapshot() == {"value": -2.0, "max": 3.0, "min": -2.0}


def test_histogram_rejects_bad_bounds():
    with pytest.raises(ValueError):
        Histogram("h", ())
    with pytest.raises(ValueError):
        Histogram("h", (1.0, 1.0))


def test_histogram_merge_rejects_mismatched_bounds():
    a = Histogram("a", (1.0, 2.0))
    b = Histogram("b", (1.0, 4.0))
    with pytest.raises(ValueError):
        a.merge(b)


def test_histogram_empty_quantile_is_zero():
    assert Histogram("h", (1.0,)).quantile(0.5) == 0.0
    with pytest.raises(ValueError):
        Histogram("h", (1.0,)).quantile(1.5)


def test_registry_kind_conflict():
    reg = MetricsRegistry()
    reg.counter("x")
    with pytest.raises(ValueError):
        reg.gauge("x")
    with pytest.raises(KeyError):
        reg.get("missing")


def test_registry_conveniences_create_on_first_use():
    reg = MetricsRegistry()
    reg.inc("events", 3)
    reg.set_gauge("depth", 7.0)
    reg.observe("bytes", 256, DEFAULT_SIZE_BUCKETS)
    assert "events" in reg and reg.names() == ["bytes", "depth", "events"]
    snap = reg.snapshot()
    assert snap["events"] == {"kind": "counter", "value": 3}
    assert snap["depth"]["value"] == 7.0
    assert snap["bytes"]["count"] == 1


def test_registry_to_json_deterministic():
    def build():
        reg = MetricsRegistry()
        reg.inc("b")
        reg.inc("a", 2)
        return reg.to_json(meta={"provider": "clan"})

    text = build()
    assert text == build()
    assert text.endswith("\n")
    doc = json.loads(text)
    assert doc["meta"] == {"provider": "clan"}
    assert list(doc["metrics"]) == ["a", "b"]


# ---------------------------------------------------------------------------
# spans


def test_span_rejects_backwards_interval():
    with pytest.raises(ValueError):
        Span("s", 2.0, 1.0)


def test_span_recorder_context_and_begin_end():
    sim = Simulator()
    rec = SpanRecorder(sim)

    def proc():
        with rec.span("outer", node="n"):
            yield sim.timeout(5.0)
            rec.begin("inner", node="n")
            yield sim.timeout(2.0)
            rec.end("inner", node="n", size=4)

    sim.run(sim.process(proc()))
    outer = rec.select("outer")[0]
    inner = rec.select("inner", node="n")[0]
    assert (outer.start, outer.end) == (0.0, 7.0)
    assert (inner.start, inner.end, inner.args) == (5.0, 7.0, {"size": 4})
    assert len(rec) == 2


def test_span_recorder_begin_end_misuse():
    rec = SpanRecorder(Simulator())
    rec.begin("a")
    with pytest.raises(ValueError):
        rec.begin("a")
    with pytest.raises(ValueError):
        rec.end("never-opened")


def test_phase_spans_first_vs_last_and_errors():
    tracer = Tracer()
    for t in (1.0, 10.0):
        tracer.emit(t, "host", "go", "n0")
        tracer.emit(t + 2.0, "nic", "done", "n1")
    boundary = PhaseBoundary("phase", ("host", "go", 0), ("nic", "done", 1))
    first, = phase_spans(tracer, [boundary], nodes=("n0", "n1"),
                         select="first")
    last, = phase_spans(tracer, [boundary], nodes=("n0", "n1"))
    assert (first.start, first.end) == (1.0, 3.0)
    assert (last.start, last.end) == (10.0, 12.0)
    assert first.node == "n0" and first.category == "phase"
    with pytest.raises(ValueError):
        phase_spans(tracer, [boundary], select="median")
    with pytest.raises(RuntimeError):
        phase_spans(tracer, [PhaseBoundary(
            "missing", ("host", "nope", 0), ("nic", "done", 1))])


# ---------------------------------------------------------------------------
# perfetto exporter


def _sample_doc():
    tracer = Tracer()
    tracer.emit(1.0, "host", "post", "node0", desc=1)
    tracer.emit(2.0, "wire", "tx", "node0")
    tracer.emit(3.0, "host", "reap", "node1", obj=object())
    spans = [Span("setup", 0.0, 1.5, node="node0")]
    return chrome_trace(tracer.events, spans, meta={"provider": "x"})


def test_chrome_trace_structure():
    doc = _sample_doc()
    assert doc["displayTimeUnit"] == "ns"
    assert doc["metadata"] == {"provider": "x"}
    events = doc["traceEvents"]
    meta = [e for e in events if e["ph"] == "M"]
    # process_name per node + thread_name per (node, category) track
    assert {m["name"] for m in meta} == {"process_name", "thread_name"}
    # pids by first appearance: node0 -> 1, node1 -> 2
    procs = {m["args"]["name"]: m["pid"] for m in meta
             if m["name"] == "process_name"}
    assert procs == {"node0": 1, "node1": 2}
    instants = [e for e in events if e["ph"] == "i"]
    assert [e["name"] for e in instants] == ["post", "tx", "reap"]
    assert all(e["s"] == "t" for e in instants)
    # non-JSON-safe info values are stringified, not dropped
    reap = instants[-1]
    assert isinstance(reap["args"]["obj"], str)
    complete, = [e for e in events if e["ph"] == "X"]
    assert (complete["ts"], complete["dur"]) == (0.0, 1.5)


def test_dumps_trace_accepts_tracer_and_is_deterministic(tmp_path):
    tracer = Tracer()
    tracer.emit(1.0, "host", "post", "node0")
    text = dumps_trace(tracer)
    assert text == dumps_trace(list(tracer.events))
    path = tmp_path / "trace.json"
    write_chrome_trace(path, tracer)
    assert path.read_text() == text
    json.loads(text)


# ---------------------------------------------------------------------------
# Measurement.get / BenchResult.point contract (unified: both raise)


def test_measurement_get_raises_on_unknown_metric():
    m = Measurement(4, latency_us=10.0, extra={"overhead_us": 1.0})
    assert m.get("latency_us") == 10.0
    assert m.get("overhead_us") == 1.0
    assert m.get("bandwidth_mbs") is None      # known field, just unset
    with pytest.raises(KeyError):
        m.get("no_such_metric")
    assert m.get("no_such_metric", None) is None
    assert m.get("no_such_metric", 42) == 42


def test_benchresult_point_raises_like_get():
    r = BenchResult("b", "clan", [Measurement(4, latency_us=1.0)])
    with pytest.raises(KeyError):
        r.point(1024)
    assert r.series("tps") == [(4, None)]
    assert r.meta == {}


def test_merge_tables_with_mismatched_metric_sets():
    """Points missing a metric (or a param) render as '-', never raise."""
    a = BenchResult("b", "mvia", [
        Measurement(4, extra={"overhead_us": 1.0}),
        Measurement(1024, extra={"overhead_us": 2.0}),
    ])
    b = BenchResult("b", "clan", [
        Measurement(4, latency_us=9.0),     # no overhead_us at all
    ])
    table = merge_tables([a, b], "overhead_us")
    lines = table.splitlines()
    assert lines[1].split() == ["param", "mvia", "clan"]
    assert lines[2].split() == ["4", "1.00", "-"]
    assert lines[3].split() == ["1024", "2.00", "-"]


def test_repository_roundtrips_meta(tmp_path):
    from repro.vibe.repository import ResultRepository

    result = BenchResult("b", "clan", [Measurement(4, latency_us=1.0)],
                         params={"sizes": [4]},
                         meta={"provider": "clan", "version": "1.0.0"})
    repo = ResultRepository(tmp_path)
    repo.save("plat", result)
    loaded = repo.load("plat", "b")
    assert loaded.meta == result.meta
    assert loaded.params == result.params


# ---------------------------------------------------------------------------
# harvesting a real (tiny) run


def test_harvest_testbed_publishes_layered_metrics():
    from repro.obs.harvest import harvest_testbed
    from repro.obs.profile import profile_transfer

    prof = profile_transfer("clan", size=64)
    # harvest_testbed is the standalone flavour; the registry embedded in
    # the profile was filled by harvest_into plus live histogram sites
    names = set(prof.registry.names())
    for expected in (
        "sim.events_run", "sim.ctx_switches", "sim.now_us",
        "cpu.node0.client.utime_us", "cpu.node0.client.poll_us",
        "nic.node0.doorbells", "nic.node0.dma.bytes",
        "nic.node1.tlb.hits", "via.node0.send.posted",
        "via.node1.cq.notifications", "wire.switch.forwarded",
        "wire.node0.up.packets", "wire.node1.down.delivered",
    ):
        assert expected in names, expected
    snap = prof.registry.snapshot()
    assert snap["via.node0.send.posted"]["value"] == \
        snap["via.node0.send.completed"]["value"] >= 1
    assert snap["cpu.node0.client.poll_us"]["value"] > 0
    # live histogram sites fire only when sim.metrics is attached
    assert snap["via.node0.msg_sent_bytes"]["count"] == 1


def test_profile_runs_waits_in_place_at_every_layer(monkeypatch):
    """The canonical clan ping-pong takes every spin-wait CPU grant in
    place, and some of its CPU holds, DMA holds, receive-engine holds
    and engine steps; ``sim.inplace_events`` holds exactly the queue
    entries those stood for, and the summary prints it.  (Most CPU holds
    queue here: both nodes' setup charges fall at the same instants and
    the data phase overlaps NIC work.)  Pinned so no site stops running
    in place silently.  A plain grant is asked for only by the spin-wait:
    a send engine's grant always queues."""
    import sys

    from repro.obs.profile import profile_transfer

    calls = []
    real = Simulator.advance

    def spy(sim, delay, entries=1):
        ok = real(sim, delay, entries)
        frame = sys._getframe(1)
        via = frame.f_code.co_name
        if via in ("advance_hold", "advance_grant"):
            frame = frame.f_back
        calls.append((frame.f_code.co_name, via, ok, entries))
        return ok

    monkeypatch.setattr(Simulator, "advance", spy)
    prof = profile_transfer("clan", size=64)
    in_place = {site for site, _, ok, _ in calls if ok}
    assert {"busy", "_acquire_cpu", "transfer", "_rx_data", "_finish",
            "send_message"} <= in_place
    assert all(ok for site, _, ok, _ in calls if site == "_acquire_cpu")
    assert {site for site, via, _, _ in calls
            if via == "advance_grant"} == {"_acquire_cpu"}
    entries = sum(n for _, _, ok, n in calls if ok)
    assert prof.registry.get("sim.inplace_events").value == entries > 0
    assert f"run in place   {entries:8d}" in prof.summary()


@pytest.mark.parametrize("fidelity", ["auto", "flow"])
def test_profile_without_a_trace_prints_no_zero_breakdown(fidelity):
    """A fast-forwarded profile attaches no tracer, so it has no phases:
    the summary says the breakdown needs packet fidelity instead of
    printing a zero one-way total beside a real rtt."""
    from repro.obs.profile import profile_transfer

    prof = profile_transfer("bvia", fidelity=fidelity)
    summary = prof.summary()
    assert prof.rtt_us > 0
    assert "one-way total" not in summary
    assert "breakdown      needs --fidelity packet" in summary
    packet = profile_transfer("bvia").summary()
    assert "one-way total" in packet and "needs --fidelity" not in packet
