"""Golden-trace regression suite (observability layer).

One canonical poll-mode ping-pong per provider, with the full
``(t, category, label, node)`` event sequence pinned as a fixture.  Any
change to event ordering, timing, labels, or the instrumentation points
fails loudly here — the trace is part of the kernel's determinism
contract, exactly like the golden latency floats in
``test_determinism.py``.  Two more outputs built on traced transfers
are pinned beside it: the profile's metrics (without the kernel's own
``sim.*`` accounting, as ``golden_snapshots.json`` leaves it out) and
the printed ``vibe breakdown --compare`` table.

Regenerate the fixtures after an *intentional* trace change with::

    GOLDEN_REGEN=1 PYTHONPATH=src python -m pytest tests/test_golden_trace.py

and review the fixture diff like any other golden change.
"""

import json
import os
import pathlib

import pytest

from repro.cli import main
from repro.obs.profile import profile_transfer

FIXTURES = pathlib.Path(__file__).parent / "fixtures"
PROVIDERS = ("mvia", "bvia", "clan", "iba")
SIZE, SEED = 256, 0
#: 16 KiB is where bvia's rx_processing is sensitive to how the client
#: waits for the receiver's repost before its second message
BREAKDOWN_SIZES = (1024, 16384)


def _check_golden(path: pathlib.Path, got) -> None:
    got = json.loads(json.dumps(got))  # tuples compare as JSON lists
    if os.environ.get("GOLDEN_REGEN"):  # pragma: no cover - maintenance aid
        path.write_text(json.dumps(got, indent=1, sort_keys=True) + "\n")
    assert got == json.loads(path.read_text())


def _sequence(profile):
    return [[ev.t, ev.category, ev.label, ev.node] for ev in profile.events]


@pytest.fixture(scope="module")
def profiles():
    return {p: profile_transfer(p, size=SIZE, seed=SEED) for p in PROVIDERS}


@pytest.mark.parametrize("provider", PROVIDERS)
def test_golden_event_sequence(profiles, provider):
    """Exact equality on purpose — see module docstring."""
    got = _sequence(profiles[provider])
    path = FIXTURES / f"golden_trace_{provider}.json"
    if os.environ.get("GOLDEN_REGEN"):  # pragma: no cover - maintenance aid
        path.write_text(json.dumps(got, indent=1) + "\n")
    want = json.loads(path.read_text())
    assert got == want


@pytest.mark.parametrize("provider", PROVIDERS)
def test_phases_telescope(profiles, provider):
    """The nine breakdown phases tile the one-way path contiguously."""
    phases = [s for s in profiles[provider].spans if s.category == "phase"]
    assert [s.name for s in phases] == [
        "post", "staging", "dispatch", "translation", "tx_dma", "wire",
        "rx_processing", "reap", "rx_kernel",
    ]
    for a, b in zip(phases, phases[1:]):
        assert a.end == b.start
    total = phases[-1].end - phases[0].start
    assert total == pytest.approx(sum(s.duration for s in phases))
    # the one-way path is bounded by the measured round trip
    assert 0 < total < profiles[provider].rtt_us


@pytest.mark.parametrize("provider", PROVIDERS)
def test_trace_json_is_perfetto_loadable(profiles, provider):
    doc = json.loads(profiles[provider].trace_json())
    assert doc["displayTimeUnit"] == "ns"
    events = doc["traceEvents"]
    phs = {ev["ph"] for ev in events}
    assert phs == {"M", "i", "X"}             # metadata, instants, spans
    for ev in events:
        assert ev["pid"] >= 1
        if ev["ph"] != "M":
            assert ev["ts"] >= 0
        if ev["ph"] == "X":
            assert ev["dur"] >= 0


@pytest.mark.parametrize("provider", PROVIDERS)
def test_metrics_snapshot_consistent_with_trace(profiles, provider):
    prof = profiles[provider]
    snap = prof.registry.snapshot()
    # every event the tracer saw was run by the kernel
    assert snap["sim.events_run"]["value"] > 0
    assert snap["sim.now_us"]["value"] >= prof.rtt_us
    # one message each way
    for node in ("node0", "node1"):
        assert snap[f"via.{node}.messages_sent"]["value"] == 1
        assert snap[f"via.{node}.messages_received"]["value"] == 1
        assert snap[f"nic.{node}.doorbells"]["value"] >= 2
    assert prof.meta["provider"] == prof.provider
    assert prof.meta["params"] == {
        "size": SIZE, "seed": SEED, "benchmark": "profile_pingpong",
    }


def test_golden_profile_metrics(profiles):
    _check_golden(FIXTURES / "golden_profile_metrics.json", {
        p: {name: value for name, value
            in profiles[p].registry.snapshot().items()
            if not name.startswith("sim.")}
        for p in PROVIDERS})


def test_golden_breakdown_compare(capsys):
    got = {}
    for size in BREAKDOWN_SIZES:
        main(["--providers", ",".join(PROVIDERS), "breakdown", "--compare",
              "--size", str(size)])
        got[str(size)] = capsys.readouterr().out
    _check_golden(FIXTURES / "golden_breakdown_compare.json", got)
