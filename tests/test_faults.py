"""Fault-injection subsystem: plan validation, JSON round-trips,
injector determinism, and the zero-cost-when-disabled contract.

The byte-identity tests are the heart of the contract: a testbed with no
plan, an empty plan, or an armed plan whose windows never open must
produce the exact same trace as one built before ``repro.faults``
existed.
"""

import pytest

from repro.faults import FaultInjector, FaultPlan, FaultSpec, attach_faults
from repro.faults.plan import DELIVERY_KINDS, WIRE_KINDS
from repro.obs.profile import _reset_id_counters
from repro.providers import Testbed
from repro.sim.trace import Tracer
from repro.via import CompletionStatus, Reliability

from conftest import connected_endpoints, run_pair, simple_recv, simple_send


# ---------------------------------------------------------------------------
# FaultSpec / FaultPlan data model
# ---------------------------------------------------------------------------

def test_spec_rejects_unknown_kind():
    with pytest.raises(ValueError, match="unknown fault kind"):
        FaultSpec(kind="gremlin")


@pytest.mark.parametrize("kwargs", [
    {"kind": "wire_loss", "at": -1.0},
    {"kind": "wire_loss", "duration": 0.0},
    {"kind": "wire_loss", "rate": 0.0},
    {"kind": "wire_loss", "rate": 1.5},
    {"kind": "wire_reorder"},                 # needs magnitude
    {"kind": "cpu_jitter"},                   # needs magnitude
    {"kind": "cpu_stall"},                    # needs duration
    {"kind": "wire_loss", "skip": -1},
    {"kind": "tlb_flush", "count": 0},
])
def test_spec_validation(kwargs):
    with pytest.raises(ValueError):
        FaultSpec(**kwargs)


def test_spec_window():
    spec = FaultSpec(kind="wire_loss", at=100.0, duration=50.0)
    assert not spec.active(99.9)
    assert spec.active(100.0)
    assert spec.active(149.9)
    assert not spec.active(150.0)
    open_ended = FaultSpec(kind="wire_loss", at=10.0)
    assert open_ended.end == float("inf")
    assert open_ended.active(1e12)


def test_spec_dict_omits_defaults():
    assert FaultSpec(kind="dma_abort").to_dict() == {"kind": "dma_abort"}
    d = FaultSpec(kind="wire_loss", rate=0.5, at=7.0).to_dict()
    assert d == {"kind": "wire_loss", "rate": 0.5, "at": 7.0}


def test_plan_json_round_trip():
    plan = FaultPlan(name="storm", seed=3, faults=(
        FaultSpec(kind="wire_corrupt", rate=0.25),
        FaultSpec(kind="link_down", target="node0.up", at=100.0,
                  duration=500.0),
        FaultSpec(kind="tlb_flush", at=50.0, count=4, period=10.0),
        FaultSpec(kind="cpu_stall", target="node1", at=5.0, duration=20.0),
    ))
    again = FaultPlan.from_json(plan.to_json())
    assert again == plan
    # and the encoding is stable, so plans can live in fixture files
    assert again.to_json() == plan.to_json()


def test_plan_shifted_moves_every_window():
    plan = FaultPlan(faults=(
        FaultSpec(kind="wire_loss", at=10.0, duration=5.0),
        FaultSpec(kind="dma_abort", at=0.0),
    ))
    moved = plan.shifted(100.0)
    assert [s.at for s in moved.faults] == [110.0, 100.0]
    assert moved.faults[0].end == 115.0
    assert plan.faults[0].at == 10.0  # original untouched


def test_affects_delivery_classification():
    for kind in sorted(WIRE_KINDS | {"dma_abort"}):
        kwargs = {"magnitude": 1.0} if kind == "wire_reorder" else {}
        assert FaultPlan(faults=(FaultSpec(kind=kind, **kwargs),)).affects_delivery
        assert kind in DELIVERY_KINDS
    benign = FaultPlan(faults=(
        FaultSpec(kind="doorbell_drop"),
        FaultSpec(kind="tlb_flush"),
        FaultSpec(kind="cpu_stall", duration=5.0),
    ))
    assert not benign.affects_delivery


# ---------------------------------------------------------------------------
# Injector mechanics
# ---------------------------------------------------------------------------

def test_empty_plan_never_arms():
    tb = Testbed("mvia")
    injector = attach_faults(tb, FaultPlan())
    assert tb.injector is injector
    assert not injector.armed
    assert tb.sim.faults is None


def test_skip_and_count_are_surgical():
    """skip=2, count=1 fires on exactly the third opportunity."""
    tb = Testbed("mvia")
    spec = FaultSpec(kind="wire_loss", skip=2, count=1)
    injector = attach_faults(tb, FaultPlan(faults=(spec,)))
    channel = tb.fabric.node("node0").nic.port
    fates = [injector.wire_fate(channel, None)[0] for _ in range(6)]
    assert fates == ["pass", "pass", "drop", "pass", "pass", "pass"]
    assert injector.injected[0] == 1
    assert injector.counters == {"wire_loss": 1}


def test_rate_stream_is_deterministic_per_seed():
    def fates(seed):
        tb = Testbed("mvia")
        plan = FaultPlan(seed=seed,
                         faults=(FaultSpec(kind="wire_loss", rate=0.5),))
        injector = attach_faults(tb, plan)
        ch = tb.fabric.node("node0").nic.port
        return [injector.wire_fate(ch, None)[0] for _ in range(64)]

    assert fates(1) == fates(1)
    assert fates(1) != fates(2)
    assert "drop" in fates(1) and "pass" in fates(1)


def test_target_prefix_matching():
    tb = Testbed("mvia")
    plan = FaultPlan(faults=(
        FaultSpec(kind="wire_loss", target="node0"),))
    injector = attach_faults(tb, plan)
    ch0 = tb.fabric.node("node0").nic.port
    ch1 = tb.fabric.node("node1").nic.port
    assert injector.wire_fate(ch0, None)[0] == "drop"
    assert injector.wire_fate(ch1, None)[0] == "pass"


# ---------------------------------------------------------------------------
# Byte-identity: disabled / inert faults change nothing
# ---------------------------------------------------------------------------

def _traced_ping(provider="mvia", faults=None):
    """One reliable ping-pong; returns the full (t, cat, label, node)
    event sequence plus the payload the server echoed."""
    _reset_id_counters()
    tb = Testbed(provider, seed=0, faults=faults)
    tracer = Tracer()
    tb.sim.tracer = tracer
    cs, ss = connected_endpoints(tb, reliability=Reliability.RELIABLE_DELIVERY)
    out = {}

    def client():
        h, vi, region, mh = yield from cs()
        desc = yield from simple_send(h, vi, region, mh, b"ping-payload")
        out["status"] = desc.status

    def server():
        h, vi, region, mh = yield from ss()
        _desc, data = yield from simple_recv(h, vi, region, mh, 12)
        out["data"] = data

    run_pair(tb, client(), server())
    assert out["status"] is CompletionStatus.SUCCESS
    assert out["data"] == b"ping-payload"
    return [(ev.t, ev.category, ev.label, ev.node) for ev in tracer.events]


def test_no_plan_and_empty_plan_are_byte_identical():
    assert _traced_ping(faults=None) == _traced_ping(faults=FaultPlan())


def test_armed_but_never_matching_plan_is_byte_identical():
    """A non-delivery fault whose window never opens perturbs nothing:
    the hooks are consulted but every decision is a plain window check."""
    dormant = FaultPlan(faults=(
        FaultSpec(kind="doorbell_drop", at=1e12),
        FaultSpec(kind="cpu_jitter", at=1e12, magnitude=2.0),
    ))
    assert not dormant.affects_delivery
    assert _traced_ping(faults=None) == _traced_ping(faults=dormant)


# ---------------------------------------------------------------------------
# Armed faults actually bite (one spot check per hook family)
# ---------------------------------------------------------------------------

def test_cpu_stall_delays_the_workload():
    # long enough that no parallel slack on the other node can hide it
    base = _traced_ping()
    stalled = _traced_ping(faults=FaultPlan(faults=(
        FaultSpec(kind="cpu_stall", target="node1", at=0.0,
                  duration=20_000.0),)))
    assert stalled[-1][0] > base[-1][0] + 10_000.0


def test_harvest_publishes_fault_counters():
    from repro.obs.metrics import MetricsRegistry
    from repro.obs.harvest import harvest_into

    tb = Testbed("mvia", faults=FaultPlan(faults=(
        FaultSpec(kind="tlb_flush", target="node0", at=0.0, count=3,
                  period=1.0),)))

    def body():
        yield tb.sim.timeout(10.0)

    tb.run(tb.spawn(body(), "idle"))
    reg = MetricsRegistry()
    harvest_into(reg, tb)
    assert reg.get("faults.tlb_flush.injected").value == 3
