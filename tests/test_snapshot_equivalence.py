"""Snapshot/restore equivalence: a restored run IS the original run.

The correctness bar of the ``repro.snap`` subsystem: for *any* snapshot
point — random event cursor, mid-fast-forward, with an armed fault
plan — finishing the original simulation and finishing a restored copy
produce bit-identical observables:

- every descriptor's ``completed_at`` timestamp;
- the full harvested metrics registry (NIC/DMA/TLB/wire/engine/port
  counters, kernel accounting);
- the complete golden trace ``(t, category, label, node)`` sequence.

Hypothesis drives the snapshot point across workload x provider x cut
fraction; dedicated tests pin the tricky cases (fidelity="auto" bursts,
armed FaultPlans).
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import snap
from repro.faults.plan import FaultPlan, FaultSpec
from repro.obs.harvest import harvest_testbed

ALL_PROVIDERS = ("mvia", "bvia", "clan", "iba")
WORKLOADS = ("pingpong", "stream", "rdma_write", "segmented")


def _params(workload: str, provider: str, **over) -> dict:
    p = {"workload": workload, "provider": provider, "size": 256,
         "count": 3, "seed": 0, "trace": True}
    p.update(over)
    return p


def _cold(params: dict) -> snap.Session:
    session = snap.build_session("transfer", params)
    session.drive()
    return session


def _observe(session: snap.Session) -> dict:
    """Everything a finished run exposes, in comparable form."""
    tb = session.testbed
    trace = ()
    if tb.sim.tracer is not None:
        trace = tuple((e.t, e.category, e.label, e.node)
                      for e in tb.sim.tracer.events)
    return {
        "board": session.board,
        "now": tb.sim.now,
        "events_run": tb.sim.events_run,
        "harvest": harvest_testbed(tb).snapshot(),
        "trace": trace,
    }


# ---------------------------------------------------------------------------
# the property: snapshot anywhere, restore, finish -> identical run
# ---------------------------------------------------------------------------

@given(
    workload=st.sampled_from(WORKLOADS),
    provider=st.sampled_from(ALL_PROVIDERS),
    frac=st.floats(min_value=0.0, max_value=1.0,
                   allow_nan=False, allow_infinity=False),
    seed=st.integers(min_value=0, max_value=3),
)
@settings(max_examples=24, deadline=None)
def test_snapshot_anywhere_is_equivalent(workload, provider, frac, seed):
    params = _params(workload, provider, seed=seed)
    ref = _cold(params)
    want = _observe(ref)
    cut = int(frac * want["events_run"])

    session = snap.build_session("transfer", params)
    session.run_events(cut)
    blob = snap.checkpoint_replay(session)
    restored = snap.restore_replay(blob)
    restored.drive()
    assert _observe(restored) == want

    # the interrupted original finishes identically too: taking a
    # snapshot must not perturb the simulation it captured
    session.drive()
    assert _observe(session) == want


# ---------------------------------------------------------------------------
# fidelity="auto": snapshot points inside and outside fast-forward bursts
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("provider,fidelity", [
    # auto bursts only multi-fragment messages, so it needs size > MTU:
    # reachable on mvia (1500) and iba (2048).  bvia/clan MTUs exceed
    # their max_transfer_size — single-fragment always — so their
    # fast-forward path is fidelity="flow", which bursts whole messages.
    ("mvia", "auto"), ("iba", "auto"), ("bvia", "flow"), ("clan", "flow"),
])
def test_snapshot_during_fast_forward(provider, fidelity):
    """Cut every few events through a fast-forwarding streaming run.

    The sweep necessarily lands cursors both inside fast-forwarded
    stretches and in ordinary packet-mode gaps; every one must restore
    to the identical completion.  (No tracer here: an attached tracer
    forces the packet path and no burst would ever arm.)
    """
    params = _params("stream", provider, count=8, size=8192, trace=False,
                     fidelity=fidelity)
    ref = _cold(params)
    want = _observe(ref)
    assert ref.testbed.sim.ff_bursts > 0, \
        "auto fidelity never burst; the test is vacuous"

    total = want["events_run"]
    for cut in range(0, total + 1, max(1, total // 9)):
        session = snap.build_session("transfer", params)
        session.run_events(cut)
        restored = snap.restore_replay(snap.checkpoint_replay(session))
        restored.drive()
        assert _observe(restored) == want, f"diverged at cut {cut}"


# ---------------------------------------------------------------------------
# armed fault plans: live fault state replays too
# ---------------------------------------------------------------------------

# the window blankets the whole run: mvia's connection handshake alone
# runs past 6ms, so a narrow early window would never see a data frame.
# the rate is gentle enough that retransmission always recovers — a
# hard connect failure would error the VI and end the run early
_FAULT_PLAN = FaultPlan(name="snap-eq", seed=5, faults=(
    FaultSpec(kind="wire_loss", at=200.0, duration=80_000.0, rate=0.15),
))


@pytest.mark.parametrize("provider", ("mvia", "clan"))
def test_snapshot_with_armed_fault_plan(provider):
    """Snapshot points before, during, and after an armed loss window
    restore bit-identically — the injector's RNG streams, counters, and
    retransmission state are all part of the replayed history."""
    params = _params("pingpong", provider, count=4, trace=False,
                     faults=_FAULT_PLAN,
                     reliability="reliable_delivery")
    ref = _cold(params)
    want = _observe(ref)
    injector = ref.testbed.injector
    assert injector is not None and sum(injector.counters.values()) > 0, \
        "the plan never injected; the test is vacuous"

    total = want["events_run"]
    for cut in (0, total // 4, total // 2, (3 * total) // 4, total):
        session = snap.build_session("transfer", params)
        session.run_events(cut)
        restored = snap.restore_replay(snap.checkpoint_replay(session))
        restored.drive()
        got = _observe(restored)
        assert got == want, f"diverged at cut {cut}"
        got_inj = restored.testbed.injector
        assert got_inj.counters == injector.counters
