"""Cut-and-finish equivalence: a run paused anywhere finishes the same.

The kernel is deterministic, so a simulation is fully determined by how
it was built and how many events have run; ``vibe chaos --rewind``
relies on this.  For *any* cut point — random event cursor,
mid-fast-forward, with an armed fault plan — a run paused by
``Simulator.run_events(cut)`` and then finished produces bit-identical
observables to the uninterrupted run:

- every descriptor's ``completed_at`` timestamp and every receive's
  status, payload and immediate data;
- the full harvested metrics registry (NIC/DMA/TLB/wire/engine/port
  counters, kernel accounting);
- the complete golden trace ``(t, category, label, node)`` sequence.

Hypothesis drives the cut across workload x provider x cut fraction;
dedicated tests pin the tricky cases (fidelity="auto" bursts, armed
FaultPlans).
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import programs
from repro.faults.plan import FaultPlan, FaultSpec
from repro.obs.harvest import harvest_testbed
from repro.providers.registry import Testbed
from repro.sim.ids import reset_ids
from repro.sim.trace import Tracer
from repro.via.constants import Reliability

ALL_PROVIDERS = ("mvia", "bvia", "clan", "iba")
WORKLOADS = ("pingpong", "stream", "rdma_write", "segmented")


def _build(workload: str, provider: str, size: int = 256, count: int = 3,
           seed: int = 0, trace: bool = True, fidelity: str = "packet",
           faults=None, reliability=None) -> programs.Program:
    """The ``workload`` program of :mod:`repro.programs` on a fresh
    testbed (``segmented`` is a ping-pong of 4-segment descriptors)."""
    reset_ids()
    tb = Testbed(provider, seed=seed, faults=faults, fidelity=fidelity)
    if trace:
        tb.sim.tracer = Tracer()
    shape = {"size": size, "count": count, "reliability": reliability}
    if workload == "segmented":
        workload, shape["segments"] = "pingpong", 4
    return getattr(programs, workload)(tb, **shape)


def _finish(prog: programs.Program) -> dict:
    """Run ``prog`` to completion, drain, and observe it."""
    prog.run()
    prog.tb.run()
    return _observe(prog)


def _observe(prog: programs.Program) -> dict:
    """Everything a finished run exposes, in comparable form.

    ``sim.inplace_events`` says how the host ran the events, not what
    they were: ``run_events`` (the cut) never runs a wait in place and
    ``run()`` does wherever it can, so a cut run counts fewer.
    ``events_run`` and ``ctx_switches`` must still match.
    """
    sim = prog.tb.sim
    trace = ()
    if sim.tracer is not None:
        trace = tuple((e.t, e.category, e.label, e.node)
                      for e in sim.tracer.events)
    harvest = harvest_testbed(prog.tb).snapshot()
    del harvest["sim.inplace_events"]
    injector = prog.tb.injector
    return {
        "board": prog.board,
        "seen": prog.seen,
        "now": sim.now,
        "events_run": sim.events_run,
        "harvest": harvest,
        "trace": trace,
        "faults": None if injector is None else dict(injector.counters),
    }


def _cut_and_finish(cut: int, **shape) -> dict:
    prog = _build(**shape)
    assert prog.tb.sim.run_events(cut) == cut
    return _finish(prog)


# ---------------------------------------------------------------------------
# the property: cut anywhere, finish -> identical run
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
    shape = {"workload": workload, "provider": provider, "seed": seed}
    want = _finish(_build(**shape))
    cut = int(frac * want["events_run"])
    assert _cut_and_finish(cut, **shape) == want


# ---------------------------------------------------------------------------
# fidelity="auto": cuts inside and outside fast-forward bursts
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
    stretches and in ordinary packet-mode gaps; every one must finish
    with the identical completion.  (No tracer here: an attached tracer
    forces the packet path and no burst would ever arm.)
    """
    shape = {"workload": "stream", "provider": provider, "count": 8,
             "size": 8192, "trace": False, "fidelity": fidelity}
    ref = _build(**shape)
    want = _finish(ref)
    assert ref.tb.sim.ff_bursts > 0, \
        "auto fidelity never burst; the test is vacuous"

    total = want["events_run"]
    for cut in range(0, total + 1, max(1, total // 9)):
        assert _cut_and_finish(cut, **shape) == want, f"diverged at cut {cut}"


# ---------------------------------------------------------------------------
# armed fault plans: live fault state survives the cut
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
    """Cuts before, during, and after an armed loss window finish
    bit-identically — the injector's RNG streams, counters, and
    retransmission state are all part of the run's history."""
    shape = {"workload": "pingpong", "provider": provider, "count": 4,
             "trace": False, "faults": _FAULT_PLAN,
             "reliability": Reliability.RELIABLE_DELIVERY}
    want = _finish(_build(**shape))
    assert sum(want["faults"].values()) > 0, \
        "the plan never injected; the test is vacuous"

    total = want["events_run"]
    for cut in (0, total // 4, total // 2, (3 * total) // 4, total):
        assert _cut_and_finish(cut, **shape) == want, f"diverged at cut {cut}"
