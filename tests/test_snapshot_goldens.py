"""Behaviour golden and cross-process canonicality.

The golden pins what a one-iteration ping-pong *does* on every
provider: :func:`repro.programs.pingpong`'s connect -> send -> reply ->
disconnect program at seed 0, recorded as its result board plus its
harvested metrics without the kernel's own ``sim.*`` accounting.  It
moves when simulated behaviour moves (a completion time, a DMA count,
a wire byte) and never because an object gained, lost or reshaped a
private attribute.

Regenerate after an *intentional* behaviour change with::

    GOLDEN_REGEN=1 PYTHONPATH=src python -m pytest tests/test_snapshot_goldens.py

and review the fixture diff like any other golden change.

The reproducibility tests pin that a run is a pure function of how it
was built and how many events have run: a traced ping-pong cut at event
150 and finished hashes the same whatever ran earlier in the process
and under any ``PYTHONHASHSEED``.
"""

import hashlib
import json
import os
import pathlib
import subprocess
import sys

import pytest

from repro import programs
from repro.obs.harvest import harvest_testbed
from repro.providers.registry import Testbed
from repro.sim.trace import Tracer

FIXTURES = pathlib.Path(__file__).parent / "fixtures"
GOLDENS = FIXTURES / "golden_snapshots.json"
PROVIDERS = ("mvia", "bvia", "clan", "iba")


def _behaviour(provider: str) -> dict:
    tb = Testbed(provider, seed=0)
    prog = programs.pingpong(tb, size=256, count=1)
    prog.run()
    tb.run()
    harvest = {name: value for name, value
               in harvest_testbed(tb).snapshot().items()
               if not name.startswith("sim.")}
    tb.close()
    # through JSON, so tuples compare as the lists the fixture holds
    return json.loads(json.dumps({"board": prog.board, "harvest": harvest}))


def test_golden_behaviour():
    got = {p: _behaviour(p) for p in PROVIDERS}
    if os.environ.get("GOLDEN_REGEN"):  # pragma: no cover - maintenance aid
        GOLDENS.write_text(json.dumps(got, indent=1, sort_keys=True) + "\n")
    assert got == json.loads(GOLDENS.read_text())


# ---------------------------------------------------------------------------
# a cut-and-finished run is reproducible in process and across processes
# ---------------------------------------------------------------------------

def behaviour_digest(provider: str) -> str:
    """SHA-256 of the board, harvest and trace of a traced two-message
    ping-pong paused at event 150 and then finished."""
    tb = Testbed(provider, seed=0)
    tb.sim.tracer = Tracer()
    prog = programs.pingpong(tb, size=256, count=2)
    tb.sim.run_events(150)
    prog.run()
    tb.run()
    trace = [(e.t, e.category, e.label, e.node) for e in tb.sim.tracer.events]
    seen = repr((prog.board, harvest_testbed(tb).snapshot(), trace))
    tb.close()
    return hashlib.sha256(seen.encode()).hexdigest()


@pytest.fixture(scope="module")
def digests() -> dict:
    return {p: behaviour_digest(p) for p in PROVIDERS}


@pytest.mark.parametrize("provider", PROVIDERS)
def test_behaviour_is_reproducible_in_process(digests, provider):
    """Re-running the same cut yields the same behaviour no matter what
    ran earlier in the process: a benchmark that allocates ids without
    resetting them runs first."""
    from repro.vibe import run_benchmark

    run_benchmark("base_latency", provider, sizes=[4])
    assert behaviour_digest(provider) == digests[provider]


_DIGESTS_PROG = """\
from test_snapshot_goldens import PROVIDERS, behaviour_digest

print([behaviour_digest(p) for p in PROVIDERS])
"""


def _digests_under(seed: str) -> str:
    here = pathlib.Path(__file__).parent
    env = dict(os.environ, PYTHONHASHSEED=seed)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(here.parent / "src"), str(here)]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    out = subprocess.run([sys.executable, "-c", _DIGESTS_PROG],
                         env=env, capture_output=True, text=True, check=True)
    return out.stdout.strip()


def test_behaviour_independent_of_hash_randomization(digests):
    """A cut-and-finished run hashes identically across interpreters
    with different PYTHONHASHSEED values — set iteration order, dict
    randomization, and id() churn never reach what it does."""
    want = repr([digests[p] for p in PROVIDERS])
    assert _digests_under("1") == want
    assert _digests_under("42") == want
