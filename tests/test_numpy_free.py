"""numpy stays off the simulation's import path.

Only the LogP fit (:mod:`repro.models.logp`) uses numpy.  Simulating,
serving and fingerprinting must neither import it nor behave
differently without it, so every benchmark process skips its import
time and memory.
"""

from __future__ import annotations

import os
import pathlib
import subprocess
import sys

import numpy as np

from repro.snap import fingerprint

_SIMULATE_PROG = """\
import sys
import repro.providers, repro.vibe, repro.cluster, repro.serve
from repro.serve import ExperimentSpec
from repro.vibe import run_benchmark

run_benchmark("base_latency", "clan", sizes=[4])
ExperimentSpec.from_dict({"kind": "run",
                          "params": {"benchmark": "base_latency",
                                     "sizes": [4, 1024]}})
print("numpy" in sys.modules)
"""


def test_simulation_and_serving_do_not_import_numpy():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(pathlib.Path(__file__).parent.parent / "src")]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    out = subprocess.run([sys.executable, "-c", _SIMULATE_PROG],
                         env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"


def test_fingerprint_tells_arrays_apart():
    base = np.arange(6, dtype=np.int64).reshape(2, 3)
    changed_byte = base.copy()
    changed_byte[1, 2] = 99
    variants = [base.astype(np.int32), base.reshape(3, 2), changed_byte]
    assert fingerprint(base) == fingerprint(base.copy())
    assert len({fingerprint(v) for v in [base] + variants}) == 4
