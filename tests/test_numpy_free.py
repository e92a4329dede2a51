"""What the simulation's import path leaves out.

numpy is not a dependency: simulating, serving and the LogP fit
(:mod:`repro.models.logp`) all run without importing it.  A cluster
cell does not import the benchmark suite (:mod:`repro.vibe`),
whose 36 benchmarks a cold start would otherwise compile.
Each check runs in a fresh interpreter, so nothing an earlier test
imported can hide an import.
"""

from __future__ import annotations

import os
import pathlib
import subprocess
import sys

_SIMULATE_PROG = """\
import sys
import repro.providers, repro.vibe, repro.cluster, repro.serve, repro.models
from repro.models import fit_loggp
from repro.serve import ExperimentSpec
from repro.vibe import run_benchmark
from repro.vibe.metrics import BenchResult, Measurement

run_benchmark("base_latency", "clan", sizes=[4])
ExperimentSpec.from_dict({"kind": "run",
                          "params": {"benchmark": "base_latency",
                                     "sizes": [4, 1024]}})
sizes = [4, 1024, 4096]
fit_loggp(
    BenchResult("base_latency", "synth", [
        Measurement(param=s, latency_us=10.0 + 0.01 * s) for s in sizes]),
    BenchResult("base_bandwidth", "synth", [
        Measurement(param=s, bandwidth_mbs=s / (5.0 + 0.01 * s))
        for s in sizes]))
print("numpy" in sys.modules)
"""

_CLUSTER_CELL_PROG = """\
import sys
import repro.cluster
from repro.cluster import ClusterConfig, run_cluster_once

run_cluster_once("mvia", ClusterConfig(nodes=2, clients=2, requests=2),
                 rate_rps=500.0)
print(sorted(m for m in sys.modules if m.startswith("repro.vibe")))
"""


def _run(prog: str) -> str:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(pathlib.Path(__file__).parent.parent / "src")]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    out = subprocess.run([sys.executable, "-c", prog],
                         env=env, capture_output=True, text=True, check=True)
    return out.stdout.strip()


def test_simulation_and_serving_do_not_import_numpy():
    assert _run(_SIMULATE_PROG) == "False"


def test_cluster_cell_does_not_import_the_suite():
    assert _run(_CLUSTER_CELL_PROG) == "[]"
