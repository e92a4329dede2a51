"""CLI surface of campaign resume and chaos rewind.

`vibe cluster --checkpoint-dir` and `vibe chaos --rewind` are exercised
through :func:`repro.cli.main` — the same entry CI drives — plus the
:func:`rewind_scenario` API underneath.  The byte-identity claim (cold
report == resumed report) is asserted on the emitted JSON files,
mirroring the CI ``cluster`` job's ``cmp`` steps.
"""

import os
import pathlib
import subprocess
import sys

import pytest

from repro.cli import main
from repro.faults.chaos import rewind_scenario
from repro.faults.scenarios import get_scenario
from repro.serve import ResultCache

_CLUSTER_ARGS = ["cluster", "--quick", "--provider", "mvia",
                 "--nodes", "4", "--requests", "4"]


def _cluster_json(tmp_path, name, extra):
    out = tmp_path / name
    main(_CLUSTER_ARGS + ["--json-out", str(out)] + extra)
    return out.read_bytes()


def test_cluster_checkpoint_dir_resumes_byte_identical(tmp_path, capsys):
    ckpt = tmp_path / "ckpt"
    cold = _cluster_json(tmp_path, "cold.json", [])
    first = _cluster_json(tmp_path, "a.json",
                          ["--checkpoint-dir", str(ckpt)])
    cells = sorted(ckpt.glob("cell-*.json"))
    assert cells, "no cells persisted"
    # every persisted cell is an entry that verifies through the store
    store = ResultCache(str(ckpt))
    for cell in cells:
        assert store.get_cell(cell.stem[len("cell-"):]) is not None
    resumed = _cluster_json(tmp_path, "b.json",
                            ["--checkpoint-dir", str(ckpt)])
    assert first == cold
    assert resumed == cold


# ---------------------------------------------------------------------------
# chaos rewind
# ---------------------------------------------------------------------------

def test_rewind_scenario_api():
    rw = rewind_scenario("mvia", get_scenario("loss_burst"), quick=True)
    assert rw.matches_cold
    assert rw.events_traced > 0
    assert rw.result.ok
    assert "loss_burst" in rw.summary() and "ok" in rw.summary()


def test_rewind_refuses_cluster_scenarios():
    with pytest.raises(ValueError):
        rewind_scenario("mvia", get_scenario("many_clients"), quick=True)


def test_chaos_rewind_cli(capsys):
    main(["--providers", "mvia", "chaos", "--rewind", "--quick",
          "--scenario", "loss_burst", "--scenario", "link_flap"])
    out = capsys.readouterr().out
    assert "chaos rewind: 2 scenarios x 1 providers" in out
    assert "loss_burst" in out and "link_flap" in out
    assert "PASS" in out
    assert "FAIL" not in out


def _one_line_exit(*argv: str) -> str:
    """Run ``vibe *argv`` in a fresh interpreter; it must exit 1 with
    one stderr line and no traceback.  Returns that line."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(pathlib.Path(__file__).parent.parent / "src")]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    run = subprocess.run([sys.executable, "-m", "repro.cli", *argv],
                         env=env, capture_output=True, text=True)
    assert run.returncode == 1
    assert run.stderr.count("\n") == 1 and "Traceback" not in run.stderr
    return run.stderr


def test_chaos_rewind_cli_unknown_scenario_fails():
    err = _one_line_exit("chaos", "--rewind", "--scenario",
                         "no_such_scenario")
    assert err.startswith(
        "vibe chaos: unknown chaos scenario 'no_such_scenario'; known: [")


def test_chaos_rewind_cli_without_stream_scenario_fails():
    err = _one_line_exit("chaos", "--rewind", "--quick", "--scenario",
                         "many_clients,retry_storm")
    assert err.startswith("vibe chaos: ") and "many_clients" in err


def test_chaos_rewind_cli_refuses_json_out(tmp_path):
    """The rewind has no JSON report: asking for one is an input error,
    not a PASS that silently writes nothing."""
    out = tmp_path / "rw.json"
    err = _one_line_exit("--providers", "mvia", "chaos", "--rewind",
                         "--quick", "--scenario", "loss_burst",
                         "--json-out", str(out))
    assert err.startswith("vibe chaos: ") and "--json-out" in err
    assert not out.exists()
