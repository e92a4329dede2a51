"""CLI surface of the checkpoint/restore subsystem.

`vibe cluster --checkpoint-dir` and `vibe chaos --rewind` are exercised
through :func:`repro.cli.main` — the same entry CI drives — plus the
:func:`rewind_scenario` API underneath.  The byte-identity claim (cold
report == resumed report) is asserted on the emitted JSON files,
mirroring the CI ``snap`` job's ``cmp`` steps.
"""

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
    assert rw.checkpoint_bytes < 4096, \
        "replay checkpoints store a recipe, not the object graph"
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


def test_chaos_rewind_cli_unknown_scenario_fails():
    with pytest.raises(KeyError):
        main(["chaos", "--rewind", "--scenario", "no_such_scenario"])
