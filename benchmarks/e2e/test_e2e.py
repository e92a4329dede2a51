"""Smoke test of the end-to-end benchmark at 2% of its sizes.

Run with ``python -m pytest benchmarks/e2e -q`` from the repository
root.  The tests call ``run.main`` in-process; it drives every workload
in child interpreters, as the command does.
"""

from __future__ import annotations

import json
import pathlib

import run

CONTRACT = json.loads((run.ROOT / "BENCHMARK.json").read_text())
SMOKE = ["--scale", "0.02", "--seconds", "1"]

#: the layer boundaries each workload's spans must cover
BOUNDARIES = {
    "paper_suite": {"run_benchmark"},
    "bulk_stream": {"Testbed", "tb.run", "harvest_testbed"},
    "cluster_sweep": {"run_cluster_once"},
    "serve_mixed": {"submit", "sse.plan", "sse.cell", "sse.done", "result"},
}


def main(capsys, *args: str) -> tuple:
    """Run the command; returns (exit code, stdout lines, final JSON)."""
    code = run.main(list(args))
    lines = capsys.readouterr().out.strip().splitlines()
    return code, lines, json.loads(lines[-1])


def test_every_metric_printed_with_unit(tmp_path, capsys):
    rows_path = tmp_path / "rows.json"
    code, lines, final = main(capsys, *SMOKE, "--json-out", str(rows_path))
    assert code == 0, "\n".join(lines)
    assert final["correct"] and final["failed"] == 0
    assert final["attempted"] > 0
    rows = json.loads(rows_path.read_text())
    assert [r["workload"] for r in rows] == list(BOUNDARIES)
    for row in rows:
        assert row["digest_pinned"], row["digest_key"]
        for m in CONTRACT["end_to_end"]:
            got = final["metrics"][f"{row['workload']}/{m['name']}"]
            assert got["unit"] == m["unit"]
            assert got["value"] > 0
            assert any(line.split()[:1] == [m["name"]]
                       and m["unit"] in line.split() for line in lines)


def test_tampered_digest_fails_the_run(tmp_path, capsys, monkeypatch):
    pinned = json.loads(run.DIGESTS.read_text())
    pinned["paper_suite/scale=0.02"] = "0" * 64
    tampered = tmp_path / "digests.json"
    tampered.write_text(json.dumps(pinned))
    monkeypatch.setattr(run, "DIGESTS", tampered)
    code, lines, final = main(capsys, *SMOKE, "--workload", "paper_suite")
    assert code != 0
    assert not final["correct"]
    assert final["failed"] == final["attempted"] > 0
    assert any("CHECK FAILED: output digest" in line for line in lines)


def test_crashed_workload_fails_its_ops_and_the_run_goes_on(capsys,
                                                            monkeypatch):
    spawned = []

    def crash(args, workload, mode, timeout):
        spawned.append(workload)
        raise RuntimeError(f"{workload} {mode} child exited with 1")

    monkeypatch.setattr(run, "spawn", crash)
    code, lines, final = main(capsys, *SMOKE)
    assert code != 0
    assert spawned == list(BOUNDARIES)
    assert final == {"correct": False, "attempted": 4, "failed": 4,
                     "metrics": {}}
    assert sum("CHECK FAILED: crashed" in line for line in lines) == 4


def test_traced_run_spans_and_layer_split(tmp_path, capsys):
    rows_path = tmp_path / "rows.json"
    code, lines, final = main(capsys, *SMOKE, "--trace", "1", "--trace-out",
                              str(tmp_path), "--json-out", str(rows_path))
    assert code == 0, "\n".join(lines)
    assert final["correct"]
    names = {m["name"] for m in CONTRACT["per_layer"]}
    for row in json.loads(rows_path.read_text()):
        workload = row["workload"]
        assert set(row["metrics"]) == names
        assert BOUNDARIES[workload] <= set(row["result"]["span_names"])
        total = sum(m["value"] for name, m in row["metrics"].items()
                    if name.endswith(".self_frac"))
        assert abs(total - 1.0) <= 0.01, (workload, total)
        trace = json.loads(pathlib.Path(row["result"]["trace_file"])
                           .read_text())
        spans = [e for e in trace["traceEvents"] if e["ph"] == "X"]
        assert {e["name"] for e in spans} >= BOUNDARIES[workload]
        assert all(e["dur"] >= 0 for e in spans)
