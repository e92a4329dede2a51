"""The cluster sweep must be byte-deterministic for any execution plan.

Same seed => byte-identical JSON report; the parallel executor must not
change a single byte relative to the serial run.  These are the cluster
counterparts of the suite-wide determinism fixtures.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.cluster import ClusterConfig, run_cluster, run_cluster_once

CFG = ClusterConfig(nodes=4, clients=4, requests=4, window=2)
RATES = (4_000.0, 16_000.0)


def test_same_seed_same_point():
    a = run_cluster_once("mvia", CFG, 8_000.0)
    b = run_cluster_once("mvia", CFG, 8_000.0)
    assert a == b


def test_different_seed_different_schedule():
    a = run_cluster_once("mvia", CFG, 8_000.0)
    b = run_cluster_once("mvia", replace(CFG, seed=1), 8_000.0)
    # Poisson arrivals reshuffle, so the latency curve must move
    assert a["realized_rps"] != b["realized_rps"]


def test_report_json_is_byte_identical_across_runs():
    a = run_cluster(("mvia", "bvia"), CFG, rates=RATES)
    b = run_cluster(("mvia", "bvia"), CFG, rates=RATES)
    assert a.to_json() == b.to_json()


@pytest.mark.parametrize("topology,nodes,servers", [
    ("star", 4, 1), ("dumbbell", 6, 2), ("fattree", 8, 2)])
def test_parallel_sweep_matches_serial_byte_for_byte(topology, nodes, servers):
    cfg = replace(CFG, topology=topology, nodes=nodes, servers=servers)
    serial = run_cluster(("mvia", "bvia"), cfg, rates=RATES, jobs=1)
    fanned = run_cluster(("mvia", "bvia"), cfg, rates=RATES, jobs=2)
    assert serial.to_json() == fanned.to_json()


def test_chaos_cluster_cell_is_deterministic():
    from repro.faults.chaos import run_scenario
    from repro.faults.scenarios import get_scenario

    sc = get_scenario("many_clients")
    a = run_scenario("clan", sc, seed=3, quick=True)
    b = run_scenario("clan", sc, seed=3, quick=True)
    assert a.to_dict() == b.to_dict()


def test_default_path_matches_pre_policy_golden():
    """The overload layer must not move a byte of the default path.

    ``tests/fixtures/golden_cluster_point.json`` was recorded before the
    retry/admission policies existed; with ``retry="off"`` and
    ``server_policy="none"`` (the defaults) every pre-existing key of
    the point must still match it exactly.
    """
    import json
    from pathlib import Path

    golden = json.loads((Path(__file__).parent / "fixtures"
                         / "golden_cluster_point.json").read_text())
    points = {
        "mvia_open_8k": run_cluster_once("mvia", CFG, 8_000.0),
        "clan_closed": run_cluster_once(
            "clan", ClusterConfig(nodes=4, clients=4, requests=4,
                                  window=2, mode="closed"), None),
    }
    for cell, want in golden.items():
        got = points[cell]
        mismatched = {k: (want[k], got.get(k))
                      for k in want if got.get(k) != want[k]}
        assert not mismatched, mismatched
