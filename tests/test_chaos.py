"""The ``vibe chaos`` campaign machinery, run small and fast.

The full campaign (every scenario x every provider) lives in the CI
``chaos`` job; these tests cover the scenario registry, one real
recovery cell, the report plumbing, and the CLI wiring so the campaign
logic itself stays under the coverage floor.
"""

import json

import pytest

from repro.cli import main
from repro.faults import FaultPlan
from repro.faults.chaos import ChaosReport, run_chaos, run_scenario
from repro.faults.scenarios import SCENARIOS, get_scenario, scenario_names
from repro.via.constants import Reliability


# ---------------------------------------------------------------------------
# Scenario registry
# ---------------------------------------------------------------------------

def test_registry_has_at_least_six_named_scenarios():
    names = scenario_names()
    assert len(names) >= 6
    assert len(set(names)) == len(names)  # unique
    for name in names:
        assert get_scenario(name).name == name


def test_unknown_scenario_is_a_keyerror_listing_known_names():
    with pytest.raises(KeyError, match="blackout_reconnect"):
        get_scenario("nope")


def test_scenario_plans_are_seeded_and_serializable():
    for sc in SCENARIOS:
        plan = sc.plan(seed=3)
        assert isinstance(plan, FaultPlan)
        assert plan.seed == 3
        assert FaultPlan.from_json(plan.to_json()) == plan


def test_registry_covers_both_contracts():
    # at least one scenario promises only invariant-clean loss, and the
    # rest demand full delivery — both arms of the verdict logic run
    assert any(not sc.expect_delivery for sc in SCENARIOS)
    assert any(sc.expect_delivery for sc in SCENARIOS)
    # on the stream workload, not-expecting-delivery means the scenario
    # runs an unreliable level; overload cells judge goodput and SLOs
    # instead, so they sit outside this pairing
    unreliable = [sc for sc in SCENARIOS
                  if sc.workload == "stream" and not sc.expect_delivery]
    assert unreliable
    assert all(sc.reliability is Reliability.UNRELIABLE for sc in unreliable)


@pytest.mark.parametrize("quick", [True, False], ids=["quick", "full"])
def test_data_phase_faults_land_while_the_stream_is_in_flight(quick):
    """A ``phase="data"`` fault starts ``at`` after connect; on every
    provider it must start before the same cell, run without faults,
    completes its last send.  A fault armed after that injects into an
    idle host or link and exercises no recovery at all."""
    import dataclasses

    timed = [sc for sc in SCENARIOS
             if sc.workload == "stream" and sc.phase == "data" and sc.faults]
    assert timed
    last_completion = {}
    for sc in timed:
        quiet = dataclasses.replace(sc, name="quiet", faults=())
        key = (sc.reliability, sc.size, sc.count, sc.window)
        for provider in ("mvia", "bvia", "clan", "iba"):
            if (key, provider) not in last_completion:
                result = run_scenario(provider, quiet, quick=quick)
                assert result.ok and result.elapsed_us > 0
                last_completion[key, provider] = result.elapsed_us
            for fault in sc.faults:
                assert fault.at < last_completion[key, provider], \
                    (sc.name, provider, fault.at)


# ---------------------------------------------------------------------------
# Single cells
# ---------------------------------------------------------------------------

def test_blackout_cell_recovers_through_vi_error_path():
    """The canonical recovery scenario: the blackout exhausts the RTO
    budget, the VI lands in ERROR, and the endpoints drain / reset /
    reconnect / resend until everything is delivered."""
    sc = get_scenario("blackout_reconnect")
    r = run_scenario("mvia", sc, seed=0, quick=True)
    assert r.ok, (r.note, r.violations)
    assert r.delivered == r.expected
    assert r.recoveries >= 1
    assert r.recovery_latency_us > 0
    assert r.faults_injected >= 1


def test_unreliable_cell_passes_without_full_delivery():
    sc = get_scenario("unreliable_loss")
    r = run_scenario("clan", sc, seed=0, quick=True)
    assert r.ok
    assert not r.violations
    assert r.delivered <= r.expected


def test_cell_results_are_deterministic():
    sc = get_scenario("loss_burst")
    a = run_scenario("bvia", sc, seed=2, quick=True)
    b = run_scenario("bvia", sc, seed=2, quick=True)
    assert a.to_dict() == b.to_dict()


# ---------------------------------------------------------------------------
# Campaign + report plumbing
# ---------------------------------------------------------------------------

def test_run_chaos_report_summary_and_json():
    report = run_chaos(providers=("mvia",),
                       scenarios=("loss_burst", "unreliable_loss"),
                       quick=True)
    assert isinstance(report, ChaosReport)
    assert report.ok
    assert len(report.results) == 2
    text = report.summary()
    assert "loss_burst" in text and "unreliable_loss" in text
    assert text.endswith("PASS")
    payload = json.loads(report.to_json())
    assert payload["ok"] is True
    assert payload["providers"] == ["mvia"]
    assert {r["scenario"] for r in payload["results"]} == {
        "loss_burst", "unreliable_loss"}


def test_empty_report_is_not_ok():
    assert not ChaosReport(providers=(), scenarios=()).ok


# ---------------------------------------------------------------------------
# CLI wiring
# ---------------------------------------------------------------------------

def test_cli_chaos_quick_single_cell(tmp_path, capsys):
    out_path = tmp_path / "chaos.json"
    main(["--providers", "iba", "chaos", "--quick",
          "--scenario", "link_flap", "--json-out", str(out_path)])
    out = capsys.readouterr().out
    assert "link_flap" in out
    assert "PASS" in out
    payload = json.loads(out_path.read_text())
    assert payload["ok"] is True
    assert payload["results"][0]["provider"] == "iba"


def test_cli_chaos_rejects_unknown_scenario():
    with pytest.raises(SystemExit) as exited:
        main(["--providers", "mvia", "chaos", "--scenario", "nope"])
    message = str(exited.value.code)
    assert message.startswith("vibe chaos: unknown chaos scenario 'nope'")
    assert "\n" not in message
