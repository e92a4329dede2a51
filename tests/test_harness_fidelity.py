"""The harness benchmarks fast-forward by default, and stay exact.

The ping-pong and stream engines (:mod:`repro.vibe.harness`) move data
one way at a time between two nodes.  On that traffic the flow-level
planner is exact, so :class:`TransferConfig` defaults to ``"flow"`` and
every message of the :data:`FIDELITY_AWARE` benchmarks is planned
arithmetically.  These tests hold that default to the packet kernel:

* every harness benchmark, on every provider, returns the same points
  at the default as at ``fidelity="packet"``;
* a Hypothesis property over the :class:`TransferConfig` fields: both
  engines measure bit-identical results at either fidelity;
* an explicit ``packet`` plans nothing, whether it comes through
  ``run_benchmark``, ``vibe run`` or a served ``run`` spec.
"""

from __future__ import annotations

import json
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.check.differential import ALL_PROVIDERS
from repro.cli import main
from repro.providers.engine import NicEngine
from repro.serve import ExperimentSpec, execute_spec
from repro.via.constants import Reliability, WaitMode
from repro.vibe import TransferConfig, run_bandwidth, run_latency
from repro.vibe.suite import FIDELITY_AWARE, run_benchmark

_TWO = [4, 8192]
#: streams still fill the default 32-message window, in a third of the
#: default 120 messages
_STREAM = {"count": 40}

#: a two-point sweep of every harness benchmark (the reliability pair
#: sweeps its three levels); 8 KiB spans several packets at mvia's and
#: iba's default MTU and at every MTU override below it
SWEEPS = {
    "base_latency": {"sizes": _TWO},
    "base_bandwidth": {"sizes": _TWO, **_STREAM},
    "base_latency_blocking": {"sizes": _TWO},
    "base_bandwidth_blocking": {"sizes": _TWO, **_STREAM},
    "reuse_latency": {"sizes": [8192], "reuse_levels": (1.0, 0.0),
                      "iters": 8},
    "reuse_bandwidth": {"sizes": [8192], "reuse_levels": (1.0, 0.0),
                        "count": 24},
    "cq_latency": {"sizes": _TWO},
    "cq_bandwidth": {"sizes": _TWO, **_STREAM},
    "cq_overhead": {"sizes": _TWO},
    "multivi_latency": {"vi_counts": (1, 8)},
    "multivi_bandwidth": {"vi_counts": (1, 8), **_STREAM},
    "segments_latency": {"segment_counts": (1, 8)},
    "segments_bandwidth": {"segment_counts": (1, 8), **_STREAM},
    "pipeline_bandwidth": {"windows": (1, 16), **_STREAM},
    "mtu_latency": {"mtus": (1024, 9000)},
    "mtu_bandwidth": {"mtus": (1024, 9000), **_STREAM},
    "reliability_latency": {},
    "reliability_bandwidth": _STREAM,
}


def _points(result) -> str:
    """Every simulated point of a result, at full float precision.

    ``params`` are left out: a benchmark that records its overrides
    there names ``fidelity`` only when it was passed."""
    results = result if isinstance(result, list) else [result]
    return repr([r.points for r in results])


@pytest.fixture
def plans(monkeypatch) -> list:
    """Every burst plan ``NicEngine._plan_burst`` hands back."""
    made: list = []
    real = NicEngine._plan_burst

    def counting(self, *args):
        plan = real(self, *args)
        if plan is not None:
            made.append(plan)
        return plan

    monkeypatch.setattr(NicEngine, "_plan_burst", counting)
    return made


def test_sweeps_cover_every_harness_benchmark():
    assert set(SWEEPS) == FIDELITY_AWARE


@pytest.mark.parametrize("provider", ALL_PROVIDERS)
@pytest.mark.parametrize("bench", sorted(SWEEPS))
def test_default_fidelity_equals_packet(bench, provider):
    kwargs = SWEEPS[bench]
    default = run_benchmark(bench, provider, **kwargs)
    packet = run_benchmark(bench, provider, fidelity="packet", **kwargs)
    assert _points(default) == _points(packet)


@st.composite
def transfer_case(draw):
    size = draw(st.integers(min_value=1, max_value=20_000))
    cfg = TransferConfig(
        size=size,
        iters=draw(st.integers(min_value=1, max_value=4)),
        warmup=draw(st.integers(min_value=0, max_value=2)),
        count=draw(st.integers(min_value=1, max_value=12)),
        window=draw(st.integers(min_value=1, max_value=8)),
        mode=draw(st.sampled_from(list(WaitMode))),
        reliability=draw(st.sampled_from([None, *Reliability])),
        use_recv_cq=draw(st.booleans()),
        use_send_cq=draw(st.booleans()),
        buffer_pool=draw(st.integers(min_value=1, max_value=4)),
        reuse_fraction=draw(st.sampled_from([0.0, 0.25, 0.5, 1.0])),
        extra_vis=draw(st.integers(min_value=0, max_value=3)),
        segments=draw(st.integers(min_value=1, max_value=min(4, size))),
        mtu=draw(st.sampled_from([None, 512, 1024, 1500, 4096, 9000])),
    )
    engine = draw(st.sampled_from([run_latency, run_bandwidth]))
    return draw(st.sampled_from(ALL_PROVIDERS)), engine, cfg


@given(transfer_case())
@settings(max_examples=100, deadline=None)
def test_engines_default_bit_identical_to_packet(case):
    """Lossless configs only: a lossy one arms the retransmission
    machinery, which makes every plan decline at any fidelity."""
    provider, engine, cfg = case
    assert cfg.fidelity == "flow"
    default = engine(provider, cfg)
    packet = engine(provider, replace(cfg, fidelity="packet"))
    assert repr(default) == repr(packet)


def test_run_benchmark_plans_bursts_by_default(plans):
    run_benchmark("base_bandwidth", "mvia", sizes=[4096])
    assert plans


def test_explicit_packet_plans_no_bursts(plans):
    result = run_benchmark("base_bandwidth", "mvia", sizes=[4096],
                           fidelity="packet")
    assert plans == []
    assert result.meta["params"]["fidelity"] == "'packet'"


def test_default_meta_does_not_name_fidelity():
    result = run_benchmark("base_latency", "mvia", sizes=[4])
    assert "fidelity" not in result.meta["params"]


def test_vibe_run_forwards_an_explicit_packet(plans, tmp_path):
    out = tmp_path / "run.json"
    main(["run", "cq_overhead", "--provider", "clan", "--fidelity",
          "packet", "--json-out", str(out)])
    assert plans == []
    meta = json.loads(out.read_text())["results"][0]["meta"]
    assert meta["params"]["fidelity"] == "'packet'"
    main(["run", "cq_overhead", "--provider", "clan"])
    assert plans


def _run_spec(**params) -> ExperimentSpec:
    return ExperimentSpec.from_dict({"kind": "run", "params": {
        "benchmark": "base_bandwidth", "provider": "mvia",
        "sizes": [4096], **params}})


def test_run_spec_fidelity_is_optional_and_canonical_only_when_given():
    sparse = _run_spec()
    packet = _run_spec(fidelity="packet")
    assert "fidelity" not in sparse.params
    assert packet.params["fidelity"] == "packet"
    assert sparse.result_key() != packet.result_key()


def test_served_spec_honours_an_explicit_packet(plans):
    execute_spec(_run_spec(fidelity="packet"))
    assert plans == []
    body = execute_spec(_run_spec())
    assert plans
    meta = json.loads(body)["results"][0]["meta"]
    assert "fidelity" not in meta["params"]
