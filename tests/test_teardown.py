"""Finished testbeds are freed by reference counting.

With the cyclic collector off, every :class:`Simulator` and every
:class:`Node` a call builds must be dead once the call returns.  A
:class:`Process` holds its simulator, so a dead simulator also proves
that no process of it survived.  Without ``Testbed.close()`` (and the
kernel dropping its own cycles) each testbed would wait for a full
collection, which is what set the suite's peak memory.
"""

import gc
import weakref

import pytest

from repro.hw.node import Node
from repro.sim import Simulator
from repro.vibe import SUITE, run_benchmark

#: one point per sweep, or two where a benchmark's cycles hide in the
#: second (``async_latency``'s long delay, ``tail_latency``'s high load)
SWEEPS = {
    "memreg": {"sizes": [4096]},
    "base_latency": {"sizes": [4]},
    "base_bandwidth": {"sizes": [4096]},
    "base_latency_blocking": {"sizes": [4]},
    "base_bandwidth_blocking": {"sizes": [4096]},
    "reuse_latency": {"sizes": [4096], "reuse_levels": (0.0,)},
    "reuse_bandwidth": {"sizes": [4096], "reuse_levels": (0.0,)},
    "cq_latency": {"sizes": [4]},
    "cq_bandwidth": {"sizes": [4096]},
    "cq_overhead": {"sizes": [1024]},
    "multivi_latency": {"vi_counts": (8,)},
    "multivi_bandwidth": {"vi_counts": (8,)},
    "segments_latency": {"segment_counts": (8,)},
    "segments_bandwidth": {"segment_counts": (8,)},
    "async_latency": {"delays": (0.0, 400.0)},
    "rdma_write_latency": {"sizes": [4096]},
    "rdma_read_latency": {"sizes": [4096]},
    "pipeline_bandwidth": {"windows": (16,)},
    "mtu_latency": {"mtus": (1500,)},
    "mtu_bandwidth": {"mtus": (1500,)},
    "client_server": {"reply_sizes": [1024]},
    "multiclient_throughput": {"client_counts": (4,)},
    "msg_layer_latency": {"sizes": [4096]},
    "msg_layer_bandwidth": {"sizes": [16384]},
    "eager_threshold": {"thresholds": (1024,)},
    "getput_latency": {"sizes": [4096]},
    "dsm_fault_latency": {"page_sizes": (4096,)},
    "collective_latency": {"group_sizes": (8,)},
    "tail_latency": {"loads": (0.3, 0.9), "requests": 40},
    "stream_throughput": {"chunks": (16384,)},
    "concurrent_streams": {"stream_counts": (4,)},
}


@pytest.fixture
def survivors(monkeypatch):
    """Run a call with the collector off; return what it left alive."""
    refs: list = []
    for cls in (Simulator, Node):
        init = cls.__init__

        def tracked(self, *args, _init=init, **kwargs):
            _init(self, *args, **kwargs)
            refs.append(weakref.ref(self))

        monkeypatch.setattr(cls, "__init__", tracked)

    def run(fn):
        refs.clear()
        gc.disable()
        try:
            fn()
            alive = [type(r()).__name__ for r in refs if r() is not None]
        finally:
            gc.enable()
        assert refs, "the call built no testbed"
        return alive

    return run


@pytest.mark.parametrize("bench", sorted(SUITE))
def test_suite_benchmark_frees_its_testbeds(survivors, bench):
    kwargs = SWEEPS.get(bench, {})
    for provider in ("mvia", "bvia", "clan"):
        alive = survivors(lambda: run_benchmark(bench, provider, **kwargs))
        assert alive == [], f"{bench}/{provider} left {alive} alive"


@pytest.mark.parametrize("topology,nodes,rate", [
    ("star", 8, 64_000.0),
    ("fattree", 6, 8_000.0),
])
def test_cluster_point_frees_its_testbed(survivors, topology, nodes, rate):
    from repro.cluster import ClusterConfig, run_cluster_once

    cfg = ClusterConfig(topology=topology, nodes=nodes, clients=16,
                        requests=6, tenants=2, retry="on",
                        server_policy="depth=16,shed=deadline")
    for provider in ("mvia", "clan"):
        assert survivors(lambda: run_cluster_once(provider, cfg, rate)) == []


def test_chaos_cell_frees_its_testbed(survivors):
    from repro.faults.chaos import run_scenario
    from repro.faults.scenarios import get_scenario

    sc = get_scenario("many_clients")
    assert survivors(lambda: run_scenario("mvia", sc, quick=True)) == []


def test_rewind_frees_its_testbeds(survivors):
    """A rewind runs its cell cold, then rebuilds it, steps it to the
    fault window and finishes it: neither testbed may outlive it."""
    from repro.faults.chaos import rewind_scenario
    from repro.faults.scenarios import get_scenario

    sc = get_scenario("loss_burst")
    assert survivors(lambda: rewind_scenario("mvia", sc, quick=True)) == []


def test_closed_testbed_still_answers_its_harvest():
    from repro.obs import harvest_testbed
    from repro.programs import pingpong
    from repro.providers import Testbed

    tb = Testbed("mvia")
    pingpong(tb, size=256, count=2).run()
    tb.run()
    before = harvest_testbed(tb).snapshot()
    tb.close()
    assert harvest_testbed(tb).snapshot() == before
    tb.close()  # idempotent
    assert tb.sim._processes == {} and not tb.sim._heap
