"""Tests for the suite registry, report helpers, and leftover corners."""

import pytest

from repro.sim import AllOf, AnyOf, Simulator
from repro.vibe import (
    SUITE,
    collective_latency,
    render_memreg,
    run_all,
    run_benchmark,
)
from repro.vibe.metrics import BenchResult, Measurement
from repro.vibe.suite import SIZES_AWARE


def test_suite_registry_is_complete():
    # one entry per benchmark family; every entry is callable
    assert len(SUITE) >= 30
    for name, fn in SUITE.items():
        assert callable(fn), name
    for required in ("nondata", "base_latency", "reuse_latency",
                     "multivi_latency", "client_server", "dsm_fault_latency",
                     "collective_latency", "stream_throughput",
                     "tail_latency"):
        assert required in SUITE


def test_run_benchmark_by_name():
    result = run_benchmark("memreg", "clan")
    assert result.benchmark == "memreg"
    with pytest.raises(KeyError, match="unknown benchmark"):
        run_benchmark("bogus", "clan")


def test_run_all_subset():
    out = run_all(providers=("clan",), benchmarks=["memreg"])
    assert out["memreg"]["clan"].provider == "clan"


def test_collective_latency_shapes():
    res = collective_latency("clan", group_sizes=(2, 4), rounds=3)
    assert res.point(2).extra["barrier_us"] > 0
    assert res.point(4).extra["barrier_us"] > res.point(2).extra["barrier_us"]
    # allreduce includes a reduction exchange: at least as deep as barrier
    for n in (2, 4):
        assert res.point(n).extra["allreduce_us"] \
            >= res.point(n).extra["barrier_us"] * 0.8


def test_render_memreg_titles():
    res = {"clan": BenchResult("memreg", "clan", [
        Measurement(param=4, extra={"register_us": 6.0,
                                    "deregister_us": 4.0}),
    ])}
    assert "Fig. 1" in render_memreg(res, "register_us")
    assert "Fig. 2" in render_memreg(res, "deregister_us")
    assert "custom" in render_memreg(res, "register_us", title="custom")


# ---- simulation kernel leftovers ------------------------------------------

def test_allof_fails_when_member_fails():
    sim = Simulator()
    good = sim.timeout(1.0, "ok")
    bad = sim.event()

    def failer():
        yield sim.timeout(2.0)
        bad.fail(RuntimeError("member"))

    def waiter():
        with pytest.raises(RuntimeError, match="member"):
            yield AllOf(sim, [good, bad])
        return True

    sim.process(failer())
    proc = sim.process(waiter())
    assert sim.run(proc)


def test_anyof_with_already_processed_member():
    sim = Simulator()
    done = sim.timeout(0.0, "first")
    sim.run()

    def waiter():
        result = yield AnyOf(sim, [done, sim.timeout(100.0)])
        return result

    proc = sim.process(waiter())
    assert sim.run(proc) == {done: "first"}
    assert sim.now < 100.0


def test_condition_rejects_cross_simulator_events():
    from repro.sim import SimulationError

    a, b = Simulator(), Simulator()
    with pytest.raises(SimulationError):
        AnyOf(a, [b.timeout(1.0)])


def test_process_repr_and_names():
    sim = Simulator()

    def named():
        yield sim.timeout(1.0)

    proc = sim.process(named(), name="my-proc")
    assert proc.name == "my-proc"
    assert "my-proc" in repr(proc)
    sim.run(proc)
    assert "done" in repr(proc)


def test_run_until_none_drains_everything():
    sim = Simulator()
    for d in (5.0, 1.0, 3.0):
        sim.timeout(d)
    sim.run()
    assert sim.now == 5.0
    assert sim.peek() == float("inf")


def test_process_requires_generator():
    sim = Simulator()
    with pytest.raises(TypeError):
        sim.process(lambda: None)


def test_every_suite_entry_takes_a_provider_first():
    """`vibe run <name> --provider X` must work for every entry."""
    import inspect

    for name, fn in SUITE.items():
        params = list(inspect.signature(fn).parameters.values())
        assert params, name
        first = params[0]
        assert first.kind in (first.POSITIONAL_ONLY,
                              first.POSITIONAL_OR_KEYWORD), name
        # and everything else must be defaulted (run_benchmark passes
        # only the provider)
        for p in params[1:]:
            assert p.default is not inspect.Parameter.empty \
                or p.kind is p.VAR_KEYWORD, (name, p.name)


@pytest.mark.parametrize("name", sorted(SUITE))
def test_sizes_aware_is_exactly_the_benchmarks_taking_sizes(name):
    """SIZES_AWARE (what served run specs may pass ``sizes`` to) must
    match what the benchmarks themselves accept."""
    if name in SIZES_AWARE:
        run_benchmark(name, "clan", sizes=[4])
    else:
        with pytest.raises(TypeError):
            run_benchmark(name, "clan", sizes=[4])
