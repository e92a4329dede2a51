"""Determinism guarantees of the kernel fast paths and the parallel
executor.

Three layers of protection:

1. golden values — ``base_latency``/``base_bandwidth`` for all three
   providers pinned to the exact floats the seed kernel produced, so any
   kernel "optimisation" that perturbs event ordering (and therefore the
   simulated clock) fails loudly.  They run at ``fidelity="packet"``,
   which steps every packet, and again at the harness default
   (``flow``), whose arithmetic plans must land on the same floats;
2. ``jobs=1`` vs ``jobs=4`` — the process-pool fan-out must return
   byte-identical ``BenchResult``s (each task is a self-contained
   simulation; collection preserves task order);
3. property tests for :func:`repro.vibe.harness.reuse_schedule` at the
   boundary fractions the Bresenham spreading must get exactly right.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.vibe.base_transfer import base_bandwidth, base_latency
from repro.vibe.harness import reuse_schedule
from repro.vibe.suite import run_all

GOLDEN_SIZES = [4, 1024, 8192]

#: (size, latency_us, cpu_send, cpu_recv) — exact, from the seed kernel
GOLDEN_LATENCY = {
    "mvia": [
        (4, 25.62949494949716, 0.9999999999999764, 0.9999999999999586),
        (1024, 80.07070707070382, 1.0000000000000264, 1.000000000000027),
        (8192, 341.7346868686803, 1.0000000000000075, 1.000000000000008),
    ],
    "bvia": [
        (4, 31.32881287878803, 0.9999999999999972, 0.9999999999999974),
        (1024, 53.164733333333714, 0.9999999999999991, 0.9999999999999993),
        (8192, 207.61559393939362, 1.0000000000000002, 1.0000000000000002),
    ],
    "clan": [
        (4, 8.138049783550523, 0.9999999999999241, 0.9999999999999246),
        (1024, 32.70884523809632, 0.9999999999999795, 0.9999999999999795),
        (8192, 205.6789058441534, 1.0000000000000038, 1.0000000000000036),
    ],
}

#: (size, bandwidth_mbs) — exact, from the seed kernel
GOLDEN_BANDWIDTH = {
    "mvia": [
        (4, 0.6726948734194751),
        (1024, 58.05384251085662),
        (8192, 66.12358018932524),
    ],
    "bvia": [
        (4, 0.2675530977808194),
        (1024, 44.921839914354166),
        (8192, 104.36309504379696),
    ],
    "clan": [
        (4, 1.30520508855993),
        (1024, 93.66749307270561),
        (8192, 109.92535070203395),
    ],
}


def _latency(provider, **kwargs):
    result = base_latency(provider, sizes=GOLDEN_SIZES, **kwargs)
    return [(m.param, m.latency_us, m.cpu_send, m.cpu_recv)
            for m in result.points]


def _bandwidth(provider, **kwargs):
    result = base_bandwidth(provider, sizes=GOLDEN_SIZES, **kwargs)
    return [(m.param, m.bandwidth_mbs) for m in result.points]


@pytest.mark.parametrize("provider", sorted(GOLDEN_LATENCY))
def test_golden_base_latency(provider):
    """Exact equality on purpose: the kernel's determinism contract says
    optimisations must not move a single event, hence not a single ULP."""
    assert _latency(provider, fidelity="packet") == GOLDEN_LATENCY[provider]


@pytest.mark.parametrize("provider", sorted(GOLDEN_BANDWIDTH))
def test_golden_base_bandwidth(provider):
    assert _bandwidth(provider, fidelity="packet") == \
        GOLDEN_BANDWIDTH[provider]


@pytest.mark.parametrize("provider", sorted(GOLDEN_LATENCY))
def test_golden_base_latency_at_default_fidelity(provider):
    assert _latency(provider) == GOLDEN_LATENCY[provider]


@pytest.mark.parametrize("provider", sorted(GOLDEN_BANDWIDTH))
def test_golden_base_bandwidth_at_default_fidelity(provider):
    assert _bandwidth(provider) == GOLDEN_BANDWIDTH[provider]


@pytest.mark.parametrize("provider", ("mvia", "bvia", "clan"))
def test_jobs_byte_identical_latency(provider):
    serial = base_latency(provider, sizes=GOLDEN_SIZES, jobs=1)
    fanned = base_latency(provider, sizes=GOLDEN_SIZES, jobs=4)
    # dataclass repr spells out every field with full float precision,
    # so equal reprs means byte-identical results
    assert repr(serial) == repr(fanned)


@pytest.mark.parametrize("provider", ("mvia", "bvia", "clan"))
def test_jobs_byte_identical_bandwidth(provider):
    serial = base_bandwidth(provider, sizes=GOLDEN_SIZES, jobs=1)
    fanned = base_bandwidth(provider, sizes=GOLDEN_SIZES, jobs=4)
    assert repr(serial) == repr(fanned)


def test_run_all_jobs_byte_identical():
    names = ["base_latency", "base_bandwidth"]
    serial = run_all(providers=("mvia", "clan"), benchmarks=names,
                     sizes=[4, 1024], jobs=1)
    fanned = run_all(providers=("mvia", "clan"), benchmarks=names,
                     sizes=[4, 1024], jobs=4)
    assert repr(serial) == repr(fanned)


# ---------------------------------------------------------------------------
# reuse_schedule boundary properties


@given(iters=st.integers(0, 300), pool=st.integers(1, 32))
@settings(max_examples=60, deadline=None)
def test_reuse_schedule_full_reuse_always_buffer_zero(iters, pool):
    """fraction=1.0: every iteration must hit the reused buffer."""
    assert reuse_schedule(iters, 1.0, pool) == [0] * iters


@given(iters=st.integers(0, 300), pool=st.integers(2, 32))
@settings(max_examples=60, deadline=None)
def test_reuse_schedule_zero_reuse_never_buffer_zero(iters, pool):
    """fraction=0.0 with a real pool: buffer 0 is never reused."""
    schedule = reuse_schedule(iters, 0.0, pool)
    assert len(schedule) == iters
    assert all(1 <= idx < pool for idx in schedule)


@given(iters=st.integers(0, 300),
       fraction=st.floats(0.0, 1.0, allow_nan=False))
@settings(max_examples=60, deadline=None)
def test_reuse_schedule_pool_of_one_is_all_zero(iters, fraction):
    """pool=1: there is only one buffer, whatever the fraction."""
    assert reuse_schedule(iters, fraction, 1) == [0] * iters


@given(iters=st.integers(1, 300),
       fraction=st.floats(0.0, 1.0, allow_nan=False),
       pool=st.integers(1, 32))
@settings(max_examples=60, deadline=None)
def test_reuse_schedule_hit_count_matches_fraction(iters, fraction, pool):
    """The number of reuse hits tracks ``fraction * iters`` to within
    one (Bresenham spreading), and indices stay within the pool."""
    schedule = reuse_schedule(iters, fraction, pool)
    assert len(schedule) == iters
    assert all(0 <= idx < pool for idx in schedule)
    if pool > 1:
        hits = schedule.count(0)
        assert abs(hits - fraction * iters) <= 1.0


def test_reuse_schedule_rejects_bad_arguments():
    with pytest.raises(ValueError):
        reuse_schedule(10, -0.1, 4)
    with pytest.raises(ValueError):
        reuse_schedule(10, 1.1, 4)
    with pytest.raises(ValueError):
        reuse_schedule(10, 0.5, 0)


# ---------------------------------------------------------------------------
# observability exports: the profiled ping-pong's trace and metrics
# files must be byte-identical across --jobs values and repeated runs
# (the id counters it resets are the only process-global state)

_PROFILE_PROVIDERS = ("mvia", "bvia", "clan", "iba")


def _profile_exports(jobs):
    from repro.obs.profile import (combined_metrics_json,
                                   combined_trace_json, profile_transfer)
    from repro.executor import parallel_map

    profiles = parallel_map(profile_transfer,
                            [(p, 256, 0) for p in _PROFILE_PROVIDERS], jobs)
    return combined_trace_json(profiles), combined_metrics_json(profiles)


def test_profile_exports_byte_identical_across_jobs():
    assert _profile_exports(jobs=1) == _profile_exports(jobs=4)


def test_profile_exports_byte_identical_across_repeats():
    first = _profile_exports(jobs=1)
    second = _profile_exports(jobs=1)
    assert first == second


def test_run_benchmark_meta_is_jobs_invariant():
    """The metadata stamped onto BenchResults carries no wall-clock
    state, so fanned-out results stay repr-identical to serial ones."""
    from repro.vibe.suite import run_benchmark

    serial = run_benchmark("base_latency", "clan", sizes=[4, 1024], jobs=1)
    fanned = run_benchmark("base_latency", "clan", sizes=[4, 1024], jobs=4)
    assert serial.meta["provider"] == "clan"
    assert serial.meta["params"]["benchmark"] == "base_latency"
    assert repr(serial) == repr(fanned)


def test_parallel_map_empty_task_list_returns_empty():
    """Regression: an empty task list must short-circuit to [] at every
    --jobs value instead of ever reaching the pool machinery."""
    from repro.executor import parallel_map

    for jobs in (1, 2, -1):
        assert parallel_map(len, [], jobs=jobs) == []
