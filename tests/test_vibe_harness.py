"""Unit tests for the VIBe measurement harness internals."""

import pytest

from repro.providers import Testbed
from repro.vibe import (
    TransferConfig,
    reuse_schedule,
    run_bandwidth,
    run_latency,
    split_segments,
)
from repro.vibe.harness import pattern_bytes
from repro.vibe.metrics import BenchResult, Measurement, merge_tables


@pytest.mark.parametrize("n", [0, 1, 255, 256, 257, 200_000])
def test_pattern_bytes_is_the_per_byte_ramp(n):
    """The programming-model payloads must stay byte-for-byte the
    ``bytes(i % 256 for i in range(n))`` they were built as before."""
    assert pattern_bytes(n) == bytes(i % 256 for i in range(n))


def test_reuse_schedule_full_reuse():
    assert reuse_schedule(10, 1.0, 8) == [0] * 10


def test_reuse_schedule_zero_reuse_cycles_pool():
    sched = reuse_schedule(6, 0.0, 4)
    assert sched == [1, 2, 3, 1, 2, 3]
    assert 0 not in sched


def test_reuse_schedule_half():
    sched = reuse_schedule(10, 0.5, 8)
    assert sched.count(0) == 5
    assert all(i != 0 for i in sched[::2]) or all(i == 0 for i in sched[1::2])


def test_reuse_schedule_fraction_is_respected():
    for frac in (0.25, 0.75):
        sched = reuse_schedule(100, frac, 50)
        assert sched.count(0) == pytest.approx(frac * 100, abs=1)


def test_reuse_schedule_pool_one_always_zero():
    assert reuse_schedule(5, 0.0, 1) == [0] * 5


def test_reuse_schedule_validation():
    with pytest.raises(ValueError):
        reuse_schedule(5, 1.5, 4)
    with pytest.raises(ValueError):
        reuse_schedule(5, 0.5, 0)


def test_split_segments_partitions_exactly():
    tb = Testbed("clan")
    h = tb.open("node0", "a")

    def body():
        region = h.alloc(1000)
        mh = yield from h.register_mem(region)
        segs = split_segments(h, region, mh, 1000, 3)
        assert len(segs) == 3
        assert sum(s.length for s in segs) == 1000
        assert segs[0].address == region.base
        assert segs[1].address == region.base + segs[0].length
        with pytest.raises(ValueError):
            split_segments(h, region, mh, 100, 0)

    tb.run(tb.spawn(body()))


def test_run_latency_returns_complete_measurement(provider_name):
    m = run_latency(provider_name, TransferConfig(size=64, iters=8, warmup=1))
    assert m.param == 64
    assert m.latency_us > 0
    assert 0 < m.cpu_send <= 1.0 + 1e-9
    assert 0 < m.cpu_recv <= 1.0 + 1e-9


def test_run_bandwidth_returns_complete_measurement(provider_name):
    m = run_bandwidth(provider_name, TransferConfig(size=4096, count=40))
    assert m.bandwidth_mbs > 0
    assert m.cpu_send is not None and m.cpu_recv is not None


def test_latency_deterministic_across_runs(provider_name):
    cfg = TransferConfig(size=256, iters=10)
    a = run_latency(provider_name, cfg).latency_us
    b = run_latency(provider_name, cfg).latency_us
    assert a == b


def test_bandwidth_bounded_by_line_rate(provider_name):
    tb = Testbed(provider_name)
    line = tb.fabric.network.bandwidth
    m = run_bandwidth(provider_name, TransferConfig(size=28672, count=60))
    assert m.bandwidth_mbs < line


def test_window_one_slower_than_window_32(provider_name):
    slow = run_bandwidth(provider_name,
                         TransferConfig(size=4096, count=40, window=1))
    fast = run_bandwidth(provider_name,
                         TransferConfig(size=4096, count=40, window=32))
    assert fast.bandwidth_mbs >= slow.bandwidth_mbs


def test_measurement_get_and_fields():
    m = Measurement(param=4, latency_us=10.0, extra={"custom": 7})
    assert m.get("latency_us") == 10.0
    assert m.get("custom") == 7
    # unknown names raise, matching BenchResult.point; a dict.get-style
    # default opts back into tolerance
    with pytest.raises(KeyError):
        m.get("missing")
    assert m.get("missing", None) is None


def test_bench_result_table_and_series():
    r = BenchResult("b", "prov", [
        Measurement(param=4, latency_us=10.0),
        Measurement(param=8, latency_us=20.0),
    ], {"mode": "poll"})
    assert r.series("latency_us") == [(4, 10.0), (8, 20.0)]
    assert r.point(8).latency_us == 20.0
    with pytest.raises(KeyError):
        r.point(99)
    text = r.table()
    assert "b [prov]" in text and "latency_us" in text and "20.00" in text


def test_merge_tables_side_by_side():
    a = BenchResult("b", "p1", [Measurement(param=4, latency_us=1.0)])
    b = BenchResult("b", "p2", [Measurement(param=4, latency_us=2.0)])
    text = merge_tables([a, b], "latency_us", title="T")
    assert text.splitlines()[0] == "T"
    assert "p1" in text and "p2" in text
    assert merge_tables([], "latency_us") == "(no results)"
