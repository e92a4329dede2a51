"""Distributed-shared-memory programming-model benchmarks (paper §5).

Measures the DSM layer's fundamental protocol costs on each provider:

- **read-miss latency** — fetch a page from its home;
- **write-miss latency** — obtain exclusive ownership (recall the
  writer, invalidate readers, grant);
- **ping-pong sharing** — two nodes alternately writing one page, the
  worst case for an invalidation protocol (every access is a full
  ownership migration).

A DSM is the most latency-sensitive layer in the paper's §3.3 list —
every page fault is a small-message round trip plus a page-sized
transfer, so the provider's VIBe latency profile translates directly
into fault costs."""

from __future__ import annotations

from ..layers.dsm import connect_mesh
from ..providers.registry import ProviderSpec, Testbed
from .metrics import BenchResult, Measurement

__all__ = ["dsm_fault_latency", "dsm_pingpong_sharing"]


def _name(provider) -> str:
    return provider if isinstance(provider, str) else provider.name


def dsm_fault_latency(provider: "str | ProviderSpec",
                      page_sizes=(1024, 4096, 16384),
                      faults: int = 8, seed: int = 0) -> BenchResult:
    """Read-miss and write-miss latency per page size (two nodes)."""
    points = []
    for page_size in page_sizes:
        read_us, write_us = _fault_trial(provider, page_size, faults, seed)
        points.append(Measurement(
            param=page_size,
            extra={"read_miss_us": read_us, "write_miss_us": write_us},
        ))
    return BenchResult("dsm_fault_latency", _name(provider), points)


def _fault_trial(provider, page_size: int, faults: int, seed: int):
    npages = faults + 1
    tb = Testbed(provider, node_names=("n0", "n1"), seed=seed)
    setups = connect_mesh(tb, ["n0", "n1"], npages=npages,
                          page_size=page_size)
    out: dict = {}

    def app0():
        node = yield from setups[0]
        out["ready0"] = True
        while "done1" not in out:
            yield tb.sim.timeout(25.0)

    def app1():
        node = yield from setups[1]
        while "ready0" not in out:
            yield tb.sim.timeout(25.0)
        # even pages are homed at n0: pure remote read misses
        remote_pages = [p for p in range(npages) if node.home(p) == 0]
        t0 = tb.now
        for p in remote_pages[:faults]:
            yield from node.read(p * page_size, 1)
        read_us = (tb.now - t0) / min(faults, len(remote_pages))
        # write misses on the same pages: READ -> ownership upgrade
        t0 = tb.now
        for p in remote_pages[:faults]:
            yield from node.write(p * page_size, b"w")
        write_us = (tb.now - t0) / min(faults, len(remote_pages))
        out["read"] = read_us
        out["write"] = write_us
        out["done1"] = True

    p0 = tb.spawn(app0(), "app0")
    p1 = tb.spawn(app1(), "app1")
    tb.run(p1)
    tb.run(p0)
    tb.close()
    return out["read"], out["write"]


def dsm_pingpong_sharing(provider: "str | ProviderSpec",
                         page_size: int = 4096,
                         rounds: int = 10, seed: int = 0) -> Measurement:
    """Two nodes alternately write one page: per-migration cost."""
    tb = Testbed(provider, node_names=("n0", "n1"), seed=seed)
    setups = connect_mesh(tb, ["n0", "n1"], npages=2, page_size=page_size)
    out: dict = {}

    def app(i):
        node = yield from setups[i]
        # strict alternation on page 1 via a turn flag on page 0 would
        # itself fault; alternate through simulated-time turn taking
        for r in range(rounds):
            while out.get("turn", 0) % 2 != i:
                yield tb.sim.timeout(5.0)
            if i == 0 and r == 0:
                out["t0"] = tb.now
            yield from node.write(page_size, bytes([i]) * 16)
            out["turn"] = out.get("turn", 0) + 1
        if i == 1:
            out["t1"] = tb.now
        out[f"stats{i}"] = node.stats

    p0 = tb.spawn(app(0), "app0")
    p1 = tb.spawn(app(1), "app1")
    tb.run(p1)
    tb.run(p0)
    tb.close()
    per_migration = (out["t1"] - out["t0"]) / (2 * rounds - 1)
    transfers = out["stats0"].ownership_transfers \
        + out["stats1"].ownership_transfers + out["stats0"].recalls \
        + out["stats1"].recalls
    return Measurement(param=page_size, latency_us=per_migration,
                       extra={"ownership_moves": transfers})
