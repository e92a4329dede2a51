"""Category 1: non-data-transfer micro-benchmarks (paper §3.1, Table 1,
Figs. 1 & 2).

Measures the cost of the basic VIA housekeeping operations:

1. creating / destroying VIs,
2. establishing / tearing down VI connections,
3. memory registration / deregistration (swept over region size),
4. creating / destroying completion queues.
"""

from __future__ import annotations

from ..providers.registry import ProviderSpec, Testbed
from ..units import paper_size_sweep
from .metrics import BenchResult, Measurement

__all__ = ["nondata_costs", "memreg_sweep", "NONDATA_OPS"]

NONDATA_OPS = (
    "create_vi",
    "destroy_vi",
    "establish_connection",
    "teardown_connection",
    "create_cq",
    "destroy_cq",
)


def nondata_costs(provider: "str | ProviderSpec", repeats: int = 5,
                  seed: int = 0) -> BenchResult:
    """Table 1: per-operation cost in microseconds (mean of ``repeats``)."""
    tb = Testbed(provider, seed=seed)
    acc: dict[str, list[float]] = {op: [] for op in NONDATA_OPS}

    def timed(gen):
        """Run a timed op, returning (elapsed, value)."""
        t0 = tb.now
        value = yield from gen
        return tb.now - t0, value

    def client_body():
        h = tb.open(tb.node_names[0], "client")
        for _ in range(repeats):
            dt, vi = yield from timed(h.create_vi())
            acc["create_vi"].append(dt)
            dt, _ = yield from timed(h.destroy_vi(vi))
            acc["destroy_vi"].append(dt)

            dt, cq = yield from timed(h.create_cq())
            acc["create_cq"].append(dt)
            dt, _ = yield from timed(h.destroy_cq(cq))
            acc["destroy_cq"].append(dt)

        for i in range(repeats):
            vi = yield from h.create_vi()
            dt, _ = yield from timed(h.connect(vi, tb.node_names[1], 100 + i))
            acc["establish_connection"].append(dt)
            dt, _ = yield from timed(h.disconnect(vi))
            acc["teardown_connection"].append(dt)
            yield from h.destroy_vi(vi)

    def server_body():
        h = tb.open(tb.node_names[1], "server")
        for i in range(repeats):
            vi = yield from h.create_vi()
            req = yield from h.connect_wait(100 + i)
            yield from h.accept(req, vi)
            # wait for the client-initiated teardown
            while vi.is_connected:
                yield tb.sim.timeout(5.0)
            yield from h.destroy_vi(vi)

    cproc = tb.spawn(client_body(), "client")
    sproc = tb.spawn(server_body(), "server")
    tb.run(cproc)
    tb.run(sproc)
    tb.close()
    points = [
        Measurement(param=op, extra={"cost_us": sum(v) / len(v)})
        for op, v in acc.items()
    ]
    name = provider if isinstance(provider, str) else provider.name
    return BenchResult("nondata", name, points, {"repeats": repeats})


def memreg_sweep(provider: "str | ProviderSpec",
                 sizes: list[int] | None = None,
                 seed: int = 0) -> BenchResult:
    """Figs. 1 & 2: registration and deregistration cost vs region size.

    The whole sweep deliberately runs in ONE testbed: each size is
    measured at the simulated-clock offset left by its predecessors, and
    ``tb.now - t0`` rounds differently at different absolute offsets, so
    splitting the sweep across fresh per-size testbeds would perturb the
    last float bits.  Parallel callers (``--jobs``) therefore fan out
    over *providers* (see :func:`repro.vibe.suite.run_all` and the
    figure-1/2 paths in :mod:`repro.cli` / :mod:`repro.vibe.reportgen`),
    which is exact — every provider is an independent testbed either way.
    """
    sizes = sizes or paper_size_sweep()
    name = provider if isinstance(provider, str) else provider.name
    tb = Testbed(provider, seed=seed)
    points: list[Measurement] = []

    def body():
        h = tb.open(tb.node_names[0], "app")
        for size in sizes:
            region = h.alloc(size)
            t0 = tb.now
            mh = yield from h.register_mem(region)
            reg = tb.now - t0
            t0 = tb.now
            yield from h.deregister_mem(mh)
            dereg = tb.now - t0
            points.append(Measurement(
                param=size,
                extra={"register_us": reg, "deregister_us": dereg,
                       "pages": mh.page_count},
            ))

    proc = tb.spawn(body(), "memreg")
    tb.run(proc)
    tb.close()
    return BenchResult("memreg", name, points)
