"""Collective-operation benchmarks over the message layer (paper §5).

Barrier / broadcast / allreduce cost versus group size: each collective
is ⌈log₂ n⌉ point-to-point exchanges deep, so these curves are the
provider's small-message VIBe latency amplified by the algorithm depth
— the scaling question an MPI implementor brings to the suite.
"""

from __future__ import annotations

import struct

from ..layers.collectives import connect_group
from ..providers.registry import ProviderSpec, Testbed, get_spec
from .metrics import BenchResult, Measurement

__all__ = ["DEFAULT_GROUP_SIZES", "collective_latency"]

DEFAULT_GROUP_SIZES = (2, 4, 8)


def collective_latency(provider: "str | ProviderSpec",
                       group_sizes=DEFAULT_GROUP_SIZES,
                       payload: int = 64,
                       rounds: int = 6,
                       seed: int = 0) -> BenchResult:
    """Mean barrier/bcast/allreduce completion time per group size."""
    points = []
    for n in group_sizes:
        barrier, bcast, allreduce = _trial(provider, n, payload, rounds,
                                           seed)
        points.append(Measurement(
            param=n,
            extra={"barrier_us": barrier, "bcast_us": bcast,
                   "allreduce_us": allreduce},
        ))
    return BenchResult("collective_latency", get_spec(provider).name, points,
                       {"payload": payload})


def _trial(provider, n: int, payload: int, rounds: int, seed: int):
    names = [f"n{i}" for i in range(n)]
    tb = Testbed(provider, node_names=tuple(names), seed=seed)
    setups = connect_group(tb, names)
    out: dict = {}
    data = bytes(payload)

    def add(a: bytes, b: bytes) -> bytes:
        return struct.pack(">Q", struct.unpack(">Q", a)[0]
                           + struct.unpack(">Q", b)[0])

    def app(i):
        group = yield from setups[i]
        yield from group.barrier()          # absorb setup skew
        marks = [tb.now]
        for _ in range(rounds):
            yield from group.barrier()
        marks.append(tb.now)
        for _ in range(rounds):
            yield from group.bcast(data if group.rank == 0 else None)
        marks.append(tb.now)
        for _ in range(rounds):
            yield from group.allreduce(struct.pack(">Q", group.rank), add)
        marks.append(tb.now)
        out[i] = marks

    procs = [tb.spawn(app(i), f"rank{i}") for i in range(n)]
    for p in procs:
        tb.run(p)
    tb.close()
    # a collective is done when its LAST rank is done: use the max of
    # each boundary across ranks (the root of a bcast finishes first)
    edges = [max(out[i][k] for i in range(n)) for k in range(4)]
    return tuple((edges[k + 1] - edges[k]) / rounds for k in range(3))
