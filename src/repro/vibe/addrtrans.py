"""Impact of virtual-to-physical address translation (paper §3.2.2,
Fig. 5): LatAT, BwAT, CpuAT.

Identical to the base tests except that different send and receive
buffers are used in different iterations.  The buffer-reuse fraction is
swept: 100 % reuse equals the base benchmark; at 0 % every iteration
touches fresh pages, defeating any NIC-side translation cache.  The
buffer pool is sized to exceed the NIC cache even for single-page
buffers.
"""

from __future__ import annotations

from ..providers.registry import ProviderSpec, get_spec
from ..units import paper_size_sweep
from ..via.constants import WaitMode
from ..executor import parallel_map
from .harness import TransferConfig, run_bandwidth, run_latency
from .metrics import BenchResult

__all__ = ["DEFAULT_REUSE_LEVELS", "reuse_latency", "reuse_bandwidth"]

DEFAULT_REUSE_LEVELS = (1.0, 0.75, 0.5, 0.25, 0.0)

#: enough distinct buffers that even 1-page buffers overflow a 32-entry TLB
_POOL = 48


def reuse_latency(provider: "str | ProviderSpec",
                  sizes: list[int] | None = None,
                  reuse_levels=DEFAULT_REUSE_LEVELS,
                  mode: WaitMode = WaitMode.POLL,
                  iters: int = 48,
                  jobs: int = 1,
                  **overrides) -> list[BenchResult]:
    """One BenchResult per reuse level (the Fig. 5 latency families).

    The whole ``(reuse, size)`` grid is flattened into one task list so
    ``jobs`` workers stay busy across family boundaries; results are
    regrouped per reuse level in order.
    """
    sizes = sizes or paper_size_sweep()
    tasks = [
        (provider, TransferConfig(size=size, mode=mode, iters=iters,
                                  buffer_pool=_POOL, reuse_fraction=reuse,
                                  **overrides))
        for reuse in reuse_levels for size in sizes
    ]
    flat = parallel_map(run_latency, tasks, jobs)
    name = get_spec(provider).name
    results = []
    for i, reuse in enumerate(reuse_levels):
        points = flat[i * len(sizes):(i + 1) * len(sizes)]
        results.append(BenchResult(
            "reuse_latency", f"{name}@{int(reuse * 100)}%",
            points, {"reuse": reuse, "mode": mode.value},
        ))
    return results


def reuse_bandwidth(provider: "str | ProviderSpec",
                    sizes: list[int] | None = None,
                    reuse_levels=DEFAULT_REUSE_LEVELS,
                    mode: WaitMode = WaitMode.POLL,
                    count: int = 150,
                    jobs: int = 1,
                    **overrides) -> list[BenchResult]:
    """One BenchResult per reuse level (the Fig. 5 bandwidth families)."""
    sizes = sizes or paper_size_sweep()
    tasks = [
        (provider, TransferConfig(size=size, mode=mode, count=count,
                                  buffer_pool=_POOL, reuse_fraction=reuse,
                                  **overrides))
        for reuse in reuse_levels for size in sizes
    ]
    flat = parallel_map(run_bandwidth, tasks, jobs)
    name = get_spec(provider).name
    results = []
    for i, reuse in enumerate(reuse_levels):
        points = flat[i * len(sizes):(i + 1) * len(sizes)]
        results.append(BenchResult(
            "reuse_bandwidth", f"{name}@{int(reuse * 100)}%",
            points, {"reuse": reuse, "mode": mode.value},
        ))
    return results
