"""Category 2 base micro-benchmarks: Lat, Bw, Cpu (paper §3.2.1).

The base configuration: 100 % buffer reuse, one data segment, no
completion queue, one VI connection, no notify mechanism.  Polling and
blocking variants (Figs. 3 & 4).
"""

from __future__ import annotations

from ..providers.registry import ProviderSpec, get_spec
from ..units import paper_size_sweep
from ..via.constants import WaitMode
from ..executor import parallel_map
from .harness import TransferConfig, run_bandwidth, run_latency
from .metrics import BenchResult

__all__ = ["base_latency", "base_bandwidth"]


def base_latency(provider: "str | ProviderSpec",
                 sizes: list[int] | None = None,
                 mode: WaitMode = WaitMode.POLL,
                 jobs: int = 1,
                 **overrides) -> BenchResult:
    """Lat/Cpu: ping-pong latency and CPU utilisation vs message size.

    ``jobs`` fans the per-size simulations over worker processes;
    results are bit-identical to the serial sweep.
    """
    sizes = sizes or paper_size_sweep()
    tasks = [(provider, TransferConfig(size=size, mode=mode, **overrides))
             for size in sizes]
    points = parallel_map(run_latency, tasks, jobs)
    return BenchResult("base_latency", get_spec(provider).name, points,
                       {"mode": mode.value, **overrides})


def base_bandwidth(provider: "str | ProviderSpec",
                   sizes: list[int] | None = None,
                   mode: WaitMode = WaitMode.POLL,
                   jobs: int = 1,
                   **overrides) -> BenchResult:
    """Bw: streaming bandwidth vs message size."""
    sizes = sizes or paper_size_sweep()
    tasks = [(provider, TransferConfig(size=size, mode=mode, **overrides))
             for size in sizes]
    points = parallel_map(run_bandwidth, tasks, jobs)
    return BenchResult("base_bandwidth", get_spec(provider).name, points,
                       {"mode": mode.value, **overrides})
