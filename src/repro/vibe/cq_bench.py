"""Impact of completion queues (paper §3.2.3): LatCQ, BwCQ, CpuCQ.

Receive completions are discovered through a completion queue
associated with the receive work queues.  ``LatCQ − Lat`` isolates the
CQ overhead: the paper reports 2–5 µs for Berkeley VIA and negligible
overhead for M-VIA and cLAN.
"""

from __future__ import annotations

from ..providers.registry import ProviderSpec, get_spec
from ..units import paper_size_sweep
from ..via.constants import WaitMode
from .harness import TransferConfig, run_bandwidth, run_latency
from .metrics import BenchResult, Measurement

__all__ = ["cq_latency", "cq_bandwidth", "cq_overhead"]


def cq_latency(provider: "str | ProviderSpec",
               sizes: list[int] | None = None,
               mode: WaitMode = WaitMode.POLL,
               **overrides) -> BenchResult:
    sizes = sizes or paper_size_sweep()
    points = [
        run_latency(provider, TransferConfig(size=s, mode=mode,
                                             use_recv_cq=True, **overrides))
        for s in sizes
    ]
    return BenchResult("cq_latency", get_spec(provider).name, points,
                       {"mode": mode.value})


def cq_bandwidth(provider: "str | ProviderSpec",
                 sizes: list[int] | None = None,
                 mode: WaitMode = WaitMode.POLL,
                 **overrides) -> BenchResult:
    sizes = sizes or paper_size_sweep()
    points = [
        run_bandwidth(provider, TransferConfig(size=s, mode=mode,
                                               use_recv_cq=True, **overrides))
        for s in sizes
    ]
    return BenchResult("cq_bandwidth", get_spec(provider).name, points,
                       {"mode": mode.value})


def cq_overhead(provider: "str | ProviderSpec",
                sizes: list[int] | None = None,
                mode: WaitMode = WaitMode.POLL,
                fidelity: str = TransferConfig.fidelity) -> BenchResult:
    """LatCQ − Lat per size: the §4.3.3 comparison, directly.  Both
    runs use the one ``fidelity``."""
    sizes = sizes or paper_size_sweep()
    points = []
    for s in sizes:
        base = run_latency(provider, TransferConfig(size=s, mode=mode,
                                                    fidelity=fidelity))
        with_cq = run_latency(provider, TransferConfig(
            size=s, mode=mode, use_recv_cq=True, fidelity=fidelity))
        points.append(Measurement(
            param=s,
            extra={
                "lat_us": base.latency_us,
                "lat_cq_us": with_cq.latency_us,
                "overhead_us": with_cq.latency_us - base.latency_us,
            },
        ))
    return BenchResult("cq_overhead", get_spec(provider).name, points,
                       {"mode": mode.value})
