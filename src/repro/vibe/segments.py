"""Impact of multiple data segments (paper §3.2.5 / TR [6]): SegLat,
SegBw, SegCpu.

A descriptor may gather/scatter through many data segments; each extra
segment costs descriptor-parsing time on the NIC (or in the kernel).
The benchmark holds the total transfer size fixed and sweeps the number
of segments it is split into.
"""

from __future__ import annotations

from ..providers.registry import ProviderSpec, get_spec
from ..via.constants import WaitMode
from .harness import TransferConfig, run_bandwidth, run_latency
from .metrics import BenchResult, Measurement

__all__ = ["DEFAULT_SEGMENT_COUNTS", "segments_latency", "segments_bandwidth"]

DEFAULT_SEGMENT_COUNTS = (1, 2, 4, 8, 16)


def segments_latency(provider: "str | ProviderSpec",
                     size: int = 4096,
                     segment_counts=DEFAULT_SEGMENT_COUNTS,
                     mode: WaitMode = WaitMode.POLL,
                     **overrides) -> BenchResult:
    points = []
    for n in segment_counts:
        cfg = TransferConfig(size=size, mode=mode, segments=n, **overrides)
        m = run_latency(provider, cfg)
        points.append(Measurement(param=n, latency_us=m.latency_us,
                                  cpu_send=m.cpu_send, cpu_recv=m.cpu_recv))
    return BenchResult("segments_latency", get_spec(provider).name, points,
                       {"size": size, "mode": mode.value})


def segments_bandwidth(provider: "str | ProviderSpec",
                       size: int = 4096,
                       segment_counts=DEFAULT_SEGMENT_COUNTS,
                       mode: WaitMode = WaitMode.POLL,
                       **overrides) -> BenchResult:
    points = []
    for n in segment_counts:
        cfg = TransferConfig(size=size, mode=mode, segments=n, **overrides)
        m = run_bandwidth(provider, cfg)
        points.append(Measurement(param=n, bandwidth_mbs=m.bandwidth_mbs,
                                  cpu_send=m.cpu_send, cpu_recv=m.cpu_recv))
    return BenchResult("segments_bandwidth", get_spec(provider).name, points,
                       {"size": size, "mode": mode.value})
