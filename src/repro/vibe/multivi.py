"""Impact of multiple active VIs (paper §3.2.4, Fig. 6): LatMV, BwMV,
CpuMV.

Both endpoints create ``n`` VIs before the test; the ping-pong /
streaming traffic uses one connected pair.  A firmware that polls every
open VI's send queue (Berkeley VIA) slows down linearly in ``n``; hosts
and NICs with directly-indexed doorbells (M-VIA, cLAN) are flat.
"""

from __future__ import annotations

from ..providers.registry import ProviderSpec, get_spec
from ..via.constants import WaitMode
from .harness import TransferConfig, run_bandwidth, run_latency
from .metrics import BenchResult, Measurement

__all__ = ["DEFAULT_VI_COUNTS", "multivi_latency", "multivi_bandwidth"]

DEFAULT_VI_COUNTS = (1, 2, 4, 8, 16, 32)


def multivi_latency(provider: "str | ProviderSpec",
                    size: int = 4,
                    vi_counts=DEFAULT_VI_COUNTS,
                    mode: WaitMode = WaitMode.POLL,
                    **overrides) -> BenchResult:
    """Latency vs number of open VIs, for one message size."""
    points = []
    for n in vi_counts:
        cfg = TransferConfig(size=size, mode=mode, extra_vis=n - 1,
                             **overrides)
        m = run_latency(provider, cfg)
        points.append(Measurement(param=n, latency_us=m.latency_us,
                                  cpu_send=m.cpu_send, cpu_recv=m.cpu_recv))
    return BenchResult("multivi_latency", get_spec(provider).name, points,
                       {"size": size, "mode": mode.value})


def multivi_bandwidth(provider: "str | ProviderSpec",
                      size: int = 4096,
                      vi_counts=DEFAULT_VI_COUNTS,
                      mode: WaitMode = WaitMode.POLL,
                      **overrides) -> BenchResult:
    """Bandwidth vs number of open VIs, for one message size."""
    points = []
    for n in vi_counts:
        cfg = TransferConfig(size=size, mode=mode, extra_vis=n - 1,
                             **overrides)
        m = run_bandwidth(provider, cfg)
        points.append(Measurement(param=n, bandwidth_mbs=m.bandwidth_mbs,
                                  cpu_send=m.cpu_send, cpu_recv=m.cpu_recv))
    return BenchResult("multivi_bandwidth", get_spec(provider).name, points,
                       {"size": size, "mode": mode.value})
