"""Impact of maximum transfer size / MTU (paper §3.2.5 / TR [6]):
MtsLat, MtsBw.

Sweeps the wire MTU for a fixed message size: smaller MTUs mean more
fragments, more per-fragment engine and framing overhead, and — for
store-and-forward fabrics — less per-hop serialisation latency.
"""

from __future__ import annotations

from ..providers.registry import ProviderSpec, get_spec
from ..via.constants import WaitMode
from ..executor import parallel_map
from .harness import TransferConfig, run_bandwidth, run_latency
from .metrics import BenchResult, Measurement

__all__ = ["DEFAULT_MTUS", "mtu_latency", "mtu_bandwidth"]

DEFAULT_MTUS = (256, 512, 1024, 1500, 4096, 9000, 32768)


def mtu_latency(provider: "str | ProviderSpec",
                size: int = 16384,
                mtus=DEFAULT_MTUS,
                mode: WaitMode = WaitMode.POLL,
                jobs: int = 1,
                **overrides) -> BenchResult:
    tasks = [(provider, TransferConfig(size=size, mode=mode, mtu=mtu,
                                       **overrides))
             for mtu in mtus]
    raw = parallel_map(run_latency, tasks, jobs)
    points = [Measurement(param=mtu, latency_us=m.latency_us,
                          cpu_send=m.cpu_send, cpu_recv=m.cpu_recv)
              for mtu, m in zip(mtus, raw)]
    return BenchResult("mtu_latency", get_spec(provider).name, points,
                       {"size": size, "mode": mode.value})


def mtu_bandwidth(provider: "str | ProviderSpec",
                  size: int = 16384,
                  mtus=DEFAULT_MTUS,
                  mode: WaitMode = WaitMode.POLL,
                  jobs: int = 1,
                  **overrides) -> BenchResult:
    tasks = [(provider, TransferConfig(size=size, mode=mode, mtu=mtu,
                                       **overrides))
             for mtu in mtus]
    raw = parallel_map(run_bandwidth, tasks, jobs)
    points = [Measurement(param=mtu, bandwidth_mbs=m.bandwidth_mbs,
                          cpu_send=m.cpu_send, cpu_recv=m.cpu_recv)
              for mtu, m in zip(mtus, raw)]
    return BenchResult("mtu_bandwidth", get_spec(provider).name, points,
                       {"size": size, "mode": mode.value})
