"""Impact of sender pipeline length (paper §3.2.5 / TR [6]): PLBw.

Bandwidth as a function of the number of outstanding (un-reaped) sends
the sender keeps in flight.  Reliable-delivery providers pay a full
NIC-to-NIC round trip per completion, so a window of 1 serialises them
hard; unreliable providers complete locally and saturate earlier.
"""

from __future__ import annotations

from ..providers.registry import ProviderSpec, get_spec
from ..via.constants import WaitMode
from .harness import TransferConfig, run_bandwidth
from .metrics import BenchResult, Measurement

__all__ = ["DEFAULT_WINDOWS", "pipeline_bandwidth"]

DEFAULT_WINDOWS = (1, 2, 4, 8, 16, 32, 64)


def pipeline_bandwidth(provider: "str | ProviderSpec",
                       size: int = 4096,
                       windows=DEFAULT_WINDOWS,
                       mode: WaitMode = WaitMode.POLL,
                       **overrides) -> BenchResult:
    points = []
    for w in windows:
        cfg = TransferConfig(size=size, mode=mode, window=w, **overrides)
        m = run_bandwidth(provider, cfg)
        points.append(Measurement(param=w, bandwidth_mbs=m.bandwidth_mbs,
                                  cpu_send=m.cpu_send, cpu_recv=m.cpu_recv))
    return BenchResult("pipeline_bandwidth", get_spec(provider).name, points,
                       {"size": size, "mode": mode.value})
