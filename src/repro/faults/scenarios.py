"""Named chaos scenarios for ``vibe chaos``.

Each scenario is a :class:`FaultPlan` plus the workload parameters and
the survival contract the campaign checks: on the reliable levels every
message must eventually arrive and the endpoints must recover (possibly
through the VI error-recovery path); on the unreliable level only the
conformance invariants must hold.

``phase`` controls when the plan's clock starts: ``"all"`` plans use
absolute simulation time (the connection handshake is exposed too),
``"data"`` plans are shifted to start once the connection is up, so
they exercise the steady-state data path.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..via.constants import Reliability
from .plan import FaultPlan, FaultSpec

__all__ = ["ChaosScenario", "SCENARIOS", "scenario_names", "get_scenario"]


@dataclass(frozen=True)
class ChaosScenario:
    """One named fault campaign entry."""

    name: str
    description: str
    faults: tuple[FaultSpec, ...]
    reliability: Reliability = Reliability.RELIABLE_DELIVERY
    #: "data" shifts the plan to connection-established time;
    #: "all" runs it on the absolute simulation clock
    phase: str = "data"
    size: int = 1024
    count: int = 24
    window: int = 4
    deadline_us: float = 400_000.0
    #: reliable scenarios must deliver every message; unreliable ones
    #: only promise invariant-clean loss
    expect_delivery: bool = True
    #: "stream" = the classic two-node windowed stream;
    #: "cluster" = an N-client serving cluster (repro.faults.cluster_cell);
    #: "overload" = a cluster under retry/admission policies driven past
    #: saturation (repro.faults.overload_cell)
    workload: str = "stream"

    def plan(self, seed: int) -> FaultPlan:
        return FaultPlan(name=self.name, seed=seed, faults=self.faults)


SCENARIOS: tuple[ChaosScenario, ...] = (
    ChaosScenario(
        name="loss_burst",
        description="wire drops everything for 1.5 ms mid-stream",
        faults=(FaultSpec(kind="wire_loss", at=40.0, duration=1500.0),),
    ),
    ChaosScenario(
        name="lossy_wire",
        description="25% random loss from t=0, handshake included",
        faults=(FaultSpec(kind="wire_loss", rate=0.25),),
        phase="all",
        # sustained loss forces several error-recovery cycles; give the
        # redial/backoff machinery room to finish the stream
        deadline_us=1_500_000.0,
    ),
    ChaosScenario(
        name="handshake_loss",
        description="link dead during the first connect attempts",
        # long enough to swallow every provider's first conn_req (client
        # CPU setup ranges 290-4200 us) so the backoff machinery is what
        # establishes the connection
        faults=(FaultSpec(kind="link_down", at=0.0, duration=6000.0),),
        phase="all",
    ),
    ChaosScenario(
        name="link_flap",
        description="client uplink flaps down for 2 ms",
        faults=(FaultSpec(kind="link_down", target="node0.up",
                          at=50.0, duration=2000.0),),
    ),
    ChaosScenario(
        name="blackout_reconnect",
        description="12 ms blackout exhausts RTO; VI error recovery",
        faults=(FaultSpec(kind="link_down", target="node0.up",
                          at=50.0, duration=12_000.0),),
    ),
    ChaosScenario(
        name="corruption_storm",
        description="30% of frames arrive corrupted (CRC drop)",
        faults=(FaultSpec(kind="wire_corrupt", rate=0.3),),
        phase="all",
        deadline_us=1_500_000.0,
    ),
    ChaosScenario(
        name="duplicate_flood",
        description="half the frames are delivered twice",
        faults=(FaultSpec(kind="wire_duplicate", rate=0.5),),
        phase="all",
    ),
    ChaosScenario(
        name="reorder_jitter",
        description="half the frames delayed up to 30 us (reordering)",
        faults=(FaultSpec(kind="wire_reorder", rate=0.5, magnitude=30.0),),
        phase="all",
    ),
    ChaosScenario(
        name="doorbell_drop",
        description="30% of send doorbells lost; scan timer picks up",
        faults=(FaultSpec(kind="doorbell_drop", rate=0.3, magnitude=80.0),),
        phase="all",
    ),
    ChaosScenario(
        name="dma_abort",
        description="15% of data DMAs abort and are retried via RTO",
        faults=(FaultSpec(kind="dma_abort", rate=0.15),),
        phase="all",
    ),
    ChaosScenario(
        name="tlb_storm",
        description="40 NIC TLB flushes, one every 25 us",
        faults=(FaultSpec(kind="tlb_flush", at=20.0, count=40,
                          period=25.0),),
    ),
    ChaosScenario(
        name="cpu_stall",
        description="server host CPU frozen for 3 ms",
        faults=(FaultSpec(kind="cpu_stall", target="node1",
                          at=40.0, duration=3000.0),),
    ),
    ChaosScenario(
        name="many_clients",
        description="5-client cluster; one client's uplink down 2.5 ms "
                    "mid-campaign, the server keeps serving the rest",
        # "c1.up" is the uplink of client node c1 in the star topology;
        # 2.5 ms forces RTO retransmission without exhausting it (no VI
        # error), and the at-offset is relative to the start gate
        faults=(FaultSpec(kind="link_down", target="c1.up",
                          at=400.0, duration=2500.0),),
        workload="cluster",
    ),
    ChaosScenario(
        name="retry_storm",
        description="10x arrival spike on a bounded-queue server; "
                    "post-spike goodput must recover to >=90% of "
                    "pre-spike (no metastable retry storm)",
        faults=(),
        expect_delivery=False,
        workload="overload",
    ),
    ChaosScenario(
        name="slow_server_shed",
        description="server CPU frozen 3 ms mid-run; the bounded queue "
                    "sheds, NAK'd clients back off, nobody hangs",
        # gate-relative, like many_clients; "s0" is the star's server
        faults=(FaultSpec(kind="cpu_stall", target="s0",
                          at=400.0, duration=3000.0),),
        expect_delivery=False,
        workload="overload",
    ),
    ChaosScenario(
        name="partition_retry",
        description="one client's uplink dark 2.5 ms with one tenant "
                    "per client; every spared tenant keeps its SLO",
        faults=(FaultSpec(kind="link_down", target="c1.up",
                          at=400.0, duration=2500.0),),
        expect_delivery=False,
        workload="overload",
    ),
    ChaosScenario(
        name="unreliable_loss",
        description="30% loss on the unreliable level: messages may "
                    "vanish, invariants must hold",
        faults=(FaultSpec(kind="wire_loss", rate=0.3),),
        reliability=Reliability.UNRELIABLE,
        expect_delivery=False,
    ),
)

_BY_NAME = {sc.name: sc for sc in SCENARIOS}


def scenario_names() -> tuple[str, ...]:
    return tuple(sc.name for sc in SCENARIOS)


def get_scenario(name: str) -> ChaosScenario:
    try:
        return _BY_NAME[name]
    except KeyError:
        raise KeyError(f"unknown chaos scenario {name!r}; "
                       f"known: {sorted(_BY_NAME)}") from None
