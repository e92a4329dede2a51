"""The ``many_clients`` chaos cell: a serving cluster under a fault.

The two-node stream in :mod:`repro.faults.chaos` shows one connection
surviving a fault; this cell shows a *server* surviving one — an
N-client cluster (one closed-loop client per node) where the fault plan
takes a single client's uplink down mid-campaign.  The pass contract:

* the server and every untouched client finish their full request
  quota (reliable delivery recovers the faulted client's requests too),
* the server keeps serving during the outage window — completions from
  other clients land while the faulted link is dark,
* every online conformance invariant holds and the quiesce audit is
  clean.

Fault ``at``-offsets are interpreted relative to the cluster's start
gate (the moment the last client finished connecting), mirroring the
``phase="data"`` convention of the stream scenarios, so the window
lands mid-traffic on every provider regardless of handshake cost.
"""

from __future__ import annotations

from ..check.invariants import ConformanceError
from .scenarios import ChaosScenario

__all__ = ["run_cluster_scenario"]

#: one client per non-server node in a star over this many nodes
_NODES = 6


def run_cluster_scenario(provider: str, sc: ChaosScenario, seed: int = 0,
                         quick: bool = False):
    """Run one cluster-workload scenario cell; returns a ScenarioResult."""
    from ..cluster.server import ClusterServer, make_service
    from ..cluster.topology import build_testbed, make_topology
    from ..cluster.workload import LATENCY_BUCKETS, ClusterClient, StartGate
    from ..obs.metrics import Histogram
    from ..executor import task_seed
    from .chaos import ScenarioResult
    from .injector import attach_faults

    count = min(sc.count, 8) if quick else sc.count
    deadline_us = min(sc.deadline_us, 150_000.0) if quick else sc.deadline_us
    topo = make_topology("star", _NODES, 1)
    n_clients = len(topo.clients)
    faulted = {name for name in topo.clients
               if any(f.target and f.target.startswith(name + ".")
                      for f in sc.faults)}
    tb = build_testbed(provider, topo, seed=seed, check=True)
    plan = sc.plan(seed)
    hist = Histogram("latency_us", LATENCY_BUCKETS)
    gate = StartGate(tb.sim, n_clients)

    server = ClusterServer(
        tb, topo.servers[0], n_clients, n_clients * count,
        window=sc.window, service=make_service("fixed:20"),
        reliability=sc.reliability,
        seed=task_seed(seed, "server"), deadline_us=deadline_us,
    )
    clients = [
        ClusterClient(
            tb, topo.clients[i], i, topo.servers[0],
            n_requests=count, window=sc.window,
            reliability=sc.reliability,
            seed=task_seed(seed, "client", i), hist=hist,
            deadline_us=deadline_us, gate=gate,
        )
        for i in range(n_clients)
    ]

    window_abs = {}

    def arm():
        # start the fault clock at the gate, once every client is up
        yield from gate.released()
        shifted = plan.shifted(tb.now)
        window_abs.update(
            start=min(f.at for f in shifted.faults),
            end=max(f.at + (f.duration or 0.0) for f in shifted.faults),
        )
        attach_faults(tb, shifted)

    procs = [tb.spawn(server.body(), "cluster-server")]
    procs += [tb.spawn(c.body(), f"cluster-client-{c.cid}") for c in clients]
    tb.spawn(arm(), "fault-arm")
    violations: list = []
    try:
        for proc in procs:
            tb.run(proc)
        tb.run()  # drain stray timers so the quiesce audit sees quiet
        tb.checker.check_quiesced(tb)
    except ConformanceError as exc:
        violations.append(str(exc))
    except Exception as exc:  # a crash is also a chaos failure
        violations.append(f"crashed with {type(exc).__name__}: {exc}")

    delivered = sum(c.stats["completed"] for c in clients)
    expected = n_clients * count
    spared = [c for c in clients if c.node not in faulted]
    spared_clean = all(c.stats["completed"] == count for c in spared)
    served_during = sum(
        1 for c in spared for t in c.finish_times
        if window_abs["start"] <= t <= window_abs["end"]
    ) if window_abs else 0
    error = ""
    if not spared_clean:
        error = "a non-faulted client lost requests"
    elif delivered != expected and sc.expect_delivery:
        error = "the faulted client never caught back up"
    t0 = gate.t0 if gate.t0 is not None else 0.0
    finishes = [t for c in clients for t in c.finish_times]
    elapsed = (max(finishes) - t0) if finishes else 0.0
    providers = list(tb.providers.values())
    injector = tb.injector
    ok = (not violations and not error
          and (delivered == expected or not sc.expect_delivery))
    result = ScenarioResult(
        scenario=sc.name,
        provider=provider,
        ok=ok,
        delivered=delivered,
        expected=expected,
        duplicates=0,
        recoveries=sum(p.recoveries for p in providers),
        conn_retransmissions=sum(p.conn_retransmissions for p in providers),
        retransmissions=sum(p.engine.retransmissions for p in providers),
        faults_injected=(sum(injector.counters.values())
                         if injector is not None else 0),
        recovery_latency_us=0.0,
        elapsed_us=elapsed,
        goodput_mbs=0.0,
        violations=violations,
        note=error or f"{served_during} responses served during the outage",
    )
    tb.close()
    return result
