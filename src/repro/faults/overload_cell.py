"""Overload chaos cells: spikes, stalls and partitions under policy.

The ``many_clients`` cell shows a cluster surviving a *fault*; these
three cells show it surviving *overload* — the failure mode the retry
and admission policies (:mod:`repro.cluster.policy`) exist for:

* ``retry_storm`` — a 10x arrival spike slams one server.  Bounded
  admission sheds the overflow, NAK'd clients back off instead of
  hot-looping, and the pass contract is *re-stabilization*: goodput in
  the post-spike window recovers to >= 90% of the pre-spike window
  (a metastable retry storm would keep the server pinned instead).
* ``slow_server_shed`` — the server's host CPU freezes mid-run.  The
  pending queue overflows, shedding kicks in, and the contract is that
  shed counters are nonzero while *every* client still resolves every
  request (completed, abandoned or deadline-exceeded — never hung).
* ``partition_retry`` — one client's uplink goes dark for longer than
  its per-request deadline, with one tenant per client.  The faulted
  tenant degrades; the contract is that every *other* tenant keeps its
  SLO (full completion, p99 under target).

Fault ``at``-offsets are gate-relative, as in the ``many_clients``
cell, so windows land mid-traffic on every provider.
"""

from __future__ import annotations

from ..check.invariants import ConformanceError
from .scenarios import ChaosScenario

__all__ = ["run_overload_scenario"]

#: one server plus five clients in a star
_NODES = 6

#: per-client stagger between otherwise identical schedules (us) — a
#: touch of skew so five clients never post at one simulated instant
_STAGGER_US = 13.0

#: partition_retry per-tenant SLO: p99 target (us) for spared tenants
_SLO_P99_US = 5_000.0


def _steady_offsets(n: int, gap_us: float, cid: int) -> list[float]:
    return [cid * _STAGGER_US + i * gap_us for i in range(n)]


def _spike_offsets(pre: int, spike: int, post: int, base_gap: float,
                   spike_gap: float, cid: int) -> tuple[list, float, float]:
    """pre/post at ``base_gap``, a burst at ``spike_gap`` in between.

    Returns ``(offsets, pre_end, spike_end)`` with the phase boundaries
    in gate-relative microseconds.
    """
    offs: list[float] = []
    t = cid * _STAGGER_US
    for _ in range(pre):
        offs.append(t)
        t += base_gap
    pre_end = pre * base_gap
    for _ in range(spike):
        offs.append(t)
        t += spike_gap
    spike_end = pre_end + spike * spike_gap
    for _ in range(post):
        offs.append(t)
        t += base_gap
    return offs, pre_end, spike_end


def run_overload_scenario(provider: str, sc: ChaosScenario, seed: int = 0,
                          quick: bool = False):
    """Run one overload scenario cell; returns a ScenarioResult."""
    from ..cluster.policy import RetryPolicy, ServerPolicy
    from ..cluster.server import ClusterServer, make_service
    from ..cluster.topology import build_testbed, make_topology
    from ..cluster.workload import LATENCY_BUCKETS, ClusterClient, StartGate
    from ..obs.metrics import Histogram
    from ..executor import task_seed
    from .chaos import ScenarioResult
    from .injector import attach_faults

    deadline_us = min(sc.deadline_us, 150_000.0) if quick else sc.deadline_us
    topo = make_topology("star", _NODES, 1)
    n_clients = len(topo.clients)
    faulted = {name for name in topo.clients
               if any(f.target and f.target.startswith(name + ".")
                      for f in sc.faults)}

    # -- per-cell workload shape and policies ---------------------------
    pre_end = spike_end = 0.0
    if sc.name == "retry_storm":
        # fixed:100 = 10k rps capacity; pre/post offer 2.5k, the spike
        # offers 100k — deep overload that must drain, not metastasize
        pre, spike, post = (4, 10, 4) if quick else (8, 24, 8)
        count = pre + spike + post
        service = "fixed:100"
        retry = RetryPolicy(max_retries=3, base_us=200.0, cap_us=5_000.0,
                            jitter=0.5, timeout_us=20_000.0)
        policy = ServerPolicy(queue_depth=16, shed_mode="tail")
        tenants = 1

        def offsets_for(cid: int) -> list[float]:
            nonlocal pre_end, spike_end
            offs, pre_end, spike_end = _spike_offsets(
                pre, spike, post, 2_000.0, 50.0, cid)
            return offs
    elif sc.name == "slow_server_shed":
        # 4.2k rps against 6.7k capacity: healthy until the 3 ms stall
        # parks the server and the bounded queue starts shedding
        count = 10 if quick else 24
        service = "fixed:150"
        retry = RetryPolicy()
        policy = ServerPolicy(queue_depth=8, shed_mode="tail")
        tenants = 1

        def offsets_for(cid: int) -> list[float]:
            return _steady_offsets(count, 1_200.0, cid)
    elif sc.name == "partition_retry":
        # per-request deadline (2 ms) shorter than the blackout
        # (2.5 ms): the dark tenant's requests expire and are NAK'd
        # RESP_EXPIRED on arrival, never charged service time.  Offered
        # load stays low enough (2k rps, 8k with full retry
        # amplification, against 10k capacity) that expiry-driven
        # retries cannot tip the spared tenants into overload
        count = 10 if quick else 24
        service = "fixed:100"
        retry = RetryPolicy(max_retries=3, base_us=200.0, cap_us=2_000.0,
                            jitter=0.5, timeout_us=2_000.0)
        policy = ServerPolicy(queue_depth=32, shed_mode="deadline")
        tenants = n_clients

        def offsets_for(cid: int) -> list[float]:
            return _steady_offsets(count, 2_500.0, cid)
    else:
        raise KeyError(f"unknown overload scenario {sc.name!r}")

    tb = build_testbed(provider, topo, seed=seed, check=True)
    plan = sc.plan(seed)
    hists = [Histogram("latency_us", LATENCY_BUCKETS)
             for _ in range(tenants)]
    gate = StartGate(tb.sim, n_clients)

    server = ClusterServer(
        tb, topo.servers[0], n_clients, n_clients * count,
        window=sc.window, service=make_service(service),
        reliability=sc.reliability,
        seed=task_seed(seed, "server"), deadline_us=deadline_us,
        policy=policy, deadline_aware=True,
    )
    clients = [
        ClusterClient(
            tb, topo.clients[i], i, topo.servers[0],
            n_requests=count, interval_us=1.0, window=sc.window,
            reliability=sc.reliability,
            seed=task_seed(seed, "client", i), hist=hists[i % tenants],
            deadline_us=deadline_us, gate=gate,
            retry=retry, tenant=i % tenants, offsets=offsets_for(i),
        )
        for i in range(n_clients)
    ]

    def arm():
        yield from gate.released()
        if plan.faults:
            attach_faults(tb, plan.shifted(tb.now))

    procs = [tb.spawn(server.body(), "overload-server")]
    procs += [tb.spawn(c.body(), f"overload-client-{c.cid}")
              for c in clients]
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
    sheds = server.stats["shed_queue"] + server.stats["shed_deadline"]
    retried = sum(c.stats["retried"] for c in clients)
    resolved_clean = all(
        c.stats["completed"] + c.stats["abandoned"]
        + c.stats["deadline_exceeded"] == count
        for c in clients
    )
    t0 = gate.t0 if gate.t0 is not None else 0.0

    # -- per-cell verdict ----------------------------------------------
    error = ""
    note = ""
    if sc.name == "retry_storm":
        finishes = [t for c in clients for t in c.finish_times]
        pre_done = sum(1 for t in finishes if t <= t0 + pre_end)
        post_done = sum(1 for t in finishes
                        if t0 + spike_end <= t <= t0 + spike_end + pre_end)
        note = (f"pre {pre_done} / post {post_done} completions; "
                f"{sheds} shed, {retried} retried")
        if sheds == 0 or retried == 0:
            error = "the spike never overloaded the server"
        elif pre_done == 0 or post_done < 0.9 * pre_done:
            error = (f"goodput never re-stabilized: {post_done} post-spike "
                     f"vs {pre_done} pre-spike completions")
        elif not resolved_clean:
            error = "a client left requests unresolved"
    elif sc.name == "slow_server_shed":
        note = (f"{sheds} shed, {server.stats['naks_sent']} NAKs, "
                f"{retried} retried")
        if sheds == 0 or server.stats["naks_sent"] == 0:
            error = "the stall never forced a shed"
        elif not resolved_clean:
            error = "a client hung: requests left unresolved"
    elif sc.name == "partition_retry":
        spared = [i for i, c in enumerate(clients) if c.node not in faulted]
        dark = [c for c in clients if c.node in faulted]
        bad = []
        for i in spared:
            hist = hists[i % tenants]
            p99 = hist.quantile(0.99)
            if clients[i].stats["completed"] != count:
                bad.append(f"t{i}: {clients[i].stats['completed']}/{count}")
            elif p99 > _SLO_P99_US:
                bad.append(f"t{i}: p99 {p99:.0f}us")
        disrupted = sum(c.stats["retried"] + c.stats["deadline_exceeded"]
                        for c in dark)
        note = (f"{len(spared)} spared tenants clean; dark tenant saw "
                f"{disrupted} retries/expiries")
        if not dark:
            error = "the fault plan touched no client"
        elif disrupted == 0:
            error = "the blackout never disrupted the dark tenant"
        elif bad:
            error = "spared tenants broke SLO: " + ", ".join(bad)
        elif not resolved_clean:
            error = "a client left requests unresolved"

    finishes = [t for c in clients for t in c.finish_times]
    elapsed = (max(finishes) - t0) if finishes else 0.0
    providers = list(tb.providers.values())
    injector = tb.injector
    ok = not violations and not error
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
        note=error or note,
    )
    tb.close()
    return result
