"""Capacity sweeps: drive a cluster across offered loads, find the knee.

One *point* is a full simulation: a topology stood up fresh, servers
and clients spawned, a fixed number of requests pushed through at one
offered load, and the latency distribution plus goodput extracted.
A *sweep* runs one point per (provider, rate) cell, fanned out through
the suite's parallel executor — every point is an independent
simulation with a :func:`~repro.vibe.executor.task_seed`-derived seed,
so the report is byte-identical for any ``--jobs`` value.

The saturation knee is the largest offered load a provider still
*delivers*: the last point whose goodput stays within
``_KNEE_EFFICIENCY`` of the offered rate.  Beyond it goodput plateaus
while open-loop latency grows without bound — the curve the ROADMAP's
"heavy traffic" question needs.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field, replace

from ..obs.metrics import Histogram
from ..vibe.executor import parallel_map, task_seed
from .policy import DEFAULT_DEADLINE_US, RetryPolicy, ServerPolicy
from .server import ClusterServer, make_service
from .topology import build_testbed, make_topology
from .workload import LATENCY_BUCKETS, ClusterClient, StartGate

__all__ = ["ClusterConfig", "ClusterReport", "RATE_GRID",
           "QUICK_RATE_GRID", "find_knee", "slo_knee", "run_cluster",
           "run_cluster_once", "run_cell", "cell_key", "resolve_rates",
           "sweep_cells", "assemble_report"]

#: default total offered loads (requests/s) for a capacity sweep —
#: geometric, wide enough to cross every provider's knee
RATE_GRID = (2_000.0, 4_000.0, 8_000.0, 16_000.0, 32_000.0, 64_000.0)
QUICK_RATE_GRID = (2_000.0, 8_000.0, 32_000.0)

#: a point is "delivering" while goodput >= this fraction of offered
_KNEE_EFFICIENCY = 0.9


@dataclass(frozen=True)
class ClusterConfig:
    """Everything one cluster run needs besides provider and rate."""

    topology: str = "star"
    nodes: int = 4
    servers: int = 1
    clients: int = 8          # client processes, round-robin over nodes
    requests: int = 16        # per client
    req_size: int = 128
    resp_size: int = 1024
    window: int = 4
    arrival: str = "poisson"
    burst: int = 8
    service: str = "fixed:20"
    mode: str = "open"        # "open" (rate-driven) | "closed"
    think_us: float = 0.0
    seed: int = 0
    deadline_us: float = DEFAULT_DEADLINE_US
    fidelity: str = "packet"  # "packet" | "auto" | "flow"
    # -- overload resilience (PR 9) ----------------------------------
    retry: str = "off"        # RetryPolicy spec: "off" | "on" | "k=v,..."
    server_policy: str = "none"   # ServerPolicy spec: "none" | "k=v,..."
    tenants: int = 1          # clients round-robin over tenants
    slo_p99_us: float = 10_000.0  # per-tenant p99 latency target
    slo_goodput: float = 0.9      # per-tenant goodput floor (fraction)


def _build_actors(cfg: ClusterConfig, topo, tb,
                  rate_rps: float | None, hists, gate: StartGate):
    """Construct every server and client object of one point.

    Every client waits on the shared start ``gate``; ``hists`` is one
    latency sink per tenant (client ``i`` observes into
    ``hists[i % tenants]``).  Nothing here touches the simulator — only
    spawning does.
    """
    service = make_service(cfg.service)
    retry = RetryPolicy.parse(cfg.retry)
    policy = ServerPolicy.parse(cfg.server_policy)
    nten = max(1, cfg.tenants)
    open_loop = cfg.mode == "open" and rate_rps is not None
    interval_us = (cfg.clients * 1e6 / rate_rps) if open_loop else None
    per_server = [0] * cfg.servers
    for i in range(cfg.clients):
        per_server[i % cfg.servers] += 1
    servers = [
        ClusterServer(
            tb, topo.servers[s], per_server[s],
            per_server[s] * cfg.requests,
            discriminator=4000 + s,
            window=cfg.window, service=service,
            req_size=cfg.req_size, resp_size=cfg.resp_size,
            seed=task_seed(cfg.seed, "server", s),
            deadline_us=cfg.deadline_us,
            policy=policy, deadline_aware=retry is not None,
        )
        for s in range(cfg.servers)
    ]
    clients = [
        ClusterClient(
            tb, topo.clients[i % len(topo.clients)], i,
            topo.servers[i % cfg.servers],
            n_requests=cfg.requests, interval_us=interval_us,
            arrival=cfg.arrival, burst=cfg.burst,
            req_size=cfg.req_size, resp_size=cfg.resp_size,
            window=cfg.window, think_us=cfg.think_us,
            discriminator=4000 + (i % cfg.servers),
            seed=task_seed(cfg.seed, "client", i),
            hist=hists[i % nten], deadline_us=cfg.deadline_us,
            gate=gate, retry=retry, tenant=i % nten,
        )
        for i in range(cfg.clients)
    ]
    return servers, clients


def _tenant_rollup(cfg: ClusterConfig, clients, hists) -> list[dict]:
    """Per-tenant raw aggregates (summed client stats, the tenant's
    histogram, and its completion and arrival stamps) of a finished
    run."""
    out = []
    for t in range(max(1, cfg.tenants)):
        tcl = [c for c in clients if c.tenant == t]
        out.append({
            "hist": hists[t],
            "completed": sum(c.stats["completed"] for c in tcl),
            "failed": sum(c.stats["failed"] for c in tcl),
            "retried": sum(c.stats["retried"] for c in tcl),
            "abandoned": sum(c.stats["abandoned"] for c in tcl),
            "deadline_exceeded": sum(c.stats["deadline_exceeded"]
                                     for c in tcl),
            "shed_naks": sum(c.stats["shed_naks"] for c in tcl),
            "expected": sum(c.n_requests for c in tcl),
            "finishes": [x for c in tcl for x in c.finish_times],
            "sched": [x for c in tcl for x in c.schedule],
        })
    return out


def _server_rollup(servers) -> dict:
    """Summed server-side stats (order-insensitive)."""
    keys = ("served", "errors", "shed_queue", "shed_deadline",
            "naks_sent", "conns_rejected")
    return {k: sum(s.stats[k] for s in servers) for k in keys}


def _window_rate(count: int, stamps: list) -> float:
    """Events per second over the interior [first, last] stamp window."""
    span = (max(stamps) - min(stamps)) if len(stamps) > 1 else 0.0
    return (count - 1) * 1e6 / span if span > 0 else 0.0


def _tenant_point(cfg: ClusterConfig, open_loop: bool, ten: dict) -> dict:
    """One tenant's slice of a point, with its SLO verdict."""
    hist = ten["hist"]
    goodput = _window_rate(ten["completed"], ten["finishes"])
    realized = _window_rate(len(ten["sched"]), ten["sched"])
    p99 = hist.quantile(0.99)
    expected = ten["expected"]
    p99_ok = (cfg.slo_p99_us <= 0
              or (hist.count > 0 and p99 <= cfg.slo_p99_us))
    if open_loop and realized > 0:
        goodput_ok = goodput >= cfg.slo_goodput * realized
    else:
        goodput_ok = ten["completed"] >= cfg.slo_goodput * expected
    ok = (p99_ok and goodput_ok) if expected else True
    return {
        "completed": ten["completed"],
        "failed": ten["failed"],
        "retried": ten["retried"],
        "abandoned": ten["abandoned"],
        "deadline_exceeded": ten["deadline_exceeded"],
        "shed_naks": ten["shed_naks"],
        "expected": expected,
        "goodput_rps": round(goodput, 3),
        "realized_rps": round(realized, 3) if open_loop else None,
        "p50_us": round(hist.quantile(0.50), 3),
        "p99_us": round(p99, 3),
        "mean_us": round(hist.total / hist.count, 3) if hist.count else 0.0,
        "slo": {
            "p99_target_us": cfg.slo_p99_us,
            "goodput_floor": cfg.slo_goodput,
            "p99_ok": p99_ok,
            "goodput_ok": goodput_ok,
            "ok": ok,
        },
    }


def _assemble_point(provider: str, cfg: ClusterConfig,
                    rate_rps: float | None, *, tenants, server_stats,
                    ports, retransmissions, recoveries,
                    violations) -> dict:
    """Fold raw run aggregates into the canonical point dict.

    ``tenants`` is a list of per-tenant aggregate dicts (see
    :func:`_tenant_rollup`); every input is order-insensitive (sums,
    min/max, finished histograms), so the point does not depend on the
    order clients or servers were listed in.
    """
    open_loop = cfg.mode == "open" and rate_rps is not None
    hist = tenants[0]["hist"]
    for ten in tenants[1:]:
        hist = hist.merge(ten["hist"])
    completed = sum(t["completed"] for t in tenants)
    finishes = [x for t in tenants for x in t["finishes"]]
    sched = [x for t in tenants for x in t["sched"]]
    # goodput over the aggregate completion window (first to last
    # response anywhere in the cluster): interior by construction, so
    # the warmup ramp and one slow client's tail don't bias the rate
    elapsed = (max(finishes) - min(finishes)) if len(finishes) > 1 else 0.0
    goodput = (completed - 1) * 1e6 / elapsed if elapsed > 0 else 0.0
    # the nominal rate overstates what the sampled Poisson schedules
    # actually offered over the measured window; the knee compares
    # goodput against this realized rate instead
    realized = _window_rate(len(sched), sched)
    tenant_points = [_tenant_point(cfg, open_loop, t) for t in tenants]
    return {
        "provider": provider,
        "offered_rps": round(rate_rps, 3) if open_loop else None,
        "realized_rps": round(realized, 3) if open_loop else None,
        "goodput_rps": round(goodput, 3),
        "p50_us": round(hist.quantile(0.50), 3),
        "p99_us": round(hist.quantile(0.99), 3),
        "p999_us": round(hist.quantile(0.999), 3),
        "mean_us": round(hist.total / hist.count, 3) if hist.count else 0.0,
        "completed": completed,
        "failed": sum(t["failed"] for t in tenants),
        "served": server_stats["served"],
        "elapsed_us": round(elapsed, 3),
        "port_drops": ports["drops"],
        "port_contended": ports["contended"],
        "port_backpressured": ports["backpressured"],
        "retransmissions": retransmissions,
        "recoveries": recoveries,
        "violations": violations,
        # -- overload accounting -------------------------------------
        "retried": sum(t["retried"] for t in tenants),
        "abandoned": sum(t["abandoned"] for t in tenants),
        "deadline_exceeded": sum(t["deadline_exceeded"] for t in tenants),
        "shed_queue": server_stats["shed_queue"],
        "shed_deadline": server_stats["shed_deadline"],
        "naks_sent": server_stats["naks_sent"],
        "conns_rejected": server_stats["conns_rejected"],
        "slo_ok": all(t["slo"]["ok"] for t in tenant_points),
        "tenants": tenant_points,
    }


def run_cluster_once(provider: str, cfg: ClusterConfig,
                     rate_rps: float | None = None,
                     check: bool = False, fault_plan=None,
                     harvest=None) -> dict:
    """Run one cluster simulation; returns a deterministic point dict.

    ``rate_rps`` is the *total* offered load across all clients (open
    loop); ``None`` or ``mode="closed"`` runs closed-loop.  Passing a
    :class:`~repro.obs.metrics.MetricsRegistry` as ``harvest`` fills it
    from the finished testbed.
    """
    topo = make_topology(cfg.topology, cfg.nodes, cfg.servers)
    tb = build_testbed(provider, topo, seed=cfg.seed, check=check,
                       faults=fault_plan, fidelity=cfg.fidelity)
    hists = [Histogram("latency_us", LATENCY_BUCKETS)
             for _ in range(max(1, cfg.tenants))]
    # clients only: servers serve reactively and never join the gate
    gate = StartGate(tb.sim, cfg.clients)
    servers, clients = _build_actors(cfg, topo, tb, rate_rps, hists, gate)

    procs = [tb.spawn(s.body(), f"server-{i}") for i, s in enumerate(servers)]
    procs += [tb.spawn(c.body(), f"client-{c.cid}") for c in clients]
    violations: list[str] = []
    try:
        for proc in procs:
            tb.run(proc)
        tb.run()  # drain stray timers (RTO etc.)
        if check:
            tb.checker.check_quiesced(tb)
    except Exception as exc:  # conformance violation or crash
        violations.append(f"{type(exc).__name__}: {exc}")

    if harvest is not None:
        from ..obs.harvest import harvest_into

        harvest_into(harvest, tb)
    providers = list(tb.providers.values())
    point = _assemble_point(
        provider, cfg, rate_rps,
        tenants=_tenant_rollup(cfg, clients, hists),
        server_stats=_server_rollup(servers),
        ports=_port_stats(tb),
        retransmissions=sum(p.engine.retransmissions for p in providers),
        recoveries=sum(p.recoveries for p in providers),
        violations=violations,
    )
    tb.close()
    return point


def _port_stats(tb) -> dict:
    """Sum output-port counters over whatever fabric the testbed has."""
    totals = {"drops": 0, "contended": 0, "backpressured": 0}
    switch = getattr(tb.fabric, "switch", None)
    ports = list(switch._ports.values()) if switch is not None else []
    for leaf in getattr(tb.fabric, "leaves", ()):
        ports.extend(leaf.local_ports.values())
    for port in ports:
        totals["drops"] += port.drops
        totals["contended"] += port.contended
        totals["backpressured"] += port.backpressured
    return totals


def find_knee(points: list[dict]) -> dict:
    """The saturation knee of one provider's sweep.

    Returns ``{"knee_rps": ..., "peak_goodput_rps": ...}``: the largest
    offered load still delivered at >= ``_KNEE_EFFICIENCY`` efficiency,
    and the best goodput seen anywhere (the plateau height).
    """
    peak = max((p["goodput_rps"] for p in points), default=0.0)
    knee = 0.0
    for p in sorted(points, key=lambda p: p["offered_rps"] or 0.0):
        target = p.get("realized_rps") or p["offered_rps"]
        if target and p["goodput_rps"] >= _KNEE_EFFICIENCY * target:
            knee = p["offered_rps"]
    return {"knee_rps": knee, "peak_goodput_rps": peak}


def slo_knee(points: list[dict]) -> dict:
    """SLO-capacity planning: the largest offered load at which *every*
    tenant still meets its SLO verdict (p99 target + goodput floor) —
    usually left of the raw saturation knee, because tail latency
    degrades before aggregate goodput does."""
    knee = 0.0
    for p in sorted(points, key=lambda p: p["offered_rps"] or 0.0):
        if p["offered_rps"] and p.get("slo_ok"):
            knee = p["offered_rps"]
    return {"slo_knee_rps": knee}


def run_cell(provider: str, cfg: ClusterConfig,
             rate: float | None, check: bool) -> dict:
    """Run one :func:`sweep_cells` cell and return its point.

    Each cell gets its own derived seed so points are independent
    draws, yet reproducible for any execution order.  The picklable
    worker of both :func:`run_cluster` and the experiment service
    (:mod:`repro.serve`), so a served cell is the direct CLI's cell.
    """
    cell_cfg = replace(cfg, seed=task_seed(cfg.seed, provider, rate))
    return run_cluster_once(provider, cell_cfg, rate, check=check)


@dataclass
class ClusterReport:
    """A full capacity sweep: per-provider curves plus their knees."""

    config: dict
    providers: tuple
    rates: tuple
    results: dict = field(default_factory=dict)  # provider -> curve dict

    @property
    def ok(self) -> bool:
        return bool(self.results) and not any(
            pt["violations"]
            for curve in self.results.values() for pt in curve["points"])

    def summary(self) -> str:
        cfg = self.config
        lines = [
            f"cluster: {cfg['topology']} x{cfg['nodes']} nodes, "
            f"{cfg['clients']} clients x {cfg['requests']} reqs, "
            f"req {cfg['req_size']} B -> resp {cfg['resp_size']} B, "
            f"service {cfg['service']}",
        ]
        overload = (cfg.get("retry", "off") != "off"
                    or cfg.get("server_policy", "none") != "none")
        tenants = cfg.get("tenants", 1)
        for prov in self.providers:
            curve = self.results[prov]
            knee_line = (f"  {prov}: knee {curve['knee_rps']:.0f} rps, "
                         f"peak goodput {curve['peak_goodput_rps']:.0f} rps")
            if overload or tenants > 1:
                knee_line += f", slo knee {curve['slo_knee_rps']:.0f} rps"
            lines.append(knee_line)
            header = (f"    {'offered':>9} {'goodput':>9} {'p50_us':>9} "
                      f"{'p99_us':>10} {'p999_us':>10} {'drops':>6} "
                      f"{'retx':>5}")
            if overload:
                header += f" {'retry':>6} {'shed':>6} {'ddl':>5}"
            lines.append(header)
            for pt in curve["points"]:
                offered = (f"{pt['offered_rps']:.0f}"
                           if pt["offered_rps"] else "closed")
                line = (
                    f"    {offered:>9} {pt['goodput_rps']:>9.0f} "
                    f"{pt['p50_us']:>9.1f} {pt['p99_us']:>10.1f} "
                    f"{pt['p999_us']:>10.1f} {pt['port_drops']:>6} "
                    f"{pt['retransmissions']:>5}")
                if overload:
                    shed = pt["shed_queue"] + pt["shed_deadline"]
                    line += (f" {pt['retried']:>6} {shed:>6} "
                             f"{pt['deadline_exceeded']:>5}")
                lines.append(line)
                if tenants > 1:
                    verdicts = []
                    for t, tp in enumerate(pt["tenants"]):
                        slo = tp["slo"]
                        if slo["ok"]:
                            verdicts.append(f"t{t} ok")
                        else:
                            why = []
                            if not slo["p99_ok"]:
                                why.append("p99")
                            if not slo["goodput_ok"]:
                                why.append("goodput")
                            verdicts.append(f"t{t} FAIL({','.join(why)})")
                    lines.append("      slo: " + ", ".join(verdicts))
        for prov in self.providers:
            for pt in self.results[prov]["points"]:
                for v in pt["violations"]:
                    lines.append(f"  {prov}: {v}")
        lines.append("PASS" if self.ok else "FAIL")
        return "\n".join(lines)

    def to_json(self) -> str:
        return json.dumps(
            {
                "config": self.config,
                "providers": list(self.providers),
                "rates": list(self.rates),
                "ok": self.ok,
                "results": self.results,
            },
            indent=2,
            sort_keys=True,
        )


def cell_key(provider: str, cfg: ClusterConfig, rate: float | None,
             check: bool) -> str:
    """Content-address one sweep cell: the *single* cell identity.

    A pure function of (code version, provider, config, rate, check) —
    identical across processes, resumed campaigns, and the experiment
    service (:mod:`repro.serve`), changed by any input that could
    change the point's bytes.  Campaign checkpoints
    (``--checkpoint-dir``) and the service both persist cells as
    ``cell-<key>.json`` through :class:`repro.serve.ResultCache`, so a
    cell computed by either consumer is a cache hit for the other.
    """
    from ..snap import snapshot_key

    canon = repr((provider, sorted(asdict(cfg).items()), rate, check))
    return snapshot_key(canon, cfg.seed)


def run_cluster(providers: tuple, cfg: ClusterConfig,
                rates: tuple | None = None, jobs: int = 1,
                check: bool = False,
                checkpoint_dir: str | None = None) -> ClusterReport:
    """Sweep every (provider, rate) cell; never raises, inspect ``ok``.

    ``checkpoint_dir`` makes the campaign resumable: each finished cell
    is written to ``cell-<content-hash>.json`` keyed by (code version,
    provider, config, rate), and a re-run with the same directory skips
    cells already on disk that verify — an interrupted campaign
    continues where it stopped and still emits the byte-identical final
    report.
    """
    rates = resolve_rates(cfg, rates)
    cells = sweep_cells(providers, cfg, rates, check)
    points: list[dict | None] = [None] * len(cells)
    store = None
    if checkpoint_dir is not None:
        from ..serve.cache import ResultCache

        store = ResultCache(checkpoint_dir)
        points = [store.get_cell(cell_key(*c)) for c in cells]
    todo = [i for i, point in enumerate(points) if point is None]

    if todo:
        fresh = parallel_map(run_cell, [cells[i] for i in todo], jobs)
        for i, point in zip(todo, fresh):
            points[i] = point
            if store is not None:
                store.put_cell(cell_key(*cells[i]), point)

    return assemble_report(providers, cfg, rates, points)


def resolve_rates(cfg: ClusterConfig, rates: tuple | None) -> tuple:
    """Normalise a sweep's rate grid exactly as :func:`run_cluster` does:
    closed-loop runs collapse to one rate-less cell, open-loop sweeps
    default to :data:`RATE_GRID`."""
    if cfg.mode == "closed":
        return (None,)
    if rates is None:
        return RATE_GRID
    return tuple(rates)


def sweep_cells(providers: tuple, cfg: ClusterConfig, rates: tuple,
                check: bool = False) -> list[tuple]:
    """The sweep's ``(provider, cfg, rate, check)`` cells in canonical
    order — the order :func:`assemble_report` expects points back in."""
    return [(p, cfg, r, check) for p in providers for r in rates]


def assemble_report(providers: tuple, cfg: ClusterConfig, rates: tuple,
                    points: list[dict]) -> ClusterReport:
    """Fold finished points (in :func:`sweep_cells` order) into a
    :class:`ClusterReport`.

    Shared by :func:`run_cluster` and the experiment service
    (:mod:`repro.serve`): because assembly is a pure function of the
    points, a served sweep's ``to_json`` is byte-identical to the
    direct CLI's for the same cells, however they were scheduled or
    cached.
    """
    report = ClusterReport(config=asdict(cfg), providers=tuple(providers),
                           rates=tuple(r for r in rates if r is not None))
    for i, prov in enumerate(providers):
        curve_pts = points[i * len(rates):(i + 1) * len(rates)]
        curve = {"points": curve_pts}
        curve.update(find_knee(curve_pts))
        curve.update(slo_knee(curve_pts))
        report.results[prov] = curve
    return report
