"""Command-line entry point: ``vibe <command>``.

Regenerates the paper's tables and figures as text on stdout::

    vibe table1                      # non-data-transfer costs
    vibe figure 1                    # memory registration sweep
    vibe figure 3 --sizes 4,1024     # base latency/bandwidth, polling
    vibe run base_latency --provider clan
    vibe list                        # all suite benchmark names
"""

from __future__ import annotations

import argparse
import sys

from .vibe import (
    DEFAULT_PROVIDERS,
    SUITE,
    ascii_plot,
    base_bandwidth,
    base_latency,
    client_server,
    memreg_sweep,
    multivi_bandwidth,
    multivi_latency,
    nondata_costs,
    render_figure,
    render_memreg,
    render_table1,
    reuse_bandwidth,
    reuse_latency,
    run_benchmark,
)
from .via.constants import WaitMode
from .executor import parallel_map


def _sizes(args) -> list[int] | None:
    """``--sizes`` as integers; exits with one ``vibe <cmd>: ...`` line
    when a value is not an integer."""
    if not args.sizes:
        return None
    try:
        return [int(x) for x in args.sizes.split(",")]
    except ValueError:
        sys.exit(f"vibe {args.command}: --sizes {args.sizes} is not a "
                 "comma-separated list of integers")


def _render(args, results, metric, title):
    if getattr(args, "plot", False):
        return ascii_plot(results, metric, title)
    return render_figure(results, metric, title)


def cmd_table1(args) -> None:
    results = dict(zip(args.providers, parallel_map(
        nondata_costs, [(p,) for p in args.providers], args.jobs)))
    print(render_table1(results))


def cmd_figure(args) -> None:
    sizes = _sizes(args)
    jobs = args.jobs
    n = args.number
    if n in (1, 2):
        results = dict(zip(args.providers, parallel_map(
            memreg_sweep, [(p, sizes) for p in args.providers], jobs)))
        metric = "register_us" if n == 1 else "deregister_us"
        print(render_memreg(results, metric))
    elif n == 3:
        lat = parallel_map(base_latency,
                           [(p, sizes) for p in args.providers], jobs)
        print(_render(args, lat, "latency_us",
                      "Fig. 3: base latency, polling (us)"))
        print()
        bw = parallel_map(base_bandwidth,
                          [(p, sizes) for p in args.providers], jobs)
        print(_render(args, bw, "bandwidth_mbs",
                      "Fig. 3: base bandwidth, polling (MB/s)"))
    elif n == 4:
        lat = parallel_map(
            base_latency,
            [(p, sizes, WaitMode.BLOCK) for p in args.providers], jobs)
        print(render_figure(lat, "latency_us",
                            "Fig. 4: base latency, blocking (us)"))
        print()
        print(render_figure(lat, "cpu_send",
                            "Fig. 4: sender CPU utilisation, blocking"))
    elif n == 5:
        lat = reuse_latency("bvia", sizes, jobs=jobs)
        print(render_figure(lat, "latency_us",
                            "Fig. 5: BVIA latency vs buffer reuse (us)"))
        print()
        bw = reuse_bandwidth("bvia", sizes, jobs=jobs)
        print(render_figure(bw, "bandwidth_mbs",
                            "Fig. 5: BVIA bandwidth vs buffer reuse (MB/s)"))
    elif n == 6:
        lat = parallel_map(multivi_latency,
                           [(p,) for p in args.providers], jobs)
        print(render_figure(lat, "latency_us",
                            "Fig. 6: latency vs #VIs, 4 B messages (us)"))
        print()
        bw = parallel_map(multivi_bandwidth,
                          [(p,) for p in args.providers], jobs)
        print(render_figure(bw, "bandwidth_mbs",
                            "Fig. 6: bandwidth vs #VIs, 4 KiB messages"))
    elif n == 7:
        for req in (16, 256):
            res = parallel_map(client_server,
                               [(p, req, sizes) for p in args.providers],
                               jobs)
            print(render_figure(
                res, "tps",
                f"Fig. 7: client/server, request={req} B (transactions/s)"))
            print()
    else:
        sys.exit(f"no figure {n}; the paper has figures 1-7")


def cmd_experiment(args) -> None:
    """``vibe run|cluster|chaos``: run the spec ``vibe submit`` sends
    for the same flags in-process, through the service's executor."""
    from .serve.execute import run_spec
    from .serve.spec import ExperimentSpec, SpecError

    try:
        spec = ExperimentSpec.from_dict(_submit_spec(args))
    except SpecError as exc:
        sys.exit(f"vibe {args.command}: {exc}")
    report = run_spec(spec, jobs=args.jobs,
                      cell_dir=getattr(args, "checkpoint_dir", None))
    print(report.summary())
    if args.json_out:
        with open(args.json_out, "w") as fh:
            fh.write(report.to_json())
        what = "results" if spec.kind == "run" else f"{spec.kind} report"
        print(f"{what} written to {args.json_out}")
    if not report.ok:
        sys.exit(1)


def cmd_list(_args) -> None:
    for name in SUITE:
        print(name)


def cmd_breakdown(args) -> None:
    from .models.breakdown import latency_breakdown, render_breakdowns

    if args.compare:
        bds = [latency_breakdown(p, args.size) for p in args.providers]
        print(render_breakdowns(bds))
    else:
        bd = latency_breakdown(args.provider, args.size)
        print(bd.table())
        print(f"\nbottleneck: {bd.bottleneck()}")


def cmd_trace(args) -> None:
    from .programs import oneway
    from .providers import Testbed
    from .sim.trace import Tracer

    tb = Testbed(args.provider)
    tb.sim.tracer = Tracer()
    oneway(tb, args.size).run()
    print(tb.sim.tracer.timeline())
    if args.trace_out:
        from .obs.perfetto import dumps_trace

        with open(args.trace_out, "w") as fh:
            fh.write(dumps_trace(tb.sim.tracer))
        print(f"chrome trace written to {args.trace_out}")
    tb.close()


def cmd_profile(args) -> None:
    from .obs.profile import (
        combined_metrics_json,
        combined_trace_json,
        profile_transfer,
    )
    from .via.constants import Reliability

    reliability = None
    if args.reliability:
        reliability = Reliability(args.reliability)
    elif args.loss_rate:
        # an unreliable lossy ping-pong may never finish; default to the
        # level whose retransmission machinery the flag exists to show
        reliability = Reliability.RELIABLE_DELIVERY
    profiles = parallel_map(
        profile_transfer,
        [(p, args.size, args.seed, args.loss_rate, reliability,
          args.fidelity)
         for p in args.providers], args.jobs)
    for i, p in enumerate(profiles):
        if i:
            print()
        print(p.summary())
    if args.trace_out:
        with open(args.trace_out, "w") as fh:
            fh.write(combined_trace_json(profiles))
        print(f"\nchrome trace written to {args.trace_out}"
              " (load in ui.perfetto.dev or chrome://tracing)")
    if args.metrics_out:
        with open(args.metrics_out, "w") as fh:
            fh.write(combined_metrics_json(profiles))
        print(f"metrics snapshot written to {args.metrics_out}")


def cmd_check(args) -> None:
    from .check import ALL_PROVIDERS, run_conformance

    providers = tuple(args.providers)
    if providers == DEFAULT_PROVIDERS:
        # conformance should cover every stack unless explicitly narrowed
        providers = ALL_PROVIDERS
    report = run_conformance(providers, seed=args.seed,
                             logp=not args.no_logp)
    print(report.summary())
    if not report.ok:
        sys.exit(1)


def _chaos_scenarios(args) -> tuple | None:
    """--scenario values, comma-separable and repeatable."""
    if not args.scenario:
        return None
    return tuple(name for spec in args.scenario
                 for name in spec.split(",") if name)


def _chaos_providers(args) -> list | None:
    """The providers a chaos campaign is narrowed to, or None for all
    four: ``vibe chaos`` reads the global ``--providers`` (its default
    means every stack), ``vibe submit chaos`` its own ``--provider``."""
    if args.command == "submit":
        return None if args.provider == "all" else args.provider.split(",")
    return (None if tuple(args.providers) == DEFAULT_PROVIDERS
            else args.providers)


def _chaos_spec_params(args) -> dict:
    """Experiment-spec params for a chaos invocation's flags (None
    means every scenario, or every provider)."""
    return {"quick": args.quick, "scenarios": _chaos_scenarios(args),
            "providers": _chaos_providers(args)}


def cmd_chaos(args) -> None:
    if args.rewind:
        _chaos_rewind(args)
    else:
        cmd_experiment(args)


def _chaos_rewind(args) -> None:
    """``vibe chaos --rewind``: step each cell to just before its first
    fault arms, then finish the fault window traced."""
    from .check import ALL_PROVIDERS
    from .faults.chaos import rewind_scenario
    from .faults.scenarios import SCENARIOS, get_scenario

    if args.json_out:
        sys.exit("vibe chaos: --rewind writes no JSON report; "
                 "drop --json-out or --rewind")
    providers = _chaos_providers(args) or ALL_PROVIDERS
    names = _chaos_scenarios(args)
    try:
        chosen = (tuple(get_scenario(n) for n in names) if names else
                  tuple(sc for sc in SCENARIOS if sc.workload == "stream"))
    except KeyError as exc:
        sys.exit(f"vibe chaos: {exc.args[0]}")
    if not any(sc.workload == "stream" for sc in chosen):
        sys.exit("vibe chaos: --rewind supports two-node stream scenarios "
                 "only, not " + ", ".join(f"{sc.name} ({sc.workload} "
                                          "workload)" for sc in chosen))
    print(f"chaos rewind: {len(chosen)} scenarios x "
          f"{len(providers)} providers")
    ok = True
    for sc in chosen:
        for p in providers:
            if sc.workload != "stream":
                print(f"  {sc.name:<20} {p:<8} skipped "
                      f"({sc.workload} workload)")
                continue
            rw = rewind_scenario(p, sc, seed=args.seed, quick=args.quick)
            print(rw.summary())
            ok = ok and rw.result.ok and rw.matches_cold
    print("PASS" if ok else "FAIL")
    if not ok:
        sys.exit(1)


def cmd_save(args) -> None:
    from .vibe.repository import ResultRepository

    repo = ResultRepository(args.repo)
    names = args.benchmarks or ["nondata", "memreg", "base_latency",
                                "base_bandwidth", "client_server"]
    for name in names:
        result = run_benchmark(name, args.provider)
        results = result if isinstance(result, list) else [result]
        for r in results:
            path = repo.save(args.platform, r)
            print(f"saved {path}")


def cmd_report(args) -> None:
    from .vibe.reportgen import generate_report

    path = generate_report(args.out, providers=tuple(args.providers),
                           quick=args.quick, jobs=args.jobs)
    print(f"report written to {path}")


def cmd_compare(args) -> None:
    from .vibe.repository import ResultRepository

    repo = ResultRepository(args.repo)
    print(repo.compare(args.benchmark, args.metric, args.platforms))


def cmd_serve(args) -> None:
    """Run the experiment service until SIGTERM/SIGINT, then drain."""
    import signal
    import threading

    from .serve import ExperimentService

    svc = ExperimentService(host=args.host, port=args.port,
                            workers=args.workers,
                            cache_dir=args.cache_dir,
                            queue_capacity=args.queue_capacity,
                            quick_quiesce=args.quick_quiesce)
    try:
        svc.start()
    except OSError as exc:
        sys.exit(f"vibe serve: cannot listen on {args.host}:{args.port}: "
                 f"{exc}")
    stop = threading.Event()

    def _signalled(_signum, _frame) -> None:
        stop.set()

    signal.signal(signal.SIGTERM, _signalled)
    signal.signal(signal.SIGINT, _signalled)
    print(f"vibe serve: listening on {svc.url} "
          f"({svc.workers} workers, cache in {svc.cache_dir})",
          flush=True)
    while not stop.is_set():
        stop.wait(0.5)
    mode = "quick-quiesce" if svc.quick_quiesce else "drain"
    print(f"vibe serve: shutting down ({mode})", flush=True)
    svc.stop()
    print("vibe serve: stopped", flush=True)


def _run_spec_params(args) -> dict:
    """Experiment-spec params for a run invocation's flags."""
    params = {"benchmark": args.benchmark, "provider": args.provider}
    if args.provider_spec:
        # the design travels inline, so it is part of the spec's key
        from .providers.custom import read_spec_file

        params["provider"] = read_spec_file(args.provider_spec)
    if args.fidelity is not None:
        # forwarded only when given: a default run keeps its exact
        # result metadata (fidelity never reaches params)
        params["fidelity"] = args.fidelity
    if args.sizes:
        params["sizes"] = _sizes(args)
    return params


def _submit_spec(args) -> dict:
    """The experiment spec a ``vibe submit <kind>`` invocation sends;
    ``vibe <kind>`` runs the same spec for the same flags, because each
    kind's params come from one function shared by both spellings."""
    kind = args.spec_kind if args.command == "submit" else args.command
    build = {"run": _run_spec_params, "cluster": _cluster_spec_params,
             "chaos": _chaos_spec_params}[kind]
    return {"kind": kind, "params": build(args), "seed": args.seed}


def _event_line(event: dict) -> str:
    kind = event["event"]
    if kind in ("queued", "queue"):
        return f"queue position {event['position']}"
    if kind == "plan":
        return (f"plan: {event['cells']} cells "
                f"({event['cached_cells']} cached)")
    if kind == "cell":
        src = "cache" if event.get("cache_hit") else "sim"
        label = ""
        if event.get("provider"):
            rate = event.get("rate")
            label = f" {event['provider']}@" + \
                (f"{rate:g}rps" if rate is not None else "closed")
        m = event.get("metrics") or {}
        stats = ""
        if m.get("goodput_rps") is not None:
            stats = (f" goodput={m['goodput_rps']:.0f}rps"
                     f" p99={m['p99_us']:.0f}us")
        return (f"cell {event['done']}/{event['total']}"
                f"{label} [{src}]{stats}")
    if kind == "done":
        return "done" + (" (cache hit)" if event.get("cache_hit") else "")
    if kind == "failed":
        return f"failed: {event.get('error')}"
    if kind == "cancelled":
        return f"cancelled ({event.get('where')})"
    return kind


def cmd_submit(args) -> None:
    from .serve.client import ServiceClient, ServiceError

    spec = _submit_spec(args)
    client = ServiceClient(args.server, client=args.client)
    try:
        job = client.submit(spec)
        job_id = job["id"]
        position = job.get("queue_position")
        print(f"submitted {job_id} ({job['label']}) state={job['state']}"
              + (f" position={position}" if position is not None else ""),
              flush=True)
        if args.follow:
            for event in client.follow(job_id):
                print(f"  {_event_line(event)}", flush=True)
            job = client.job(job_id)
        elif args.wait:
            job = client.wait(job_id, timeout=args.timeout)
        else:
            return
        if job["state"] != "done":
            sys.exit(f"job {job_id} {job['state']}: {job.get('error')}")
        body, hit = client.result(job_id)
    except ServiceError as exc:
        sys.exit(str(exc))
    marker = "cache hit" if hit else "computed"
    if args.json_out:
        with open(args.json_out, "w") as fh:
            fh.write(body)
        print(f"result written to {args.json_out} ({marker})")
    else:
        print(f"# result ({marker})")
        print(body)


def cmd_jobs(args) -> None:
    import json

    from .serve.client import ServiceClient, ServiceError

    client = ServiceClient(args.server)
    try:
        if args.job_id and args.cancel:
            out = client.cancel(args.job_id)
            print(f"{args.job_id}: cancelled={out['cancelled']} "
                  f"state={out['state']}")
        elif args.job_id:
            print(json.dumps(client.job(args.job_id), indent=2,
                             sort_keys=True))
        else:
            jobs = client.jobs()
            if not jobs:
                print("no jobs")
                return
            print(f"{'id':<12} {'state':<10} {'cells':<8} "
                  f"{'cache':<6} {'client':<12} label")
            for job in jobs:
                cells = f"{job['cells_done']}/{job['cells_total']}"
                cache = "hit" if job["cache_hit"] else "-"
                print(f"{job['id']:<12} {job['state']:<10} {cells:<8} "
                      f"{cache:<6} {job['client']:<12} {job['label']}")
    except ServiceError as exc:
        sys.exit(str(exc))


def _add_cluster_identity_flags(p: argparse.ArgumentParser) -> None:
    """The cluster flags that define *which* experiment runs.

    Shared by ``vibe cluster`` (direct) and ``vibe submit cluster``
    (via the service), so one sweep spelled either way carries the same
    identity — and therefore the same cell cache keys and result bytes.
    """
    p.add_argument("--provider", default="all",
                   help='comma-separated providers, or "all" '
                        "(default: all four)")
    p.add_argument("--topology", default="star",
                   choices=["star", "dumbbell", "fattree"])
    p.add_argument("--nodes", type=int, default=4,
                   help="total nodes; the first --servers of them "
                        "run servers (default 4)")
    p.add_argument("--servers", type=int, default=1)
    p.add_argument("--clients", type=int, default=8,
                   help="client processes, round-robin over the "
                        "non-server nodes (default 8)")
    p.add_argument("--rate", metavar="RPS[,RPS...]",
                   help="offered-load grid in requests/s "
                        "(default: geometric 2k..64k)")
    p.add_argument("--requests", type=int, default=16,
                   help="requests per client per point (default 16)")
    p.add_argument("--req-size", type=int, default=128)
    p.add_argument("--resp-size", type=int, default=1024)
    p.add_argument("--window", type=int, default=4,
                   help="per-client outstanding-request bound")
    p.add_argument("--arrival", default="poisson",
                   choices=["poisson", "uniform", "burst"])
    p.add_argument("--service", default="fixed:20", metavar="SPEC",
                   help="server service-time model: fixed:T, exp:M, "
                        "bytes:C or none (default fixed:20)")
    p.add_argument("--mode", default="open",
                   choices=["open", "closed"])
    p.add_argument("--think-us", type=float, default=0.0,
                   help="closed-loop think time between requests")
    p.add_argument("--retry", default="off", metavar="SPEC",
                   help='client retry policy: "off", "on", or '
                        '"budget=3,base=200,cap=5000,jitter=0.5,'
                        'timeout=50000" (us; default off)')
    p.add_argument("--server-policy", default="none", metavar="SPEC",
                   help='server admission control: "none" or '
                        '"depth=64,shed=tail|deadline,conns=16" '
                        "(default none)")
    p.add_argument("--tenants", type=int, default=1,
                   help="tenant groups (client i belongs to tenant "
                        "i %% N); each gets its own latency "
                        "histogram and SLO verdict (default 1)")
    p.add_argument("--slo-p99-us", type=float, default=10_000.0,
                   help="per-tenant SLO: p99 latency target in us "
                        "(<=0 disables; default 10000)")
    p.add_argument("--slo-goodput", type=float, default=0.9,
                   help="per-tenant SLO: goodput floor as a fraction "
                        "of the realized offered rate (default 0.9)")
    p.add_argument("--deadline-us", type=float, default=None,
                   help="run deadline per point in simulated us "
                        "(default 30s)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--fidelity", default="packet",
                   choices=["packet", "auto", "flow"],
                   help="auto/flow fast-forwards uncontended "
                        "steady-state transfers")
    p.add_argument("--check", action="store_true",
                   help="run every point under the online "
                        "conformance checker")
    p.add_argument("--quick", action="store_true",
                   help="3-point rate grid (CI-sized)")


def _cluster_spec_params(args) -> dict:
    """Experiment-spec params for a cluster invocation's identity flags."""
    params = {
        "topology": args.topology, "nodes": args.nodes,
        "servers": args.servers, "clients": args.clients,
        "requests": args.requests, "req_size": args.req_size,
        "resp_size": args.resp_size, "window": args.window,
        "arrival": args.arrival, "service": args.service,
        "mode": args.mode, "think_us": args.think_us,
        "fidelity": args.fidelity, "retry": args.retry,
        "server_policy": args.server_policy, "tenants": args.tenants,
        "slo_p99_us": args.slo_p99_us, "slo_goodput": args.slo_goodput,
        "check": bool(args.check), "providers": args.provider,
        "quick": args.quick,
    }
    if args.deadline_us is not None:
        params["deadline_us"] = args.deadline_us
    if args.rate:  # the spec prefers explicit rates to --quick
        params["rates"] = args.rate.split(",")
    return params


def _add_submit_common(p: argparse.ArgumentParser) -> None:
    from .serve.service import DEFAULT_PORT

    p.add_argument("--server",
                   default=f"http://127.0.0.1:{DEFAULT_PORT}",
                   help="service base URL (default %(default)s)")
    p.add_argument("--client", default="",
                   help="client name for queue fairness "
                        "(default: your IP as the service sees it)")
    p.add_argument("--wait", action="store_true",
                   help="poll until the job finishes, then print or "
                        "write its result")
    p.add_argument("--follow", action="store_true",
                   help="stream the job's live events (SSE), then "
                        "fetch the result")
    p.add_argument("--timeout", type=float, default=600.0,
                   help="--wait timeout in seconds (default 600)")
    p.add_argument("--json-out", metavar="FILE.json",
                   help="write the result payload to FILE (the bytes "
                        "match the direct CLI's --json-out exactly)")


_RUN_FIDELITY_HELP = (
    "simulation fidelity.  Unset: benchmarks on the ping-pong/stream "
    "harness run at flow (every message planned arithmetically, exact "
    "on their one-way-at-a-time traffic), the rest at packet.  "
    "packet = step every packet; auto = plan multi-fragment messages; "
    "flow = plan every message (harness benchmarks only)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="vibe",
        description="VIBe micro-benchmark suite over simulated VIA providers",
    )
    parser.add_argument("--providers", default=",".join(DEFAULT_PROVIDERS),
                        type=lambda s: s.split(","),
                        help="comma-separated provider list")
    parser.add_argument("--jobs", "-j", type=int, default=1,
                        help="worker processes for independent simulations "
                             "(default 1 = serial; -1 = all cores); results "
                             "are identical for any value")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("table1", help="Table 1: non-data-transfer costs")

    fig = sub.add_parser("figure", help="regenerate a paper figure")
    fig.add_argument("number", type=int)
    fig.add_argument("--sizes", help="comma-separated message sizes")
    fig.add_argument("--plot", action="store_true",
                     help="ASCII plot instead of a table")

    run = sub.add_parser("run", help="run one suite benchmark")
    run.add_argument("benchmark", choices=sorted(SUITE))
    run.add_argument("--provider", default="clan")
    run.add_argument("--provider-spec", metavar="JSON",
                     help="run against a user-defined provider spec file")
    run.add_argument("--fidelity", choices=["packet", "auto", "flow"],
                     help=_RUN_FIDELITY_HELP)
    run.add_argument("--json-out", metavar="FILE.json",
                     help="also write the results as canonical JSON "
                          "(the bytes a served `submit run` returns)")
    run.set_defaults(sizes=None, seed=0)  # run-spec fields without a flag

    sub.add_parser("list", help="list benchmark names")

    bd = sub.add_parser("breakdown",
                        help="per-component latency breakdown (paper §3)")
    bd.add_argument("--provider", default="clan")
    bd.add_argument("--size", type=int, default=1024)
    bd.add_argument("--compare", action="store_true",
                    help="all providers side by side")

    tr = sub.add_parser("trace", help="dump one message's event timeline")
    tr.add_argument("--provider", default="clan")
    tr.add_argument("--size", type=int, default=64)
    tr.add_argument("--trace-out", metavar="FILE.json",
                    help="also export the timeline as a Chrome trace")

    prof = sub.add_parser(
        "profile",
        help="profile one canonical ping-pong per provider (spans, "
             "metrics, Perfetto trace)")
    prof.add_argument("--size", type=int, default=256)
    prof.add_argument("--seed", type=int, default=0)
    prof.add_argument("--loss-rate", type=float, default=0.0,
                      help="inject wire loss; implies reliable_delivery "
                           "unless --reliability is given")
    prof.add_argument("--reliability",
                      choices=["unreliable", "reliable_delivery",
                               "reliable_reception"],
                      help="reliability level of the profiled VIs")
    prof.add_argument("--fidelity", default="packet",
                      choices=["packet", "auto", "flow"],
                      help="auto/flow fast-forwards clean bursts and "
                           "reports the skipped fraction and why plans "
                           "declined (disables the per-event trace)")
    prof.add_argument("--trace-out", metavar="FILE.json",
                      help="write a Perfetto-loadable Chrome trace")
    prof.add_argument("--metrics-out", metavar="FILE.json",
                      help="write the metrics registry snapshot as JSON")

    chk = sub.add_parser(
        "check",
        help="conformance: spec invariants online, differential "
             "cross-provider comparison, LogGP self-consistency")
    chk.add_argument("--seed", type=int, default=0)
    chk.add_argument("--no-logp", action="store_true",
                     help="skip the LogGP self-consistency fit")

    chaos = sub.add_parser(
        "chaos",
        help="fault-injection campaign: named fault scenarios on every "
             "provider under the online conformance checker")
    chaos.add_argument("--quick", action="store_true",
                       help="reduced message counts and deadlines "
                            "(CI-sized; same scenario list)")
    chaos.add_argument("--seed", type=int, default=0)
    chaos.add_argument("--scenario", action="append", metavar="NAME",
                       help="run only these scenarios (repeatable, "
                            "comma-separable); default: all of them")
    chaos.add_argument("--json-out", metavar="FILE.json",
                       help="also write the report as JSON (not with "
                            "--rewind, which has no JSON report)")
    chaos.add_argument("--rewind", action="store_true",
                       help="rebuild each cell, step it to just before "
                            "its first fault arms, and finish only the "
                            "fault window under a tracer")

    clus = sub.add_parser(
        "cluster",
        help="N-node serving cluster: capacity sweep across offered "
             "loads, per-provider saturation knee")
    _add_cluster_identity_flags(clus)
    clus.add_argument("--json-out", metavar="FILE.json",
                      help="also write the report as JSON")
    clus.add_argument("--checkpoint-dir", metavar="DIR",
                      help="persist each finished cell to DIR; re-running "
                           "with the same DIR skips completed cells, so "
                           "an interrupted campaign resumes where it "
                           "stopped")

    save = sub.add_parser("save",
                          help="store results in a repository (paper §5)")
    save.add_argument("--repo", required=True)
    save.add_argument("--platform", required=True)
    save.add_argument("--provider", default="clan")
    save.add_argument("benchmarks", nargs="*", metavar="benchmark")

    rep = sub.add_parser("report",
                         help="regenerate the whole paper into a directory")
    rep.add_argument("--out", default="report")
    rep.add_argument("--quick", action="store_true",
                     help="reduced sweeps (seconds instead of a minute)")

    cmp_ = sub.add_parser("compare", help="compare stored platform results")
    cmp_.add_argument("--repo", required=True)
    cmp_.add_argument("benchmark")
    cmp_.add_argument("metric")
    cmp_.add_argument("--platforms", type=lambda s: s.split(","),
                      default=None)

    from .serve.service import DEFAULT_PORT

    srv = sub.add_parser(
        "serve",
        help="run the experiment service: job queue, worker pool, "
             "content-addressed result cache, live SSE streams")
    srv.add_argument("--host", default="127.0.0.1")
    srv.add_argument("--port", type=int, default=DEFAULT_PORT,
                     help="listen port (0 = pick a free one; "
                          "default %(default)s)")
    srv.add_argument("--workers", type=int, default=0,
                     help="simulation worker processes "
                          "(default: all cores)")
    srv.add_argument("--cache-dir", default=".vibe-cache", metavar="DIR",
                     help="result + cell cache directory "
                          "(default %(default)s); interchangeable with "
                          "`vibe cluster --checkpoint-dir`")
    srv.add_argument("--queue-capacity", type=int, default=64,
                     help="max queued jobs before submissions get 429 "
                          "(default 64)")
    srv.add_argument("--quick-quiesce", action="store_true",
                     help="on shutdown, cancel queued jobs instead of "
                          "draining them (running cells still finish "
                          "and persist)")

    sm = sub.add_parser(
        "submit",
        help="submit an experiment to a running `vibe serve` instance")
    smsub = sm.add_subparsers(dest="spec_kind", required=True)
    smr = smsub.add_parser("run", help="one suite benchmark")
    smr.add_argument("benchmark", choices=sorted(SUITE))
    smr.add_argument("--provider", default="clan")
    smr.add_argument("--fidelity", choices=["packet", "auto", "flow"],
                     help=_RUN_FIDELITY_HELP)
    smr.add_argument("--sizes", help="comma-separated message sizes")
    smr.add_argument("--seed", type=int, default=0)
    smr.set_defaults(provider_spec=None)
    _add_submit_common(smr)
    smc = smsub.add_parser("cluster", help="a cluster capacity sweep")
    _add_cluster_identity_flags(smc)
    _add_submit_common(smc)
    smx = smsub.add_parser("chaos", help="a fault-injection campaign")
    smx.add_argument("--provider", default="all",
                     help='comma-separated providers, or "all"')
    smx.add_argument("--scenario", action="append", metavar="NAME",
                     help="run only these scenarios (repeatable, "
                          "comma-separable)")
    smx.add_argument("--quick", action="store_true")
    smx.add_argument("--seed", type=int, default=0)
    _add_submit_common(smx)

    jb = sub.add_parser(
        "jobs", help="list, inspect, or cancel service jobs")
    jb.add_argument("job_id", nargs="?",
                    help="job id to inspect (omit to list all)")
    jb.add_argument("--cancel", action="store_true",
                    help="cancel the given job")
    jb.add_argument("--server",
                    default=f"http://127.0.0.1:{DEFAULT_PORT}",
                    help="service base URL (default %(default)s)")
    return parser


def _check_inputs(args) -> None:
    """Exit with one ``vibe <cmd>: ...`` line on an unknown provider or
    a message or buffer size a provider cannot use, before anything is
    simulated (``run``, ``cluster`` and ``submit`` check their spec
    instead)."""
    from .providers.registry import ALL_PROVIDERS, PROVIDERS

    if args.command in ("table1", "figure", "profile", "check", "chaos",
                        "report") or getattr(args, "compare", False):
        names = args.providers          # the global --providers list
    elif args.command in ("trace", "breakdown", "save"):
        names = [args.provider]
    else:
        return
    for name in names:
        if name not in PROVIDERS:
            sys.exit(f"vibe {args.command}: unknown provider {name!r}; "
                     f"known: {', '.join(ALL_PROVIDERS)}")
        limit = PROVIDERS[name].costs.max_transfer_size
        if hasattr(args, "size") and not 0 <= args.size <= limit:
            # trace, breakdown and profile send --size bytes per message
            sys.exit(f"vibe {args.command}: --size {args.size} is "
                     f"outside {name}'s message sizes 0..{limit}")
    if args.command == "figure":
        _check_figure_sizes(args)


def _check_figure_sizes(args) -> None:
    """Figures 1-2 register a buffer of each ``--sizes`` size; figures 3,
    4 and 7 send messages of each size on every provider and figure 5 on
    bvia alone; figure 6 takes no sizes."""
    from .providers.registry import PROVIDERS

    n = args.number
    senders = {3: args.providers, 4: args.providers, 5: ("bvia",),
               7: args.providers}.get(n, ())
    for size in _sizes(args) or ():
        if n in (1, 2) and size < 1:
            sys.exit(f"vibe figure: --sizes {size} is not a buffer size; "
                     f"figure {n} registers 1 byte or more")
        for name in senders:
            limit = PROVIDERS[name].costs.max_transfer_size
            if not 0 <= size <= limit:
                sys.exit(f"vibe figure: --sizes {size} is outside "
                         f"{name}'s message sizes 0..{limit}")


def main(argv: list[str] | None = None) -> None:
    args = build_parser().parse_args(argv)
    _check_inputs(args)
    {
        "table1": cmd_table1,
        "figure": cmd_figure,
        "run": cmd_experiment,
        "list": cmd_list,
        "breakdown": cmd_breakdown,
        "trace": cmd_trace,
        "profile": cmd_profile,
        "check": cmd_check,
        "chaos": cmd_chaos,
        "cluster": cmd_experiment,
        "save": cmd_save,
        "report": cmd_report,
        "compare": cmd_compare,
        "serve": cmd_serve,
        "submit": cmd_submit,
        "jobs": cmd_jobs,
    }[args.command](args)


if __name__ == "__main__":  # pragma: no cover
    main()
