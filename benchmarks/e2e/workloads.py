"""The four end-to-end workloads and their output checks.

Each workload builds its inputs from ``seed`` and ``scale`` in
:meth:`setup` (which also warms imports and lazy state), times a window
of work in :meth:`measure`, and checks outputs in :meth:`verify`.  The
three simulation workloads repeat one fixed *round* of calls until the
window closes and report per-call medians, so one noisy-neighbour burst
moves one sample, not the result.  The service workload is a closed
loop that runs for the whole window and reports each kind of job at its
median latency, for the same reason.  Every call or job is timed in
units of :func:`reference_kernel`, run just before it, so the host's own
changes of speed cancel; host seconds are reported beside them.

Only public functions are called: ``repro.vibe.run_benchmark``,
``repro.providers.Testbed`` + ``repro.obs.harvest_testbed``,
``repro.cluster.run_cluster_once`` and ``repro.serve``'s
``ExperimentService``/``ServiceClient``/``execute_spec``.
"""

from __future__ import annotations

import dataclasses
import hashlib
import heapq
import itertools
import json
import pathlib
import random
import shutil
import statistics
import tempfile
import time
from collections import Counter

from tracing import NO_SPANS

#: every round-based window runs at least this many rounds; two keep a
#: ``paper_suite`` run (7-11 s a round) within about 25 s
MIN_ROUNDS = 2


def canonical(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), default=str)


def sha256(obj) -> str:
    data = obj if isinstance(obj, str) else canonical(obj)
    return hashlib.sha256(data.encode()).hexdigest()


def derive_seed(*key) -> int:
    """A stable 31-bit seed from a key (independent of hash salting)."""
    digest = hashlib.sha256(repr(key).encode()).digest()
    return int.from_bytes(digest[:4], "big") & 0x7FFFFFFF


def percentile(values, q: float) -> float:
    """Linear-interpolated percentile, ``q`` in [0, 100]."""
    xs = sorted(values)
    if not xs:
        return 0.0
    pos = (len(xs) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def scaled(n: int, scale: float, floor: int = 1) -> int:
    return max(floor, round(n * scale))


#: host seconds one :func:`reference_kernel` call takes at the speed the
#: normalised rates are quoted at (about this 2-core host's median speed)
REF_NOMINAL_S = 0.004


def reference_kernel() -> float:
    """Run a fixed pure-Python loop; returns the host seconds it took.

    The host the benchmark was sized on changes speed by itself: a fixed
    loop varies by up to 1.8x from one second to the next, in CPU time as
    much as in wall time, and whole minutes run a third slower.  Every
    timed call is preceded by this kernel and reported in its units, so
    the drift cancels: over two sets of 10 runs per workload, host-time
    throughput spread by up to 0.20 (quartile distance over median) and
    its median moved by up to 31% between the sets, against 0.05 and
    4% in kernel units.  The kernel mixes a heap of random keys with an
    integer loop; in trials, each alone tracked either ``paper_suite`` or
    ``bulk_stream`` about half as well.
    """
    t0 = time.perf_counter()
    heap: list = []
    rng = random.Random(1)
    for i in range(2000):
        heapq.heappush(heap, (rng.random(), i))
        if len(heap) > 64:
            heapq.heappop(heap)
    acc = 0
    for i in range(30_000):
        acc += i & 7
    return time.perf_counter() - t0


@dataclasses.dataclass
class Phase:
    """What one timed window measured."""

    #: ops per second at the reference speed: ops over the summed median
    #: ratio of each call's time to the reference kernel's just before it
    ops_per_s: float
    #: ops per host second, from the same calls' median times
    wall_ops_per_s: float
    calls: list             # call latencies (s) the call percentiles use
    attempted: int          # ops: cells, messages, requests or jobs
    errors: list            # any entry fails every op of the workload
    digest: str
    rounds: int
    wall_s: float
    #: workload-specific figures: name -> (value, unit, samples)
    extras: dict = dataclasses.field(default_factory=dict)
    #: per-layer counters (for rounds: from the first, deterministic one)
    counts: dict = dataclasses.field(default_factory=dict)
    #: what :meth:`verify` checks after the window closes
    outputs: object = None


#: per-layer counters every workload reports; 0 where the workload does
#: not exercise that layer in the benchmark process
COUNT_NAMES = (
    "sim.events", "sim.events_per_s", "sim.events_per_op", "sim.ff_frac",
    "sim.ff_bursts", "sim.ff_events_skipped", "hw.wire_packets",
    "hw.port_contended", "hw.port_drops", "hw.tlb_hit_rate",
    "hw.dma_transfers", "via.messages", "via.retransmissions",
    "via.cq_notifications", "cluster.goodput_ratio", "cluster.retried",
    "cluster.shed", "cluster.deadline_exceeded", "serve.jobs",
    "serve.cells_executed", "serve.hit_ratio",
)


# -- harvest folding ---------------------------------------------------


#: (prefix, suffix, total): a harvested counter whose name starts and
#: ends so is summed into that per-layer total
_FOLD = (
    ("sim.events_run", "", "sim.events"),
    ("sim.now_us", "", "sim.now_us"),
    ("sim.ff_time_us", "", "sim.ff_time_us"),
    ("sim.ff_bursts", "", "sim.ff_bursts"),
    ("sim.ff_events_skipped", "", "sim.ff_events_skipped"),
    ("wire.", ".packets", "hw.wire_packets"),
    ("wire.", ".port.contended", "hw.port_contended"),
    ("wire.", ".port.drops", "hw.port_drops"),
    ("nic.", ".tlb.hits", "tlb.hits"),
    ("nic.", ".tlb.misses", "tlb.misses"),
    ("nic.", ".dma.transfers", "hw.dma_transfers"),
    ("via.", ".messages_sent", "via.messages"),
    ("via.", ".retransmissions", "via.retransmissions"),
    ("via.", ".cq.notifications", "via.cq_notifications"),
)


def fold_harvest(snapshot: dict, totals: Counter) -> None:
    """Sum a ``harvest_testbed`` snapshot into per-layer totals."""
    for name, metric in snapshot.items():
        for prefix, suffix, total in _FOLD:
            if name.startswith(prefix) and name.endswith(suffix):
                totals[total] += metric["value"]
                break


# -- round-based workloads ---------------------------------------------


class RoundWorkload:
    """A fixed round of calls, repeated until the window closes.

    Subclasses fill ``self.calls`` with ``(key, fn)`` in the order the
    seed chose; ``fn(spans)`` returns ``(output, ops, snapshot)`` where
    ``output`` is the call's canonical result and ``snapshot`` an
    optional harvest for the per-layer counts.
    """

    name = ""
    #: what one op is, and what ops_per_s means on this workload
    unit = "op"
    headline = ""
    span_name = "call"
    #: whether the outputs (and so the pinned digest) depend on the seed
    seeded = False

    def __init__(self, seed: int, scale: float, out_dir: pathlib.Path):
        self.seed = seed
        self.scale = scale
        self.out_dir = out_dir
        self.calls: list = []

    def setup(self) -> None:
        raise NotImplementedError

    def close(self) -> None:
        pass

    def extras(self, medians: dict, outputs: dict) -> dict:
        return {}

    def layer_counts(self, outputs: dict) -> dict:
        return {}

    def verify(self, phase: Phase) -> list:
        """Output checks run after the window; returns error strings."""
        return []

    def measure(self, seconds: float, spans=NO_SPANS) -> Phase:
        times = {key: [] for key, _ in self.calls}
        costs = {key: [] for key, _ in self.calls}   # in reference units
        outputs: dict = {}
        first: dict = {}
        errors: list = []
        totals: Counter = Counter()
        attempted = ops_round = rounds = 0
        start = time.perf_counter()
        while True:
            for key, fn in self.calls:
                ref = reference_kernel()
                t0 = time.perf_counter()
                try:
                    with spans.span(self.span_name, op=f"{key}#{rounds}"):
                        output, ops, snapshot = fn(spans)
                except Exception as exc:  # noqa: BLE001 - report, keep going
                    errors.append(f"{key}: {type(exc).__name__}: {exc}")
                    output, ops, snapshot = None, 1, None
                dt = time.perf_counter() - t0
                times[key].append(dt)
                costs[key].append(dt / ref)
                attempted += ops
                digest = sha256(output)
                if rounds == 0:
                    first[key] = digest
                    outputs[key] = output
                    ops_round += ops
                    if snapshot is not None:
                        fold_harvest(snapshot, totals)
                elif digest != first[key]:
                    errors.append(f"{key}: round {rounds} output differs "
                                  "from round 0")
            rounds += 1
            elapsed = time.perf_counter() - start
            # stop when another round of the mean length would overrun
            if rounds >= MIN_ROUNDS and elapsed * (rounds + 1) / rounds > seconds:
                break
        wall = time.perf_counter() - start
        medians = {key: statistics.median(ts) for key, ts in times.items()}
        round_s = sum(medians.values())
        round_ref = sum(statistics.median(c) for c in costs.values())
        counts = self._counts(totals, ops_round, round_s)
        counts.update(self.layer_counts(outputs))
        return Phase(
            ops_per_s=ops_round / (round_ref * REF_NOMINAL_S),
            wall_ops_per_s=ops_round / round_s,
            calls=list(medians.values()), attempted=attempted, errors=errors,
            digest=sha256({key: outputs[key] for key in sorted(outputs)}),
            rounds=rounds, wall_s=wall,
            extras=self.extras(medians, outputs), counts=counts,
            outputs=outputs,
        )

    def _counts(self, totals: Counter, ops: int, round_s: float) -> dict:
        lookups = totals["tlb.hits"] + totals["tlb.misses"]
        counts = {
            name: totals[name] for name in (
                "sim.events", "sim.ff_bursts", "sim.ff_events_skipped",
                "hw.wire_packets", "hw.port_contended", "hw.port_drops",
                "hw.dma_transfers", "via.messages", "via.retransmissions",
                "via.cq_notifications")
        }
        counts["sim.events_per_s"] = totals["sim.events"] / round_s
        counts["sim.events_per_op"] = totals["sim.events"] / ops if ops else 0.0
        counts["sim.ff_frac"] = (totals["sim.ff_time_us"] / totals["sim.now_us"]
                                 if totals["sim.now_us"] else 0.0)
        counts["hw.tlb_hit_rate"] = totals["tlb.hits"] / lookups if lookups else 0.0
        return counts


# -- paper_suite -------------------------------------------------------

PAPER_PROVIDERS = ("mvia", "bvia", "clan")
_TWO = [4, 4096]
#: the seven benchmarks under ``results/reference`` run at the sweeps the
#: reference was recorded with (cq_overhead's is [4, 1024]); every other
#: benchmark runs two points of its default sweep, so one pass of all
#: 108 cells fits the window three times
PAPER_SWEEPS = {
    "cq_overhead": {"sizes": [4, 1024]},
    "base_latency_blocking": {"sizes": _TWO},
    "base_bandwidth_blocking": {"sizes": _TWO},
    "reuse_latency": {"sizes": [4096], "reuse_levels": (1.0, 0.0)},
    "reuse_bandwidth": {"sizes": [4096], "reuse_levels": (1.0, 0.0)},
    "cq_latency": {"sizes": _TWO},
    "cq_bandwidth": {"sizes": _TWO},
    "multivi_bandwidth": {"vi_counts": (1, 8)},
    "segments_latency": {"segment_counts": (1, 8)},
    "segments_bandwidth": {"segment_counts": (1, 8)},
    "rdma_write_latency": {"sizes": _TWO},
    "rdma_read_latency": {"sizes": _TWO},
    "pipeline_bandwidth": {"windows": (1, 16)},
    "mtu_latency": {"mtus": (1500, 9000)},
    "mtu_bandwidth": {"mtus": (1500, 9000)},
    "multiclient_throughput": {"client_counts": (1, 4)},
    "msg_layer_latency": {"sizes": _TWO},
    "msg_layer_bandwidth": {"sizes": _TWO},
    "eager_threshold": {"thresholds": (1024, 16384)},
    "getput_latency": {"sizes": _TWO},
    "collective_latency": {"group_sizes": (2, 8)},
    "tail_latency": {"loads": (0.3, 0.9)},
    "stream_throughput": {"chunks": (512, 16384)},
    "concurrent_streams": {"stream_counts": (1, 4)},
}


def result_outputs(result) -> list:
    """Canonical simulated output of one ``run_benchmark`` call.

    ``meta`` is left out (it names the package version, not a simulated
    statistic).  ``connection_churn`` returns a bare ``Measurement``,
    which ``results_to_json`` cannot serialise, so it is hashed through
    ``dataclasses.asdict``.
    """
    from repro.vibe import BenchResult, result_to_dict

    out = []
    for r in result if isinstance(result, list) else [result]:
        if isinstance(r, BenchResult):
            d = result_to_dict(r)
            d.pop("meta")
        else:
            d = dataclasses.asdict(r)
        out.append(json.loads(canonical(d)))
    return out


class PaperSuite(RoundWorkload):
    name = "paper_suite"
    unit = "cell"
    headline = "suite_cells_per_s"
    span_name = "run_benchmark"

    def setup(self) -> None:
        from repro.vibe import SUITE, run_benchmark

        # the paper's cells in suite order, whatever the seed: the peak
        # RSS of a pass depends on the order cells run in (by up to 8%)
        cells = [(b, p) for b in SUITE for p in PAPER_PROVIDERS]
        cells = cells[:scaled(len(cells), self.scale)]
        self.calls = [(f"{b}/{p}", self._cell(run_benchmark, b, p))
                      for b, p in cells]
        run_benchmark("nondata", "mvia")   # warm lazy imports

    @staticmethod
    def _cell(run_benchmark, bench: str, provider: str):
        kwargs = PAPER_SWEEPS.get(bench, {})

        def call(spans):
            return (result_outputs(run_benchmark(bench, provider, **kwargs)),
                    1, None)
        return call

    def extras(self, medians: dict, outputs: dict) -> dict:
        per_bench = Counter()
        for key, t in medians.items():
            per_bench[key.split("/")[0]] += t
        cells = list(medians.values())
        out = {
            "suite_s": (sum(cells), "s", len(cells)),
            "vibe.cell_s.max": (max(cells), "s", len(cells)),
        }
        for bench in sorted(per_bench):
            out[f"vibe.bench_s.{bench}"] = (per_bench[bench], "s",
                                            len(PAPER_PROVIDERS))
        return out

    def verify(self, phase: Phase) -> list:
        """Exact match against the stored reference results."""
        root = pathlib.Path(__file__).resolve().parents[2] / "results" / "reference"
        errors = []
        checked = 0
        for key, output in sorted(phase.outputs.items()):
            bench, provider = key.split("/")
            path = root / f"{provider}-sim" / f"{bench}.json"
            if output is None or not path.exists():
                continue
            checked += 1
            ref = json.loads(path.read_text())
            if output[0]["points"] != ref["points"]:
                errors.append(f"{key}: points differ from {path.name} "
                              f"in results/reference/{provider}-sim")
        phase.extras["reference_cells_exact"] = (checked - len(errors),
                                                 "count", checked)
        return errors


# -- bulk_stream -------------------------------------------------------

#: clan fragments each 64 KiB message into 64 packets of its 1 KiB MTU;
#: mvia and iba keep their fabric's default MTU
STREAM_PROVIDERS = (("clan", 1024), ("mvia", None), ("iba", None))
STREAM_MSG = 65_536
STREAM_MESSAGES = 300
STREAMS_PER_PROVIDER = 4


def run_stream(provider: str, mtu, n: int, spans=NO_SPANS):
    """One streaming pair at ``fidelity="auto"``; returns the finished
    testbed and every send/recv descriptor's (status, completed_at)."""
    from repro.providers import Testbed
    from repro.via import Descriptor

    with spans.span("Testbed"):
        tb = Testbed(provider, mtu=mtu, fidelity="auto")
    sends: list = []
    recvs: list = []

    def client():
        h = tb.open("node0", "c")
        vi = yield from h.create_vi()
        region = h.alloc(STREAM_MSG)
        mh = yield from h.register_mem(region)
        yield from h.connect(vi, "node1", 5)
        segs = [h.segment(region, mh, 0, STREAM_MSG)]
        for _ in range(n):
            yield from h.post_send(vi, Descriptor.send(segs))
            desc = yield from h.send_wait(vi)
            sends.append((desc.status.value, desc.completed_at))

    def server():
        h = tb.open("node1", "s")
        vi = yield from h.create_vi()
        region = h.alloc(STREAM_MSG)
        mh = yield from h.register_mem(region)
        segs = [h.segment(region, mh, 0, STREAM_MSG)]
        for _ in range(n):
            yield from h.post_recv(vi, Descriptor.recv(segs))
        req = yield from h.connect_wait(5)
        yield from h.accept(req, vi)
        for _ in range(n):
            desc = yield from h.recv_wait(vi)
            recvs.append((desc.status.value, desc.completed_at))

    with spans.span("tb.run"):
        cp = tb.spawn(client())
        sp = tb.spawn(server())
        tb.run(cp)
        tb.run(sp)
    return tb, sends, recvs


class BulkStream(RoundWorkload):
    name = "bulk_stream"
    unit = "msg"
    headline = "stream_msgs_per_s"
    span_name = "stream"

    def setup(self) -> None:
        from repro.obs import harvest_testbed

        self.harvest = harvest_testbed
        self.messages = scaled(STREAM_MESSAGES, self.scale, floor=2)
        streams = [(p, mtu, j) for p, mtu in STREAM_PROVIDERS
                   for j in range(scaled(STREAMS_PER_PROVIDER, self.scale))]
        random.Random(f"stream:{self.seed}").shuffle(streams)
        self.calls = [(f"{p}#{j}", self._stream(p, mtu))
                      for p, mtu, j in streams]
        for p, mtu in STREAM_PROVIDERS:   # warm every provider's code path
            run_stream(p, mtu, 2)

    def _stream(self, provider: str, mtu):
        n = self.messages

        def call(spans):
            tb, sends, recvs = run_stream(provider, mtu, n, spans)
            with spans.span("harvest_testbed"):
                snapshot = self.harvest(tb).snapshot()
            statuses = {s for s, _ in sends + recvs}
            if len(sends) != n or len(recvs) != n or statuses != {"success"}:
                raise RuntimeError(f"{len(sends)}/{len(recvs)} of {n} "
                                   f"messages completed, statuses {statuses}")
            # sim.* are host-side kernel counts an optimisation may change
            model = {k: v for k, v in snapshot.items()
                     if not k.startswith("sim.")}
            output = {"send_us": [t for _, t in sends],
                      "recv_us": [t for _, t in recvs], "harvest": model}
            return output, n, snapshot
        return call


# -- cluster_sweep -----------------------------------------------------

CLUSTER_PROVIDERS = ("mvia", "bvia", "clan", "iba")
#: 8-node star, 16 open-loop Poisson clients over 2 tenants, retries on
#: and deadline shedding behind a 16-deep admission queue
CLUSTER_CONFIG = dict(topology="star", nodes=8, clients=16, requests=12,
                      tenants=2, service="fixed:50", retry="on",
                      server_policy="depth=16,shed=deadline")


class ClusterSweep(RoundWorkload):
    """Every rate x provider cell, in the order the seed chose.

    Each cell's arrival schedule comes from a fixed per-cell seed, not
    from ``--seed``: retries and shedding past a knee make the simulated
    work itself vary by 5-10% between schedules, which would swamp a
    host-time comparison across runs with different seeds.
    """

    name = "cluster_sweep"
    unit = "req"
    headline = "cluster_reqs_per_s"
    span_name = "cell"

    def setup(self) -> None:
        from repro.cluster import RATE_GRID, ClusterConfig, run_cluster_once
        from repro.obs import MetricsRegistry

        self.registry = MetricsRegistry
        base = ClusterConfig(**dict(
            CLUSTER_CONFIG,
            requests=scaled(CLUSTER_CONFIG["requests"], self.scale)))
        cells = [(p, r) for p in CLUSTER_PROVIDERS for r in RATE_GRID]
        random.Random(f"cluster:{self.seed}").shuffle(cells)
        self.calls = [
            (f"{p}@{r:g}", self._cell(run_cluster_once, p, dataclasses.replace(
                base, seed=derive_seed("cluster", p, r)), r))
            for p, r in cells]
        run_cluster_once("mvia", dataclasses.replace(base, requests=1), 2000.0)

    def _cell(self, run_cluster_once, provider: str, cfg, rate: float):
        ops = cfg.clients * cfg.requests

        def call(spans):
            registry = self.registry()
            with spans.span("run_cluster_once"):
                point = run_cluster_once(provider, cfg, rate, harvest=registry)
            point = json.loads(canonical(point))
            return point, ops, registry.snapshot()
        return call

    def layer_counts(self, outputs: dict) -> dict:
        points = [p for p in outputs.values() if p is not None]
        expected = sum(t["expected"] for p in points for t in p["tenants"])
        return {
            "cluster.goodput_ratio": (sum(p["completed"] for p in points)
                                      / expected if expected else 0.0),
            "cluster.retried": sum(p["retried"] for p in points),
            "cluster.shed": sum(p["shed_queue"] + p["shed_deadline"]
                                for p in points),
            "cluster.deadline_exceeded": sum(p["deadline_exceeded"]
                                             for p in points),
        }

    def verify(self, phase: Phase) -> list:
        return [f"{key}: violations {p['violations']}"
                for key, p in sorted(phase.outputs.items())
                if p is not None and p["violations"]]


# -- serve_mixed -------------------------------------------------------

SERVE_WORKERS = 2
#: the schedule comes in blocks of 20 submissions in seeded order: 4
#: fresh run specs, 1 fresh 2-rate cluster spec (one cell per pool
#: worker), and 15 resubmits of earlier specs, answered from the result
#: cache.  Fixing the mix per block rather than drawing it per submission
#: keeps the count of expensive cluster specs in a window from swinging
#: the throughput between runs.
SERVE_BLOCK = ("run",) * 4 + ("cluster",) + ("resubmit",) * 15
CHECK_ONE_IN = 20
#: fresh specs whose result bodies the pinned digest covers
DIGEST_FRESH = 3
SERVE_BENCHMARKS = ("base_latency", "cq_latency", "rdma_write_latency",
                    "base_latency_blocking")
SERVE_PROVIDERS = ("mvia", "bvia", "clan", "iba")


@dataclasses.dataclass
class JobRecord:
    hit: bool
    latency_s: float
    submit_s: float
    fetch_s: float
    events: dict      # SSE event -> last arrival, seconds after submit returned


class ServeMixed:
    """One closed-loop client against an in-process service.

    Closed loop because ``vibe submit --wait`` callers wait for their
    reply.  One client, not several: with two, the timing-dependent
    overlap of one client's misses with the other's jobs moved every
    serve metric by 8-11% between runs, against 1-2.5% for one client.
    """

    name = "serve_mixed"
    unit = "job"
    headline = "serve_jobs_per_s"
    seeded = True

    def __init__(self, seed: int, scale: float, out_dir: pathlib.Path):
        # the window alone sizes this workload, so scale is unused
        self.seed = seed
        self.out_dir = out_dir
        self.svc = None
        self.cache_dir = None

    def setup(self) -> None:
        from repro.serve import ExperimentService, ServiceClient

        self.out_dir.mkdir(parents=True, exist_ok=True)
        self.cache_dir = tempfile.mkdtemp(prefix="serve-cache-",
                                          dir=self.out_dir)
        self.svc = ExperimentService(port=0, workers=SERVE_WORKERS,
                                     cache_dir=self.cache_dir)
        self.svc.start()
        self.api = ServiceClient(self.svc.url, client="bench")
        # one warm job per worker, submitted together so both spawn
        jobs = [self.api.submit({"kind": "run", "seed": -1 - i, "params": {
            "benchmark": "base_latency", "provider": "mvia",
            "sizes": [4, 1024]}}) for i in range(SERVE_WORKERS)]
        for job in jobs:
            if self.api.wait(job["id"], timeout=120, poll=0.01)["state"] != "done":
                raise RuntimeError(f"warm-up job {job['id']} failed")

    def close(self) -> None:
        if self.svc is not None:
            self.svc.stop()
            self.svc = None
        if self.cache_dir is not None:
            shutil.rmtree(self.cache_dir, ignore_errors=True)
            self.cache_dir = None

    def _fresh_specs(self, rng: random.Random) -> dict:
        """Endless fresh specs per kind.  Each kind cycles through a
        seeded deck of all its combinations, so every seed asks for the
        same mix of benchmarks, providers and rates."""
        from repro.cluster import RATE_GRID

        n = itertools.count()
        # sizes only where the benchmark accepts it: the service queues a
        # spec with sizes for a benchmark that rejects them and fails it
        # at execution instead of refusing it
        runs = [{"kind": "run", "params": {
            "benchmark": b, "provider": p, "sizes": [4, 1024]}}
            for b in SERVE_BENCHMARKS for p in SERVE_PROVIDERS]
        clusters = [{"kind": "cluster", "params": {
            "providers": [p], "rates": list(pair)}}
            for p in SERVE_PROVIDERS
            for pair in itertools.combinations(RATE_GRID, 2)]

        def deal(deck):
            for spec in itertools.cycle(rng.sample(deck, len(deck))):
                yield dict(spec, seed=derive_seed(self.seed, next(n)))
        return {"run": deal(runs), "cluster": deal(clusters)}

    def _job(self, spec: dict, op: str, spans) -> tuple:
        t0 = time.perf_counter()
        events: dict = {}
        with spans.span("job", op=op):
            with spans.span("submit"):
                summary = self.api.submit(spec)
            t_sub = time.perf_counter()
            if summary["state"] != "done":
                last = t_sub
                for event in self.api.follow(summary["id"]):
                    now = time.perf_counter()
                    spans.mark(f"sse.{event['event']}", last, now, op)
                    events[event["event"]] = now - t_sub
                    last = now
                if "done" not in events:
                    raise RuntimeError(f"job ended without done: {events}")
            t_res = time.perf_counter()
            with spans.span("result"):
                body, hit = self.api.result(summary["id"])
        t_end = time.perf_counter()
        return body, JobRecord(hit, t_end - t0, t_sub - t0, t_end - t_res,
                               events)

    def _metrics(self) -> dict:
        snap = self.api.metrics()["metrics"]
        return {k: v.get("value", 0) for k, v in snap.items()}

    def measure(self, seconds: float, spans=NO_SPANS) -> Phase:
        rng = random.Random(f"serve:{self.seed}")
        decks = self._fresh_specs(rng)
        history: list = []          # (spec, first body)
        block: list = []
        blocks = 0                  # complete blocks
        records: list = []
        latencies: dict = {kind: [] for kind in SERVE_BLOCK}
        costs: dict = {kind: [] for kind in SERVE_BLOCK}  # reference units
        errors: list = []
        digest: list = []
        check: list = []
        before = self._metrics()
        start = time.perf_counter()
        deadline = start + seconds
        attempted = 0
        # the first block's fresh specs cover DIGEST_FRESH bodies
        while time.perf_counter() < deadline or blocks < MIN_ROUNDS:
            if not block:
                block = list(SERVE_BLOCK)
                rng.shuffle(block)
                if not history:     # nothing to resubmit yet
                    block.sort(key=lambda kind: kind == "resubmit")
            kind = block.pop(0)
            fresh = kind != "resubmit"
            if fresh:
                spec = next(decks[kind])
                checked = not history or rng.random() < 1 / CHECK_ONE_IN
            else:
                spec, first = history[rng.randrange(len(history))]
            op = f"job#{attempted}"
            attempted += 1
            ref = reference_kernel()
            try:
                body, rec = self._job(spec, op, spans)
            except Exception as exc:  # noqa: BLE001 - count it, keep going
                errors.append(f"{op}: {type(exc).__name__}: {exc}")
                body = rec = None
            if rec is not None:
                records.append(rec)
                latencies[kind].append(rec.latency_s)
                costs[kind].append(rec.latency_s / ref)
            if fresh:
                history.append((spec, body))
                if len(history) <= DIGEST_FRESH:
                    digest.append(sha256(body))
                if checked and rec is not None:
                    check.append((spec, body))
            elif rec is not None and body != first:
                errors.append(f"{op}: resubmitted body differs")
            blocks += not block
        wall = time.perf_counter() - start
        after = self._metrics()
        delta = {k: after.get(k, 0) - before.get(k, 0) for k in after}
        submitted = delta.get("serve.jobs.submitted", 0)
        # a block of jobs that each take their kind's median latency, so
        # one noisy-neighbour burst moves a few samples, not the result
        block_s = sum(percentile(latencies[kind], 50) for kind in SERVE_BLOCK)
        block_ref = sum(percentile(costs[kind], 50) for kind in SERVE_BLOCK)
        phase = Phase(
            ops_per_s=(len(SERVE_BLOCK) / (block_ref * REF_NOMINAL_S)
                       if block_ref else 0.0),
            wall_ops_per_s=len(SERVE_BLOCK) / block_s if block_s else 0.0,
            calls=[r.latency_s for r in records],
            attempted=attempted, errors=errors, digest=sha256(digest),
            rounds=blocks, wall_s=wall,
            counts={
                "serve.jobs": len(records),
                "serve.cells_executed": delta.get("serve.cells.executed", 0),
                "serve.hit_ratio": (delta.get("serve.jobs.cache_hits", 0)
                                    / submitted if submitted else 0.0),
            },
            outputs=check,
        )
        phase.extras = self._extras(records)
        return phase

    def verify(self, phase: Phase) -> list:
        """Sampled served bodies must equal an inline ``execute_spec``."""
        from repro.serve import ExperimentSpec, execute_spec

        return [f"served body for {canonical(spec)} differs from inline "
                "execute_spec" for spec, body in phase.outputs
                if execute_spec(ExperimentSpec.from_dict(spec)) != body]

    @staticmethod
    def _extras(records: list) -> dict:
        def ms(values, q):
            return (percentile(values, q) * 1e3, "ms", len(values))

        hits = [r for r in records if r.hit]
        misses = [r for r in records if not r.hit]
        cells = [r for r in misses if "plan" in r.events and "cell" in r.events]
        return {
            "serve_hit_p50_ms": ms([r.latency_s for r in hits], 50),
            "serve_hit_p99_ms": ms([r.latency_s for r in hits], 99),
            "serve_miss_p50_ms": ms([r.latency_s for r in misses], 50),
            "serve_miss_p98_ms": ms([r.latency_s for r in misses], 98),
            "serve.submit_ms.p50": ms([r.submit_s for r in hits], 50),
            "serve.fetch_ms.p50": ms([r.fetch_s for r in hits], 50),
            "serve.queue_ms.p50": ms([r.events["plan"] for r in cells], 50),
            "serve.exec_ms.p50": ms([r.events["cell"] - r.events["plan"]
                                     for r in cells], 50),
            "serve.finish_ms.p50": ms([r.events["done"] - r.events["cell"]
                                       for r in cells], 50),
        }


WORKLOADS = {cls.name: cls for cls in (PaperSuite, BulkStream, ClusterSweep,
                                       ServeMixed)}
