"""The ``vibe chaos`` campaign: named fault scenarios on every provider.

Each scenario runs a windowed client/server stream on a conformance-
checked testbed (``check=True``) while its :class:`FaultPlan` is armed.
The workload embeds a 4-byte message index in every payload so the
server can detect duplicates, and both endpoints implement the full
VIPL catastrophic-error recovery sequence: drain completions, reset the
erred VI, reconnect, repost and resend.  A reliable-level scenario
passes only when every message is eventually delivered and no
conformance invariant fired; unreliable scenarios promise only
invariant-clean loss.
"""

from __future__ import annotations

import json
from collections import deque
from dataclasses import dataclass, field

from ..check.invariants import ConformanceError
from ..providers.registry import ALL_PROVIDERS, Testbed
from ..sim.ids import reset_ids
from ..sim.trace import Tracer
from ..via.constants import CompletionStatus, Reliability, ViState
from ..via.descriptor import Descriptor
from ..via.errors import VipConnectionError, VipTimeout
from .injector import attach_faults
from .scenarios import SCENARIOS, ChaosScenario, get_scenario

__all__ = ["ScenarioResult", "ChaosReport", "RewindResult", "run_scenario",
           "rewind_scenario", "run_chaos"]

_MARK = 4            # bytes of big-endian message index in every payload
_POLL_US = 2_000.0   # server redial-detection poll period


@dataclass
class ScenarioResult:
    """Outcome of one (scenario, provider) cell of the campaign."""

    scenario: str
    provider: str
    ok: bool
    delivered: int
    expected: int
    duplicates: int
    recoveries: int
    conn_retransmissions: int
    retransmissions: int
    faults_injected: int
    recovery_latency_us: float
    elapsed_us: float
    goodput_mbs: float
    violations: list = field(default_factory=list)
    note: str = ""

    def to_dict(self) -> dict:
        return dict(self.__dict__)


@dataclass
class ChaosReport:
    """Everything one chaos campaign learned."""

    providers: tuple
    scenarios: tuple
    results: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return bool(self.results) and all(r.ok for r in self.results)

    def summary(self) -> str:
        lines = [
            f"chaos: {len(self.scenarios)} scenarios x "
            f"{len(self.providers)} providers "
            f"({', '.join(self.providers)})",
            f"  {'scenario':<20} {'provider':<8} {'verdict':<7} "
            f"{'delivered':>9} {'dup':>4} {'recov':>5} {'retx':>5} "
            f"{'faults':>6} {'rec_lat_us':>10}",
        ]
        for r in self.results:
            verdict = "ok" if r.ok else "FAIL"
            retx = r.retransmissions + r.conn_retransmissions
            lines.append(
                f"  {r.scenario:<20} {r.provider:<8} {verdict:<7} "
                f"{r.delivered:>4}/{r.expected:<4} {r.duplicates:>4} "
                f"{r.recoveries:>5} {retx:>5} {r.faults_injected:>6} "
                f"{r.recovery_latency_us:>10.1f}"
            )
        for r in self.results:
            for v in r.violations:
                lines.append(f"  {r.scenario} on {r.provider}: {v}")
            if r.note and not r.ok:
                lines.append(f"  {r.scenario} on {r.provider}: {r.note}")
        lines.append("PASS" if self.ok else "FAIL")
        return "\n".join(lines)

    def to_json(self) -> str:
        return json.dumps(
            {
                "providers": list(self.providers),
                "scenarios": list(self.scenarios),
                "ok": self.ok,
                "results": [r.to_dict() for r in self.results],
            },
            indent=2,
            sort_keys=True,
        )


def _make_cell(provider: str, sc: ChaosScenario, seed: int,
               quick: bool) -> tuple:
    """Stand up one scenario cell from reset ids: ``(testbed, procs,
    board)`` with its plan and both endpoint processes.

    Everything the run will observe lives in the board, so a cold cell
    and a rewound-and-finished cell can be compared field by field.
    """
    reset_ids()
    count = min(sc.count, 8) if quick else sc.count
    deadline_us = min(sc.deadline_us, 150_000.0) if quick else sc.deadline_us
    window = min(sc.window, count)
    size = sc.size
    slot = max(size, _MARK)
    disc = 71
    tb = Testbed(provider, seed=seed, check=True)
    plan = sc.plan(seed)
    if sc.phase == "all":
        attach_faults(tb, plan)
    client_name, server_name = tb.node_names[0], tb.node_names[1]
    stats = {
        "acked": 0, "delivered": 0, "dups": 0, "recovery_latency": 0.0,
        "elapsed": 0.0, "error": "",
    }
    violations: list = []

    def client_body():
        h = tb.open(client_name, "client")
        vi = yield from h.create_vi(reliability=sc.reliability)
        buf = h.alloc(slot * window)
        mh = yield from h.register_mem(buf)
        deadline = tb.now + deadline_us

        def remaining() -> float:
            return deadline - tb.now

        def dial():
            """Dial until accepted or the deadline passes; True on success."""
            while remaining() > 0:
                try:
                    yield from h.connect(vi, server_name, disc,
                                         timeout=remaining())
                    return True
                except VipTimeout:
                    return False
                except VipConnectionError:
                    continue  # handshake retries exhausted: dial again
            return False

        if not (yield from dial()):
            stats["error"] = "client: connect deadline exceeded"
            return
        if sc.phase == "data":
            attach_faults(tb, plan.shifted(tb.now))
        t0 = tb.now
        next_idx = 0
        posted: deque[int] = deque()  # indices in flight, FIFO
        while stats["acked"] < count:
            if remaining() <= 0:
                stats["error"] = "client: send deadline exceeded"
                break
            while next_idx < count and len(posted) < window:
                s = next_idx % window
                h.write(buf, next_idx.to_bytes(_MARK, "big"), offset=s * slot)
                yield from h.post_send(
                    vi, Descriptor.send([h.segment(buf, mh, s * slot, size)]))
                posted.append(next_idx)
                next_idx += 1
            budget = remaining()  # posting cost may have crossed the deadline
            if budget <= 0:
                stats["error"] = "client: send deadline exceeded"
                break
            try:
                desc = yield from h.send_wait(vi, timeout=budget)
            except VipTimeout:
                stats["error"] = "client: send deadline exceeded"
                break
            if desc.status is CompletionStatus.SUCCESS:
                posted.popleft()
                stats["acked"] += 1
                continue
            # -- catastrophic error: drain, reset, reconnect, resend ----
            t_err = tb.now
            while True:
                d = yield from h.send_done(vi)
                if d is None:
                    break
                if d.status is CompletionStatus.SUCCESS:
                    posted.popleft()
                    stats["acked"] += 1
            if posted:
                next_idx = posted[0]  # rewind to the first unacked message
                posted.clear()
            yield from h.reset_vi(vi)
            if not (yield from dial()):
                stats["error"] = "client: reconnect deadline exceeded"
                break
            lat = tb.now - t_err
            if lat > stats["recovery_latency"]:
                stats["recovery_latency"] = lat
        stats["elapsed"] = tb.now - t0
        if stats["acked"] == count and vi.state is ViState.CONNECTED:
            yield from h.disconnect(vi)

    def server_body():
        h = tb.open(server_name, "server")
        vi = yield from h.create_vi(reliability=sc.reliability)
        buf = h.alloc(slot * window)
        mh = yield from h.register_mem(buf)
        deadline = tb.now + deadline_us
        slots: deque[int] = deque()  # slot per posted recv, FIFO
        seen: set[int] = set()

        def remaining() -> float:
            return deadline - tb.now

        def post_slot(s: int):
            yield from h.post_recv(
                vi, Descriptor.recv([h.segment(buf, mh, s * slot, slot)]))
            slots.append(s)

        def consume(desc) -> tuple[int, bool]:
            """Account one completed recv; returns (freed slot, had data)."""
            s = slots.popleft()
            if desc.status is not CompletionStatus.SUCCESS:
                return s, False
            idx = int.from_bytes(h.read(buf, _MARK, offset=s * slot), "big")
            if idx in seen:
                stats["dups"] += 1
            else:
                seen.add(idx)
            return s, True

        for s in range(window):
            yield from post_slot(s)
        try:
            req = yield from h.connect_wait(disc, timeout=remaining())
        except VipTimeout:
            stats["error"] = stats["error"] or "server: nobody connected"
            return
        yield from h.accept(req, vi)
        while remaining() > 0:
            if len(seen) >= count and vi.state is not ViState.CONNECTED:
                # the client only disconnects once every send is acked, so
                # a passive teardown after full delivery ends the stream.
                # Until then keep serving: the client may still be
                # redialing to resend messages whose acks were lost.
                break
            try:
                desc = yield from h.recv_wait(
                    vi, timeout=min(_POLL_US, remaining()))
            except VipTimeout:
                if tb.providers[server_name].connmgr.pending_count(disc):
                    # the client redialed after an error: tear down the
                    # dead connection and accept the fresh one
                    if vi.state is ViState.CONNECTED:
                        yield from h.disconnect(vi)
                    while True:
                        d = yield from h.recv_done(vi)
                        if d is None:
                            break
                        consume(d)
                    yield from h.reset_vi(vi)
                    slots.clear()
                    for s in range(window):
                        yield from post_slot(s)
                    budget = remaining()  # teardown may cross the deadline
                    if budget <= 0:
                        break
                    try:
                        req = yield from h.connect_wait(disc, timeout=budget)
                    except VipTimeout:
                        break
                    yield from h.accept(req, vi)
                continue
            s, _had_data = consume(desc)
            if vi.is_connected and len(seen) < count:
                yield from post_slot(s)
        stats["delivered"] = len(seen)

    procs = [tb.spawn(client_body(), "chaos-client"),
             tb.spawn(server_body(), "chaos-server")]
    board = {"stats": stats, "violations": violations,
             "count": count, "size": size}
    return tb, procs, board


def _finish_scenario(cell: tuple, provider: str,
                     sc: ChaosScenario) -> ScenarioResult:
    """Drive a (possibly part-run) scenario cell to its verdict."""
    tb, procs, board = cell
    stats = board["stats"]
    violations = board["violations"]
    count = board["count"]
    size = board["size"]
    try:
        for proc in procs:
            tb.run(proc)
        tb.run()  # drain stray timers so the quiesce audit sees a quiet sim
        tb.checker.check_quiesced(tb)
    except ConformanceError as exc:
        violations.append(str(exc))
    except Exception as exc:  # a crash is also a chaos failure
        violations.append(f"crashed with {type(exc).__name__}: {exc}")

    providers = list(tb.providers.values())
    recoveries = sum(p.recoveries for p in providers)
    conn_retx = sum(p.conn_retransmissions for p in providers)
    retx = sum(p.engine.retransmissions for p in providers)
    injector = tb.injector
    faults_injected = (sum(injector.counters.values())
                       if injector is not None else 0)
    tb.close()
    delivered = stats["delivered"]
    elapsed = stats["elapsed"]
    goodput = delivered * size / elapsed if elapsed > 0 else 0.0
    if sc.expect_delivery:
        ok = (not violations and not stats["error"]
              and delivered == count and stats["acked"] == count)
    else:
        ok = not violations
    return ScenarioResult(
        scenario=sc.name,
        provider=provider,
        ok=ok,
        delivered=delivered,
        expected=count,
        duplicates=stats["dups"],
        recoveries=recoveries,
        conn_retransmissions=conn_retx,
        retransmissions=retx,
        faults_injected=faults_injected,
        recovery_latency_us=stats["recovery_latency"],
        elapsed_us=elapsed,
        goodput_mbs=goodput,
        violations=violations,
        note=stats["error"],
    )


def run_scenario(provider: str, sc: ChaosScenario, seed: int = 0,
                 quick: bool = False) -> ScenarioResult:
    """Run one scenario on one provider under the conformance checker."""
    if sc.workload == "cluster":
        from .cluster_cell import run_cluster_scenario

        return run_cluster_scenario(provider, sc, seed=seed, quick=quick)
    if sc.workload == "overload":
        from .overload_cell import run_overload_scenario

        return run_overload_scenario(provider, sc, seed=seed, quick=quick)
    return _finish_scenario(_make_cell(provider, sc, seed, quick),
                            provider, sc)


@dataclass
class RewindResult:
    """What one ``--rewind`` cell produced: the event cursor just before
    the first fault window opens, and the verdict of a rebuilt cell
    stepped to that cursor and finished under a tracer."""

    scenario: str
    provider: str
    t_arm_us: float          # when the earliest fault window opens
    checkpoint_event: int    # event cursor the rewind stopped at
    events_traced: int       # events recorded from the fault window on
    matches_cold: bool       # rewound verdict == cold verdict
    result: ScenarioResult = None

    def summary(self) -> str:
        verdict = "ok" if (self.result.ok and self.matches_cold) else "FAIL"
        return (f"  {self.scenario:<20} {self.provider:<8} {verdict:<7} "
                f"arm@{self.t_arm_us:>10.1f}us  "
                f"ckpt@ev{self.checkpoint_event:<7}  traced {self.events_traced}")


def rewind_scenario(provider: str, sc: ChaosScenario, seed: int = 0,
                    quick: bool = False) -> RewindResult:
    """Rewind a scenario to just before its first fault arms and re-run
    the fault window under a tracer.

    The debugging workflow this enables: a chaos cell fails, you rewind
    to the moment before the fault fires and watch just the interesting
    window — with tracing, a debugger, or a code tweak.  The simulation
    is deterministic, so a cell is fully determined by how it was built
    and how many events have run: the rewind rebuilds the cell and
    steps it one event at a time up to the fault window.

    Two runs happen: a *cold* discovery run (to learn the absolute arm
    time — ``phase="data"`` plans are scheduled relative to connect)
    and the rewound run.  Their verdicts must agree (``matches_cold``);
    tracing is observation-only.
    """
    if sc.workload != "stream":
        raise ValueError(
            f"scenario {sc.name!r} runs a {sc.workload} workload; "
            "--rewind supports two-node stream scenarios only")
    # discovery: run cold to completion, learn when the plan armed
    probe = _make_cell(provider, sc, seed, quick)
    cold = _finish_scenario(probe, provider, sc)
    injector = probe[0].injector
    if injector is None or not injector.plan.faults:
        raise ValueError(
            f"scenario {sc.name!r} never armed a fault plan on "
            f"{provider}; nothing to rewind to")
    t_arm = min(spec.at for spec in injector.plan.faults)

    # fresh cell, stepped to just before the first fault window opens,
    # then finished under a tracer
    cell = _make_cell(provider, sc, seed, quick)
    sim = cell[0].sim
    while sim.peek() < t_arm:
        if sim.run_events(1) == 0:
            break
    cursor = sim.events_run
    tracer = sim.tracer = Tracer()
    result = _finish_scenario(cell, provider, sc)
    return RewindResult(
        scenario=sc.name,
        provider=provider,
        t_arm_us=t_arm,
        checkpoint_event=cursor,
        events_traced=len(tracer.events),
        matches_cold=result.to_dict() == cold.to_dict(),
        result=result,
    )


def run_chaos(providers: tuple | None = None,
              scenarios: tuple | None = None,
              seed: int = 0,
              quick: bool = False) -> ChaosReport:
    """Run the campaign; never raises, inspect ``report.ok``."""
    if providers is None:
        providers = ALL_PROVIDERS
    if scenarios:
        chosen = tuple(get_scenario(n) for n in scenarios)
    else:
        chosen = SCENARIOS
    report = ChaosReport(providers=tuple(providers),
                         scenarios=tuple(sc.name for sc in chosen))
    for sc in chosen:
        for p in providers:
            report.results.append(run_scenario(p, sc, seed=seed, quick=quick))
    return report
