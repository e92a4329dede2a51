"""Replay-tier snapshots: genesis recipe + event cursor.

The kernel is deterministic: a simulation is fully determined by how it
was built (the genesis) and how many events have run (the cursor).
Suspended generator frames — which Python cannot serialize — therefore
never need to be: a replay checkpoint records the *name* of a
registered builder, its (picklable) parameters, and ``events_run`` at
the capture point.  :func:`restore_replay` re-invokes the builder from
scratch and re-runs exactly ``cursor`` events, arriving at the same
state the snapshot captured — including every suspended frame, armed
fault process, and in-flight packet, because they are all reconstructed
by the same event sequence.

Trust is verified, not assumed: the capture stamps a structural
:func:`~repro.snap.fingerprint.fingerprint` of the session, and restore
recomputes it after replaying.  A mismatch means the recipe no longer
reproduces the run (code drift, an unpinned iteration order) and raises
:class:`~repro.snap.format.SnapshotDivergenceError` instead of handing
back a silently different simulation.

Builders register by name in :data:`BUILDERS`: :func:`transfer_session`
here runs one of the canonical two-node programs of
:mod:`repro.programs`, and :mod:`repro.faults.chaos` registers the
chaos-scenario builder.  A builder takes a parameter dict and returns a
:class:`Session`; it must be deterministic given its parameters and a
reset id/RNG environment — :func:`build_session` resets the global id
allocators before invoking it, so blobs hash identically no matter what
ran earlier in the process.
"""

from __future__ import annotations

import io
import pickle
import pickletools
import zlib
from typing import Callable

from ..sim.ids import reset_ids
from .fingerprint import fingerprint
from .format import (SnapshotDivergenceError, SnapshotIntegrityError,
                     SnapshotStateError, SnapshotVersionError, decode, encode)

__all__ = ["BUILDERS", "Session", "register_builder", "build_session",
           "checkpoint_replay", "restore_replay", "canonical_dumps",
           "transfer_session"]

_PROTOCOL = 4  # fixed: the blob format pins the pickle protocol too

#: registered genesis builders: name -> (params dict -> Session)
BUILDERS: dict[str, Callable[[dict], "Session"]] = {}


def register_builder(name: str):
    """Decorator registering a genesis builder under ``name``."""
    def deco(fn: Callable[[dict], "Session"]):
        BUILDERS[name] = fn
        return fn
    return deco


class Session:
    """One replayable simulation: a testbed plus its root processes.

    Builders return one of these; the snapshot layer drives it either
    event-by-event (``run_events``) to reach a capture/restore point or
    to completion (``drive``), which finishes every root process in
    spawn order, drains the queue, and returns the result board.
    """

    def __init__(self, testbed, procs: list, board: dict) -> None:
        self.testbed = testbed
        self.procs = list(procs)
        self.board = board
        #: set by build_session: how to rebuild this session from nothing
        self.genesis: dict | None = None

    @property
    def sim(self):
        return self.testbed.sim

    @property
    def events_run(self) -> int:
        return self.testbed.sim.events_run

    def run_events(self, n: int) -> int:
        """Advance exactly ``n`` events (fewer if the queue drains)."""
        return self.testbed.sim.run_events(n)

    def drive(self) -> dict:
        """Run every root process to completion, drain, return the board.

        Safe to call after a partial ``run_events``: processes that
        already finished return immediately.
        """
        for proc in self.procs:
            self.testbed.run(proc)
        self.testbed.run()
        return self.board


def build_session(builder: str, params: dict) -> Session:
    """Invoke a registered builder in a canonical environment.

    Resets the global id allocators first, so the session — and any
    blob captured from it — is identical whether it is the first
    simulation of the process or the hundredth.
    """
    if builder == "chaos" and builder not in BUILDERS:
        # registers on import; pull it in so a blob can be restored in a
        # process that never touched the chaos campaign
        from ..faults import chaos  # noqa: F401
    try:
        fn = BUILDERS[builder]
    except KeyError:
        raise SnapshotVersionError(
            f"unknown genesis builder {builder!r}; registered: "
            f"{sorted(BUILDERS)}") from None
    reset_ids()
    session = fn(dict(params))
    session.genesis = {"builder": builder, "params": dict(params)}
    return session


_WORKLOADS = ("pingpong", "stream", "rdma_write", "segmented")


@register_builder("transfer")
def transfer_session(params: dict) -> Session:
    """Two-node data-transfer session: the :mod:`repro.programs` program
    named by ``workload`` (``segmented`` is a ping-pong of 4-segment
    descriptors) on a testbed with the given provider, seed, loss rate,
    checker, fault plan, fidelity and tracer."""
    from .. import programs
    from ..providers.registry import Testbed
    from ..sim.trace import Tracer
    from ..via.constants import Reliability

    workload = params.get("workload", "pingpong")
    if workload not in _WORKLOADS:
        raise ValueError(
            f"unknown transfer workload {workload!r}; one of {_WORKLOADS}")
    tb = Testbed(params.get("provider", "clan"),
                 seed=int(params.get("seed", 0)),
                 loss_rate=params.get("loss_rate"),
                 check=bool(params.get("check", False)),
                 faults=params.get("faults"),
                 fidelity=params.get("fidelity", "packet"))
    if params.get("trace"):
        # attached at genesis, so replay reproduces the full event log
        tb.sim.tracer = Tracer()
    reliability = params.get("reliability")
    shape = {"size": int(params.get("size", 256)),
             "count": int(params.get("count", 8)),
             "reliability": (None if reliability is None
                             else Reliability(reliability))}
    if workload in ("pingpong", "segmented"):
        shape["segments"] = int(params.get(
            "segments", 4 if workload == "segmented" else 1))
        workload = "pingpong"
    prog = getattr(programs, workload)(tb, **shape)
    return Session(tb, prog.procs, prog.board)


class _CanonicalPickler(pickle.Pickler):
    """Pickler whose bytes do not depend on the hash seed: sets and
    frozensets pickle as sorted element lists."""

    def reducer_override(self, obj):
        t = type(obj)
        if t is set or t is frozenset:
            return t, (_sorted_elements(obj),)
        return NotImplemented


def _sorted_elements(s) -> list:
    try:
        return sorted(s)
    except TypeError:
        # heterogeneous / unorderable elements: order by structural digest
        return sorted(s, key=fingerprint)


def canonical_dumps(obj) -> bytes:
    """Canonically pickle ``obj`` (fixed protocol, canonicalized sets)."""
    buf = io.BytesIO()
    _CanonicalPickler(buf, protocol=_PROTOCOL).dump(obj)
    # memo indices inside the stream still depend on traversal, which is
    # deterministic; optimize() strips unused PUTs so equal graphs that
    # differ only in dead memo entries collapse to equal bytes
    return pickletools.optimize(buf.getvalue())


def _session_fingerprint(session: Session) -> str:
    sim = session.testbed.sim
    # pools are allocation-history caches, not state; empty them so a
    # capture and a replay of the same cursor always agree
    sim._list_pool.clear()
    sim._kick_pool.clear()
    sim._timeout_pool.clear()
    return fingerprint((session.testbed, session.procs, session.board))


def checkpoint_replay(session: Session) -> bytes:
    """Capture ``session`` at its current event cursor (any point)."""
    if session.genesis is None:
        raise SnapshotStateError(
            "session has no genesis recipe; build it via "
            "repro.snap.build_session() to make it checkpointable")
    sim = session.testbed.sim
    if sim.active_process is not None:
        raise SnapshotStateError(
            f"cannot checkpoint while process "
            f"{sim.active_process.name!r} is mid-step")
    payload = zlib.compress(canonical_dumps(session.genesis), 6)
    meta = {
        "provider": session.testbed.name,
        "now_us": sim._now,
        "events_run": sim.events_run,
        "fingerprint": _session_fingerprint(session),
    }
    return encode(payload, meta)


def restore_replay(blob: bytes) -> Session:
    """Rebuild a session from its recipe and replay to the cursor.

    The restored session's structural fingerprint must match the one
    captured, or :class:`SnapshotDivergenceError` is raised.
    """
    payload, meta = decode(blob)
    # no hash covers the header: check the fields replay relies on
    fields = meta if isinstance(meta, dict) else {}
    cursor = fields.get("events_run")
    want = fields.get("fingerprint")
    if type(cursor) is not int or cursor < 0 or type(want) is not str:
        raise SnapshotIntegrityError(
            "checkpoint header lacks a valid event cursor and fingerprint "
            f"(events_run={cursor!r}, fingerprint={want!r})")
    genesis = pickle.loads(zlib.decompress(payload))
    session = build_session(genesis["builder"], genesis["params"])
    ran = session.run_events(cursor)
    if ran != cursor:
        raise SnapshotDivergenceError(
            f"replay drained after {ran} events; the checkpoint was "
            f"taken at event {cursor} — the recipe no longer reproduces "
            "the original run")
    got = _session_fingerprint(session)
    if got != want:
        raise SnapshotDivergenceError(
            f"replayed state diverges from the checkpoint at event "
            f"{cursor} (fingerprint {got[:12]}... != {want[:12]}...); "
            "the code or builder no longer reproduces the captured run")
    return session
