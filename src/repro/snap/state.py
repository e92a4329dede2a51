"""State-tier snapshots: full serialization at quiescent points.

At a quiescent point — event heap, same-timestamp buckets, and the
immediate-run queue all empty, no process mid-step — every live object
in a testbed is plain data: counters, deques of completed descriptors,
RNG streams, LRU caches, connection tables.  :func:`snapshot_state`
serializes the whole :class:`~repro.providers.registry.Testbed` graph
with a canonical pickler and frames it as a ``TIER_STATE`` blob;
:func:`restore_state` rebuilds an identical testbed that continues the
simulation bit-for-bit.

Canonical means the bytes are a pure function of the simulation state:

- object pools (recycled lists/kicks/timeouts) are emptied first —
  they are caches whose contents depend on allocation history that the
  simulation itself cannot observe;
- sets and frozensets pickle as sorted element lists, removing the
  PYTHONHASHSEED dependence of set iteration order;
- the global id allocators are captured in the header and exact-set on
  restore, so ids handed out after a restore match the ids the
  original run would have handed out.

Suspended generator frames cannot be serialized from Python; a process
that is alive but waiting (a server blocked in an accept loop, an
armed fault process) makes the state tier refuse with
:class:`~repro.snap.format.SnapshotStateError` — use the replay tier
(:mod:`repro.snap.recipe`) for those points.
"""

from __future__ import annotations

import inspect
import io
import pickle
import pickletools
import zlib

from ..sim.ids import capture_ids, restore_ids
from .fingerprint import fingerprint
from .format import (TIER_STATE, SnapshotStateError, SnapshotVersionError,
                     decode, encode)

__all__ = ["snapshot_state", "restore_state", "check_quiescent",
           "canonical_dumps"]

_PROTOCOL = 4  # fixed: the blob format pins the pickle protocol too


class _CanonicalPickler(pickle.Pickler):
    """Pickler producing bytes independent of hash seed and history."""

    def reducer_override(self, obj):
        if inspect.isgenerator(obj):
            code = obj.gi_code
            raise SnapshotStateError(
                "cannot serialize a suspended generator frame "
                f"({getattr(code, 'co_qualname', code.co_name)}); snapshot "
                "at a quiescent point with no waiting processes, or take a "
                "replay-tier checkpoint instead")
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


def check_quiescent(sim) -> None:
    """Raise :class:`SnapshotStateError` unless ``sim`` is between events
    with nothing scheduled."""
    pending = []
    if sim._immediate:
        pending.append(f"{len(sim._immediate)} immediate record(s)")
    if sim._heap or sim._buckets:
        n = len(sim._heap) + sum(len(b) for b in sim._buckets.values())
        pending.append(f"{n} scheduled event(s)")
    if sim.active_process is not None:
        pending.append(f"active process {sim.active_process.name!r}")
    if pending:
        raise SnapshotStateError(
            "simulation is not quiescent: " + ", ".join(pending) +
            " — run to completion first, or take a replay-tier checkpoint")


def snapshot_state(testbed) -> bytes:
    """Serialize a quiescent ``testbed`` into a canonical state blob."""
    sim = testbed.sim
    check_quiescent(sim)
    # pools are invisible caches; empty them so the bytes don't depend
    # on how many events happened to recycle before the snapshot
    sim._list_pool.clear()
    sim._kick_pool.clear()
    sim._timeout_pool.clear()
    try:
        payload = zlib.compress(canonical_dumps(testbed), 6)
    except TypeError as exc:
        # Process.__getstate__ refuses live generators with a TypeError;
        # surface it as the snapshot-layer error the caller expects
        raise SnapshotStateError(str(exc)) from None
    meta = {
        "provider": testbed.name,
        "now_us": sim._now,
        "events_run": sim.events_run,
        "ids": capture_ids(),
    }
    return encode(TIER_STATE, payload, meta)


def restore_state(blob: bytes):
    """Rebuild the testbed a state blob captured.

    Also exact-sets the global id allocators to the captured baseline,
    so every id handed out after the restore matches what the original
    process would have allocated — restored runs are id-deterministic,
    not merely behavior-deterministic.
    """
    tier, payload, meta = decode(blob)
    if tier != TIER_STATE:
        raise SnapshotVersionError(
            "blob is a replay-tier checkpoint; restore it with "
            "repro.snap.restore_replay()")
    testbed = pickle.loads(zlib.decompress(payload))
    restore_ids(meta.get("ids", {}))
    return testbed
