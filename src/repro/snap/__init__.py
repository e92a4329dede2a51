"""Deterministic checkpoint/restore for live simulations.

Two complementary tiers, one blob format (:mod:`repro.snap.format`):

- **state tier** (:mod:`repro.snap.state`): full canonical
  serialization at quiescent points — the event queue is empty, so
  every object is plain data.  Fast to restore, works for any testbed
  regardless of how it was built.
- **replay tier** (:mod:`repro.snap.recipe`): genesis recipe + event
  cursor, valid at *any* point — mid-handshake, mid-burst, with armed
  fault processes.  Restore re-runs the recorded builder to the cursor
  and verifies a structural fingerprint.

:func:`snapshot` / :func:`restore` dispatch on what you hand them; the
tier-specific entry points are exported for callers that care.

Correctness bar (proven by ``tests/test_snapshot_equivalence.py``): for
any snapshot point, running the original to completion and running a
restored copy to completion produce bit-identical completions, harvest
counters, and traces on every provider.
"""

from __future__ import annotations

from .format import (CODE_VERSION, FORMAT_VERSION, MAGIC, TIER_REPLAY,
                     TIER_STATE, SnapshotDivergenceError, SnapshotError,
                     SnapshotIntegrityError, SnapshotStateError,
                     SnapshotVersionError, blob_hash, decode, encode,
                     snapshot_key)
from .fingerprint import fingerprint
from .recipe import (BUILDERS, Session, build_session, checkpoint_replay,
                     register_builder, restore_replay)
from .state import check_quiescent, restore_state, snapshot_state

# registering the standard builders is a side effect of importing them
from . import programs as _programs  # noqa: F401
from .programs import transfer_session, warmed_testbed

__all__ = [
    "MAGIC", "FORMAT_VERSION", "CODE_VERSION", "TIER_STATE", "TIER_REPLAY",
    "SnapshotError", "SnapshotVersionError", "SnapshotIntegrityError",
    "SnapshotStateError", "SnapshotDivergenceError",
    "encode", "decode", "blob_hash", "snapshot_key", "fingerprint",
    "snapshot", "restore",
    "snapshot_state", "restore_state", "check_quiescent",
    "BUILDERS", "Session", "register_builder", "build_session",
    "checkpoint_replay", "restore_replay",
    "transfer_session", "warmed_testbed",
]


def snapshot(target) -> bytes:
    """Checkpoint ``target``: a :class:`Session` takes the replay tier
    (valid anywhere), a testbed takes the state tier (quiescent only)."""
    if isinstance(target, Session):
        return checkpoint_replay(target)
    return snapshot_state(target)


def restore(blob: bytes):
    """Rebuild whatever ``blob`` captured: a testbed for state-tier
    blobs, a :class:`Session` for replay-tier blobs."""
    tier, _payload, _meta = decode(blob)
    if tier == TIER_STATE:
        return restore_state(blob)
    return restore_replay(blob)
