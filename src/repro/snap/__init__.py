"""Deterministic checkpoint/restore for live simulations.

One tier, one blob format (:mod:`repro.snap.format`): the **replay
tier** (:mod:`repro.snap.recipe`) stores a genesis recipe and an event
cursor, valid at *any* point — mid-handshake, mid-burst, with armed
fault processes.  Restore re-runs the recorded builder to the cursor
and verifies a structural fingerprint
(:mod:`repro.snap.fingerprint`).

Correctness bar (proven by ``tests/test_snapshot_equivalence.py``): for
any checkpoint point, running the original to completion and running a
restored copy to completion produce bit-identical completions, harvest
counters, and traces on every provider.
"""

from __future__ import annotations

from .format import (CODE_VERSION, FORMAT_VERSION, MAGIC, TIER_REPLAY,
                     SnapshotDivergenceError, SnapshotError,
                     SnapshotIntegrityError, SnapshotStateError,
                     SnapshotVersionError, blob_hash, decode, encode,
                     snapshot_key)
from .fingerprint import fingerprint
from .recipe import (BUILDERS, Session, build_session, checkpoint_replay,
                     register_builder, restore_replay)

# registering the standard builders is a side effect of importing them
from .programs import transfer_session

__all__ = [
    "MAGIC", "FORMAT_VERSION", "CODE_VERSION", "TIER_REPLAY",
    "SnapshotError", "SnapshotVersionError", "SnapshotIntegrityError",
    "SnapshotStateError", "SnapshotDivergenceError",
    "encode", "decode", "blob_hash", "snapshot_key", "fingerprint",
    "BUILDERS", "Session", "register_builder", "build_session",
    "checkpoint_replay", "restore_replay", "transfer_session",
]
