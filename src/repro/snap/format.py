"""Canonical snapshot blob format: framing, versioning, content hash.

Every snapshot — state tier or replay tier — is one byte string::

    b"VIBESNAP" | u16 format version | u8 tier | u8 reserved |
    u32 header length | header JSON (sorted keys, compact) | payload

The header carries the code version the blob was written by, the
SHA-256 of the payload, and tier-specific metadata (provider, seed,
simulated time, event cursor).  :func:`decode` refuses blobs whose
magic, format version, or code version do not match — a clear
:class:`SnapshotVersionError` instead of silently unpickling foreign
state — and verifies the payload hash (:class:`SnapshotIntegrityError`
on corruption) before any payload byte is interpreted.

The blob's identity is :func:`blob_hash`, a SHA-256 over the entire
byte string; because the payload encodings are canonical (sorted-key
JSON, insertion-ordered pickles with canonicalized sets, id allocators
reset per capture), the hash is a pure function of (config, seed, code
version) — the content-address the golden tests key on.
"""

from __future__ import annotations

import hashlib
import json
import struct

from .. import __version__

__all__ = [
    "MAGIC", "FORMAT_VERSION", "CODE_VERSION",
    "TIER_STATE", "TIER_REPLAY",
    "SnapshotError", "SnapshotVersionError", "SnapshotIntegrityError",
    "SnapshotStateError", "SnapshotDivergenceError",
    "encode", "decode", "blob_hash", "snapshot_key",
]

MAGIC = b"VIBESNAP"
#: bump on any change to the framing or the payload encodings —
#: including new or removed fields in the pickled state tier (v2:
#: providers carry an admission-control ``conn_rejects`` counter; v3:
#: channels no longer carry a delivery-divert hook; v4: VIs carry their
#: scan-pending sends, the simulator its fast-forward decline counts,
#: and served ``run`` results name an explicit fidelity in ``meta``;
#: v5: wire hops run as callback chains, so no hop leaves a completion
#: event in the simulator's ``events_run`` or ``_seq``)
FORMAT_VERSION = 5
#: stamped into every header; a restore across package versions refuses
CODE_VERSION = f"repro-{__version__}/snap-{FORMAT_VERSION}"

TIER_STATE = 1    # full serialized state (quiescent points)
TIER_REPLAY = 2   # genesis recipe + event cursor (any point)

_HEAD = struct.Struct(">HBBI")  # format version, tier, reserved, header len


class SnapshotError(Exception):
    """Base class for everything the snapshot layer raises."""


class SnapshotVersionError(SnapshotError):
    """The blob was written by an incompatible format or code version."""


class SnapshotIntegrityError(SnapshotError):
    """The blob's payload does not match its recorded content hash."""


class SnapshotStateError(SnapshotError):
    """The simulation is not in a serializable state (live processes)."""


class SnapshotDivergenceError(SnapshotError):
    """A replayed simulation did not reproduce the captured state."""


def encode(tier: int, payload: bytes, meta: dict) -> bytes:
    """Frame ``payload`` into a versioned, content-hashed blob."""
    if tier not in (TIER_STATE, TIER_REPLAY):
        raise ValueError(f"unknown snapshot tier {tier}")
    header = {
        "code_version": CODE_VERSION,
        "payload_sha256": hashlib.sha256(payload).hexdigest(),
        "meta": meta,
    }
    head_bytes = json.dumps(header, sort_keys=True,
                            separators=(",", ":")).encode()
    return b"".join([
        MAGIC,
        _HEAD.pack(FORMAT_VERSION, tier, 0, len(head_bytes)),
        head_bytes,
        payload,
    ])


def decode(blob: bytes) -> tuple[int, bytes, dict]:
    """Split a blob into ``(tier, payload, meta)``, verifying everything.

    Raises :class:`SnapshotVersionError` on a foreign or tampered
    magic/version field and :class:`SnapshotIntegrityError` when the
    payload bytes do not hash to the recorded digest.
    """
    if not isinstance(blob, (bytes, bytearray)):
        raise SnapshotVersionError(
            f"snapshot must be bytes, got {type(blob).__name__}")
    if len(blob) < len(MAGIC) + _HEAD.size or blob[:len(MAGIC)] != MAGIC:
        raise SnapshotVersionError(
            "not a VIBe snapshot: bad magic (expected "
            f"{MAGIC!r} at offset 0)")
    fmt, tier, _reserved, head_len = _HEAD.unpack_from(blob, len(MAGIC))
    if fmt != FORMAT_VERSION:
        raise SnapshotVersionError(
            f"snapshot format version {fmt} is not supported "
            f"(this build reads version {FORMAT_VERSION})")
    if tier not in (TIER_STATE, TIER_REPLAY):
        raise SnapshotVersionError(f"unknown snapshot tier {tier}")
    start = len(MAGIC) + _HEAD.size
    try:
        header = json.loads(blob[start:start + head_len])
    except ValueError as exc:
        raise SnapshotVersionError(f"unreadable snapshot header: {exc}") \
            from None
    code_version = header.get("code_version")
    if code_version != CODE_VERSION:
        raise SnapshotVersionError(
            f"snapshot was written by {code_version!r}; this build is "
            f"{CODE_VERSION!r} — re-create the checkpoint")
    payload = bytes(blob[start + head_len:])
    digest = hashlib.sha256(payload).hexdigest()
    if digest != header.get("payload_sha256"):
        raise SnapshotIntegrityError(
            "snapshot payload does not match its content hash "
            f"({digest[:12]}... != {str(header.get('payload_sha256'))[:12]}...)")
    return tier, payload, header.get("meta", {})


def blob_hash(blob: bytes) -> str:
    """The blob's content address: SHA-256 hex over the whole byte string."""
    return hashlib.sha256(blob).hexdigest()


def snapshot_key(config_repr: str, seed: int) -> str:
    """Content-address a snapshot *source*: (config, seed, code-version).

    Pure function of its arguments — identical across processes and
    machines — used by campaign checkpoints and the service's result
    cache.
    """
    raw = repr((CODE_VERSION, config_repr, seed)).encode()
    return hashlib.sha256(raw).hexdigest()
