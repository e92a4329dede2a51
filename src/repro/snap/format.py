"""Canonical snapshot blob format: framing, versioning, content hash.

Every checkpoint is one byte string::

    b"VIBESNAP" | u16 format version | u8 tier | u8 reserved |
    u32 header length | header JSON (sorted keys, compact) | payload

The tier byte is always :data:`TIER_REPLAY`, the one tier this build
writes.  The header carries the code version the blob was written by,
the SHA-256 of the payload, and the checkpoint's metadata (provider,
simulated time, event cursor, fingerprint).  :func:`decode` refuses
blobs whose magic, format version, tier or code version do not match,
or whose header is not a JSON object — a clear
:class:`SnapshotVersionError` instead of unpickling foreign bytes — and
verifies the payload hash (:class:`SnapshotIntegrityError` on
corruption) before any payload byte is interpreted.

The blob's identity is :func:`blob_hash`, a SHA-256 over the entire
byte string; because the payload is a canonical pickle of the genesis
recipe and the header is sorted-key JSON, the hash is a pure function
of (recipe, event cursor, code version).
"""

from __future__ import annotations

import hashlib
import json
import struct

from .. import __version__

__all__ = [
    "MAGIC", "FORMAT_VERSION", "CODE_VERSION", "TIER_REPLAY",
    "SnapshotError", "SnapshotVersionError", "SnapshotIntegrityError",
    "SnapshotStateError", "SnapshotDivergenceError",
    "encode", "decode", "blob_hash", "snapshot_key",
]

MAGIC = b"VIBESNAP"
#: bump on any change to the blob framing or to the pickled genesis
#: recipe's encoding; a change to simulated behaviour or to the object
#: graph a checkpoint replays does not move it (v2-v6 tracked the
#: pickled testbed graph of a since-deleted state tier)
FORMAT_VERSION = 6
#: stamped into every header; a restore across package versions refuses
CODE_VERSION = f"repro-{__version__}/snap-{FORMAT_VERSION}"

TIER_REPLAY = 2   # genesis recipe + event cursor (any point)

_HEAD = struct.Struct(">HBBI")  # format version, tier, reserved, header len


class SnapshotError(Exception):
    """Base class for everything the snapshot layer raises."""


class SnapshotVersionError(SnapshotError):
    """The blob was written by an incompatible format or code version."""


class SnapshotIntegrityError(SnapshotError):
    """The blob's payload or metadata does not match what was written."""


class SnapshotStateError(SnapshotError):
    """The session cannot be checkpointed (no recipe, or mid-step)."""


class SnapshotDivergenceError(SnapshotError):
    """A replayed simulation did not reproduce the captured state."""


def encode(payload: bytes, meta: dict) -> bytes:
    """Frame ``payload`` into a versioned, content-hashed blob."""
    header = {
        "code_version": CODE_VERSION,
        "payload_sha256": hashlib.sha256(payload).hexdigest(),
        "meta": meta,
    }
    head_bytes = json.dumps(header, sort_keys=True,
                            separators=(",", ":")).encode()
    return b"".join([
        MAGIC,
        _HEAD.pack(FORMAT_VERSION, TIER_REPLAY, 0, len(head_bytes)),
        head_bytes,
        payload,
    ])


def decode(blob: bytes) -> tuple[bytes, dict]:
    """Split a blob into ``(payload, meta)``, verifying everything.

    Raises :class:`SnapshotVersionError` on a foreign or tampered
    magic/version/tier field or a header that is not a JSON object, and
    :class:`SnapshotIntegrityError` when the payload bytes do not hash
    to the recorded digest.
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
    if tier != TIER_REPLAY:
        raise SnapshotVersionError(f"unknown snapshot tier {tier}")
    start = len(MAGIC) + _HEAD.size
    try:
        header = json.loads(blob[start:start + head_len])
    except ValueError as exc:
        raise SnapshotVersionError(f"unreadable snapshot header: {exc}") \
            from None
    if not isinstance(header, dict):
        raise SnapshotVersionError(
            f"snapshot header is a JSON {type(header).__name__}, "
            "not an object")
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
    return payload, header.get("meta", {})


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
