"""Behaviour golden and checkpoint-blob refusals.

The golden pins what a one-iteration ping-pong *does* on every
provider: the ``"transfer"`` builder's connect -> send -> reply ->
disconnect program at seed 0, recorded as its result board plus its
harvested metrics without the kernel's own ``sim.*`` accounting.  It
moves when simulated behaviour moves (a completion time, a DMA count,
a wire byte) and never because an object gained, lost or reshaped a
private attribute.

Regenerate after an *intentional* behaviour change with::

    GOLDEN_REGEN=1 PYTHONPATH=src python -m pytest tests/test_snapshot_goldens.py

and review the fixture diff like any other golden change.

The refusal tests pin the replay tier's failure modes: a blob stamped
by a different code version, a corrupted payload, a foreign or
truncated byte string and a malformed header each raise a typed
:class:`~repro.snap.SnapshotError` instead of replaying garbage.  The
hashseed test proves blobs are canonical across *processes*: two
interpreters with different ``PYTHONHASHSEED`` values must produce
identical bytes.
"""

import json
import os
import pathlib
import struct
import subprocess
import sys

import pytest

from repro import snap
from repro.obs.harvest import harvest_testbed

FIXTURES = pathlib.Path(__file__).parent / "fixtures"
GOLDENS = FIXTURES / "golden_snapshots.json"
PROVIDERS = ("mvia", "bvia", "clan", "iba")

#: the checkpoints under test: mid-run, after the handshake, with both
#: endpoint processes suspended
_REPLAY_PARAMS = {"workload": "pingpong", "provider": "clan", "count": 2,
                  "seed": 0}
_REPLAY_CURSOR = 150


def _behaviour(provider: str) -> dict:
    session = snap.build_session(
        "transfer", {"workload": "pingpong", "provider": provider,
                     "count": 1, "seed": 0})
    board = session.drive()
    harvest = {name: value for name, value
               in harvest_testbed(session.testbed).snapshot().items()
               if not name.startswith("sim.")}
    session.testbed.close()
    # through JSON, so tuples compare as the lists the fixture holds
    return json.loads(json.dumps({"board": board, "harvest": harvest}))


def test_golden_behaviour():
    got = {p: _behaviour(p) for p in PROVIDERS}
    if os.environ.get("GOLDEN_REGEN"):  # pragma: no cover - maintenance aid
        GOLDENS.write_text(json.dumps(got, indent=1, sort_keys=True) + "\n")
    assert got == json.loads(GOLDENS.read_text())


def _replay_blob(provider: str) -> bytes:
    session = snap.build_session("transfer",
                                 {**_REPLAY_PARAMS, "provider": provider})
    session.run_events(_REPLAY_CURSOR)
    blob = snap.checkpoint_replay(session)
    session.testbed.close()
    return blob


@pytest.fixture(scope="module")
def blobs() -> dict:
    return {p: _replay_blob(p) for p in PROVIDERS}


@pytest.fixture
def blob(blobs) -> bytes:
    return blobs["clan"]


@pytest.mark.parametrize("provider", PROVIDERS)
def test_blob_is_reproducible_in_process(blobs, provider):
    """Re-taking the same checkpoint yields byte-identical blobs no
    matter what ran earlier in the process: a benchmark that allocates
    ids without resetting them runs first."""
    from repro.vibe import run_benchmark

    run_benchmark("base_latency", provider, sizes=[4])
    assert _replay_blob(provider) == blobs[provider]


# ---------------------------------------------------------------------------
# version / integrity skew
# ---------------------------------------------------------------------------

def test_version_skew_is_refused(blob):
    assert snap.CODE_VERSION.encode() in blob
    tampered = blob.replace(snap.CODE_VERSION.encode(), b"repro-0.0.0/snap-0")
    with pytest.raises(snap.SnapshotVersionError):
        snap.restore_replay(tampered)


def test_corrupt_payload_is_refused(blob):
    tampered = bytearray(blob)
    tampered[-1] ^= 0xFF
    with pytest.raises(snap.SnapshotIntegrityError):
        snap.restore_replay(bytes(tampered))


def test_truncated_blob_is_refused(blob):
    with pytest.raises(snap.SnapshotError):
        snap.restore_replay(blob[:6])


def test_foreign_magic_is_refused():
    with pytest.raises(snap.SnapshotError):
        snap.restore_replay(b"NOTASNAP" + b"\x00" * 32)


# the framing documented in repro.snap.format: magic, then
# (format version, tier, reserved, header length), header, payload
_HEAD = struct.Struct(">HBBI")


def _reframe(blob: bytes, edit=None, tier: int = snap.TIER_REPLAY) -> bytes:
    """Re-frame ``blob`` with ``edit(header) -> header bytes`` applied."""
    start = len(snap.MAGIC) + _HEAD.size
    head_len = _HEAD.unpack_from(blob, len(snap.MAGIC))[3]
    head = blob[start:start + head_len]
    if edit is not None:
        head = edit(json.loads(head))
    return b"".join([snap.MAGIC,
                     _HEAD.pack(snap.FORMAT_VERSION, tier, 0, len(head)),
                     head, blob[start + head_len:]])


def _meta_edit(**fields):
    def edit(header):
        for key, value in fields.items():
            if value is None:
                del header["meta"][key]
            else:
                header["meta"][key] = value
        return json.dumps(header).encode()
    return edit


def _flip_events_run_key(blob: bytes) -> bytes:
    """One flipped byte in the header's ``events_run`` key (no hash
    covers the header, so only the field check can notice)."""
    at = blob.index(b'"events_run"') + len(b'"events_ru')
    return blob[:at] + bytes([blob[at] ^ 0x01]) + blob[at + 1:]


_BAD_FIELDS = (snap.SnapshotIntegrityError, "event cursor and fingerprint")


@pytest.mark.parametrize("tamper,refusal", [
    (_flip_events_run_key, _BAD_FIELDS),
    (lambda b: _reframe(b, _meta_edit(events_run=None)), _BAD_FIELDS),
    (lambda b: _reframe(b, _meta_edit(events_run=str(_REPLAY_CURSOR))),
     _BAD_FIELDS),
    (lambda b: _reframe(b, _meta_edit(fingerprint=None)), _BAD_FIELDS),
    (lambda b: _reframe(b, _meta_edit(fingerprint=7)), _BAD_FIELDS),
    (lambda b: _reframe(b, lambda h: json.dumps({**h, "meta": []}).encode()),
     _BAD_FIELDS),
    (lambda b: _reframe(b, lambda h: b'["not", "an", "object"]'),
     (snap.SnapshotVersionError, "not an object")),
    (lambda b: _reframe(b, tier=1),
     (snap.SnapshotVersionError, "unknown snapshot tier")),
], ids=["events_run-key-flipped", "events_run-missing", "events_run-str",
        "fingerprint-missing", "fingerprint-int", "meta-not-object",
        "header-not-object", "foreign-tier"])
def test_malformed_header_is_refused(blob, tamper, refusal):
    assert _reframe(blob) == blob   # the helper frames exactly as encode
    error, match = refusal
    with pytest.raises(error, match=match):
        snap.restore_replay(tamper(blob))


# ---------------------------------------------------------------------------
# cross-process canonicality: hash-randomization independence
# ---------------------------------------------------------------------------

_HASHSEED_PROG = f"""\
from repro import snap
from repro.snap.recipe import canonical_dumps

session = snap.build_session("transfer", {_REPLAY_PARAMS!r})
session.run_events({_REPLAY_CURSOR})
replay = snap.checkpoint_replay(session)
# str hashing is seeded, so a plain pickle of this set is not canonical
tags = canonical_dumps({{"tags": {{"alpha", "beta", "gamma", "delta"}}}})
print(snap.blob_hash(replay), snap.blob_hash(tags))
"""


def _hashes_under(seed: str) -> str:
    env = dict(os.environ, PYTHONHASHSEED=seed)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(pathlib.Path(__file__).parent.parent / "src")]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    out = subprocess.run(
        [sys.executable, "-c", _HASHSEED_PROG],
        env=env, capture_output=True, text=True, check=True)
    return out.stdout.strip()


def test_blobs_independent_of_hash_randomization():
    """Replay blobs and canonical pickles hash identically across
    interpreters with different PYTHONHASHSEED values — set iteration
    order, dict randomization, and id() churn are all canonicalized
    away."""
    assert _hashes_under("1") == _hashes_under("42")
