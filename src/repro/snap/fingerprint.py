"""Reflective structural fingerprint of a live simulation.

:func:`fingerprint` walks an arbitrary object graph — dataclasses,
``__slots__`` classes, dicts, deques, sets, RNG streams, even
suspended generator frames — and folds every reachable value into
one SHA-256.  Two simulations with the same fingerprint are in the same
observable state for every encoding this repo defines (golden traces,
harvested metrics, reports), because all of those are derived from the
walked attributes.

The replay tier uses it as a *divergence detector*: after rebuilding a
session and re-running it to the captured event cursor, the restored
fingerprint must equal the captured one, or the genesis recipe no
longer reproduces the run (code drift, an unpinned iteration order, a
hidden wall-clock read) and restore refuses with
:class:`~repro.snap.format.SnapshotDivergenceError` rather than handing
back a silently different simulation.

Canonicalization rules (must stay in lockstep with ``state.py``):

- floats hash via their IEEE-754 big-endian bytes (``-0.0 != 0.0``,
  NaN is stable);
- dicts hash in insertion order — the kernel already guarantees
  deterministic insertion everywhere (that is what the equivalence
  suite proves), so order *is* state;
- sets/frozensets hash as their elements' digests, sorted, because set
  iteration order depends on PYTHONHASHSEED;
- ``random.Random`` hashes its full Mersenne state tuple;
- generators hash code identity + instruction pointer + locals — the
  value stack is invisible from Python, which is exactly why the replay
  tier re-executes instead of serializing frames;
- cycles and shared structure hash as a back-reference to the first
  visit's ordinal, so aliasing is part of the fingerprint too.
"""

from __future__ import annotations

import hashlib
import random
import struct
from collections import OrderedDict, deque

__all__ = ["fingerprint", "fingerprint_update"]

_F64 = struct.Struct(">d")
_I64 = struct.Struct(">q")


class _Hasher:
    """One fingerprint walk: a SHA-256 plus a first-visit memo."""

    def __init__(self) -> None:
        self.h = hashlib.sha256()
        # id(obj) -> ordinal of first visit; keepalive prevents CPython
        # from recycling an id mid-walk and aliasing two distinct objects
        self.memo: dict[int, int] = {}
        self.keepalive: list = []
        self.counter = 0

    def mix(self, *chunks: bytes) -> None:
        for c in chunks:
            self.h.update(c)

    def walk(self, obj) -> None:
        mix = self.mix
        if obj is None:
            mix(b"N")
            return
        t = type(obj)
        if t is bool:
            mix(b"b1" if obj else b"b0")
            return
        if t is int:
            mix(b"i", str(obj).encode())
            return
        if t is float:
            mix(b"f", _F64.pack(obj))
            return
        if t is str:
            raw = obj.encode("utf-8", "surrogatepass")
            mix(b"s", _I64.pack(len(raw)), raw)
            return
        if t is bytes or t is bytearray:
            mix(b"y", _I64.pack(len(obj)), bytes(obj))
            return

        # containers and everything object-like: cycle/aliasing guard
        oid = id(obj)
        seen = self.memo.get(oid)
        if seen is not None:
            mix(b"R", _I64.pack(seen))
            return
        self.counter += 1
        self.memo[oid] = self.counter
        self.keepalive.append(obj)

        if t is tuple or t is list:
            mix(b"T" if t is tuple else b"L", _I64.pack(len(obj)))
            for item in obj:
                self.walk(item)
            return
        if t is deque:
            mix(b"Q", _I64.pack(len(obj)))
            for item in obj:
                self.walk(item)
            return
        if t is dict or t is OrderedDict:
            mix(b"D", _I64.pack(len(obj)))
            for k, v in obj.items():
                self.walk(k)
                self.walk(v)
            return
        if t is set or t is frozenset:
            digests = []
            for item in obj:
                sub = _Hasher()
                sub.walk(item)
                digests.append(sub.h.digest())
            mix(b"S", _I64.pack(len(obj)), *sorted(digests))
            return
        if isinstance(obj, random.Random):
            mix(b"G")
            self.walk(obj.getstate())
            return
        if isinstance(obj, type):
            mix(b"C", f"{obj.__module__}.{obj.__qualname__}".encode())
            return

        # suspended generator: code identity + resume point + frame state
        if hasattr(obj, "gi_frame"):
            code = obj.gi_code
            mix(b"g", f"{code.co_filename.rsplit('/', 1)[-1]}:"
                      f"{getattr(code, 'co_qualname', code.co_name)}".encode())
            frame = obj.gi_frame
            if frame is None:  # finished generator
                mix(b"x")
            else:
                mix(_I64.pack(frame.f_lasti))
                self.walk(frame.f_locals)
            yf = getattr(obj, "gi_yieldfrom", None)
            if yf is not None:
                self.walk(yf)
            return

        # bound method: code identity + receiver state
        if hasattr(obj, "__func__") and hasattr(obj, "__self__"):
            func = obj.__func__
            mix(b"m", f"{func.__module__}.{func.__qualname__}".encode())
            self.walk(obj.__self__)
            return

        # plain function / lambda / closure: identity + captured cells
        if callable(obj) and hasattr(obj, "__code__"):
            mix(b"F", f"{obj.__module__}.{obj.__qualname__}".encode())
            for cell in obj.__closure__ or ():
                try:
                    contents = cell.cell_contents
                except ValueError:  # empty cell
                    mix(b"e")
                else:
                    self.walk(contents)
            return

        # enums hash by class + name (value covered by class identity)
        if hasattr(obj, "_name_") and hasattr(obj, "_value_"):
            mix(b"E", f"{t.__module__}.{t.__qualname__}"
                      f".{obj._name_}".encode())
            return

        # generic object: class identity + attribute dict and/or slots
        mix(b"O", f"{t.__module__}.{t.__qualname__}".encode())
        d = getattr(obj, "__dict__", None)
        if d is not None:
            mix(b"d", _I64.pack(len(d)))
            for k, v in d.items():
                self.walk(k)
                self.walk(v)
        slots = _all_slots(t)
        if slots:
            mix(b"t", _I64.pack(len(slots)))
            for name in slots:
                mix(name.encode())
                try:
                    self.walk(getattr(obj, name))
                except AttributeError:
                    mix(b"u")  # slot never assigned
        if d is None and not slots:
            # opaque leaf (e.g. a C-level object): fall back to repr so
            # at least type + printable state participate
            mix(b"r", repr(obj).encode())


def _all_slots(cls: type) -> tuple[str, ...]:
    names: list[str] = []
    for klass in cls.__mro__:
        slots = klass.__dict__.get("__slots__", ())
        if isinstance(slots, str):
            slots = (slots,)
        for s in slots:
            if s not in ("__dict__", "__weakref__") and s not in names:
                names.append(s)
    return tuple(names)


def fingerprint(obj) -> str:
    """SHA-256 hex digest of ``obj``'s reachable structural state."""
    hasher = _Hasher()
    hasher.walk(obj)
    return hasher.h.hexdigest()


def fingerprint_update(hasher: "hashlib._Hash", obj) -> None:
    """Fold ``obj``'s fingerprint into an existing hashlib hasher."""
    hasher.update(fingerprint(obj).encode())
