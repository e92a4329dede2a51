"""Deterministic, resettable id allocation for model objects.

Packets, VIs, CQs, connections, descriptors and memory handles all
carry small integer ids.  The ids are scoped per testbed — no lookup
ever crosses a testbed boundary — but allocating them from one
process-global counter per kind is convenient, so that is what the
model modules do.  Historically each module kept a private
``itertools.count`` and anything needing reproducible ids (golden
traces, ``--jobs`` fan-out) reassigned all seven module attributes by
hand, which was fragile and invisible to new id kinds.

:class:`IdSpace` replaces the raw counters with named, registered
allocators that keep the ``next(...)`` call-site idiom but can be
*reset* as a group.  The canonical programs (:mod:`repro.programs`)
and the chaos cells start from :func:`reset_ids`, so a rebuilt run
allocates the same ids in the same order as the original — making runs
byte-identical across fresh processes regardless of ``PYTHONHASHSEED``
or whatever earlier simulations left behind.
"""

from __future__ import annotations

__all__ = ["IdSpace", "id_space", "reset_ids"]

#: every allocator ever created, by name (insertion order is stable
#: because registration happens at module import time)
_SPACES: dict[str, "IdSpace"] = {}


class IdSpace:
    """A named integer allocator supporting ``next()`` and exact reset."""

    __slots__ = ("name", "next_value")

    def __init__(self, name: str, start: int = 1) -> None:
        self.name = name
        self.next_value = start

    def __next__(self) -> int:
        value = self.next_value
        self.next_value = value + 1
        return value

    def __iter__(self) -> "IdSpace":
        return self

    def reset(self, start: int = 1) -> None:
        """Rewind (or fast-forward) the allocator to ``start``."""
        self.next_value = start

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"IdSpace({self.name!r}, next={self.next_value})"


def id_space(name: str, start: int = 1) -> IdSpace:
    """Get-or-create the named allocator (idempotent across imports)."""
    space = _SPACES.get(name)
    if space is None:
        space = _SPACES[name] = IdSpace(name, start)
    return space


def reset_ids() -> None:
    """Restart every registered allocator at 1 (canonical-run helper)."""
    for space in _SPACES.values():
        space.reset()
