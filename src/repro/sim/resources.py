"""Shared-resource primitives built on the event kernel.

These model contention points in the simulated hardware: a NIC
processing engine, a DMA bus, a wire's line and a host CPU are each a
:class:`Resource` with capacity 1, and the completion signal of a work
queue or a completion queue is a :class:`Signal`.
"""

from __future__ import annotations

from collections import deque
from heapq import heappush
from typing import Any, Generator

from .core import PENDING, Event, SimulationError, Simulator
from .core import _BUCKET_MIN_HEAP

__all__ = ["Resource", "Signal", "ResourceRequest", "ResourceHold"]


class ResourceRequest(Event):
    """Pending acquisition of a :class:`Resource` slot."""

    __slots__ = ("resource",)

    def __init__(self, resource: "Resource") -> None:
        # Inlined Event.__init__: requests are the hot allocation of
        # every contended-resource workload.
        sim = resource.sim
        self.sim = sim
        pool = sim._list_pool
        self.callbacks = pool.pop() if pool else []
        self._value = PENDING
        self._ok = True
        self._scheduled = False
        self._defused = False
        self.resource = resource

    def cancel(self) -> None:
        """Withdraw an un-granted request (no-op once granted)."""
        if not self.triggered:
            try:
                self.resource._queue.remove(self)
            except ValueError:  # pragma: no cover - defensive
                pass


class ResourceHold(Event):
    """A slot of a :class:`Resource` held for ``delay`` after its grant.

    The event fires ``delay`` after the FIFO grant; the holder then owns
    the slot and frees it with :meth:`Resource.release`.  The grant is a
    record on the simulator's immediate queue keyed ``(time, seq)``
    exactly like the grant event of a request (see "Timed-hold records"
    in :mod:`repro.sim.core`).  ``seq`` is 0 while the hold is queued.
    """

    __slots__ = ("resource", "delay", "time", "seq")

    def _fire(self) -> None:
        # The grant record: run from the immediate queue at (time, seq).
        if self.resource is None:       # abandoned before its grant fired
            return
        sim = self.sim
        # the grant stands in for the holder's resume, which would have
        # drawn the next seq for its timeout(delay)
        sim.ctx_switches += 1
        self._scheduled = True
        sim._seq = seq = sim._seq + 1
        when = sim._now + self.delay
        heap = sim._heap
        if len(heap) < _BUCKET_MIN_HEAP:
            heappush(heap, (when, seq, self))
        else:
            buckets = sim._buckets
            bucket = buckets.get(when)
            if bucket is None:
                buckets[when] = bucket = []
                heappush(heap, (when, seq, bucket))
            bucket.append((seq, self))

    def abandon(self) -> None:
        """Stop waiting: leave the queue if still queued, else free the slot.

        Call it when the waiter gives up at its ``yield`` (its process
        is closed, or an exception is thrown in).  A grant that has not
        fired yet then fires as a bare event; a hold already running
        fires with nobody waiting, like an orphaned timeout.
        """
        resource = self.resource
        if resource is None:
            return
        self.resource = None
        if self.seq:
            resource.release()
        else:
            resource._queue.remove(self)


_HOLD_NEW = ResourceHold.__new__


class Resource:
    """A FIFO multi-server resource (``capacity`` concurrent holders)."""

    def __init__(self, sim: Simulator, capacity: int = 1) -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.sim = sim
        self.capacity = capacity
        self._in_use = 0
        self._queue: deque[ResourceRequest | ResourceHold] = deque()

    @property
    def in_use(self) -> int:
        return self._in_use

    @property
    def queued(self) -> int:
        return len(self._queue)

    def _grant(self, req: ResourceRequest | ResourceHold) -> None:
        sim = self.sim
        sim._seq = seq = sim._seq + 1
        if req.__class__ is ResourceHold:
            req.time = sim._now
            req.seq = seq
            sim._immediate.append(req)
            return
        # Inlined req.succeed(self) at delay 0 / priority 0: a request
        # is granted at most once, so the already-triggered check of the
        # generic path cannot fire.
        req._scheduled = True
        req._value = self
        now = sim._now
        heap = sim._heap
        if len(heap) < _BUCKET_MIN_HEAP:
            heappush(heap, (now, seq, req))
        else:
            buckets = sim._buckets
            bucket = buckets.get(now)
            if bucket is None:
                buckets[now] = bucket = []
                heappush(heap, (now, seq, bucket))
            bucket.append((seq, req))

    def request(self) -> ResourceRequest:
        """Return an event that fires when a slot is granted."""
        req = ResourceRequest(self)
        if self._in_use < self.capacity:
            self._in_use += 1
            self._grant(req)
        else:
            self._queue.append(req)
        return req

    def hold(self, duration: float, value: Any = None) -> ResourceHold:
        """Return an event that fires with ``value`` ``duration`` after a
        slot is granted.

        The caller owns the slot once the event fires and must
        :meth:`release` it, as after :meth:`request`.  A waiter that can
        give up calls :meth:`ResourceHold.abandon` when its ``yield``
        raises (see :meth:`acquire`).  ``value`` passes state
        to a callback chain, as ``Simulator.timeout(delay, value)`` does.
        """
        if duration < 0:
            raise ValueError(f"negative hold duration: {duration}")
        # Inlined construction, as in Simulator.timeout: holds are the
        # hot allocation of every fixed-cost resource stage.
        sim = self.sim
        h = _HOLD_NEW(ResourceHold)
        h.sim = sim
        pool = sim._list_pool
        h.callbacks = pool.pop() if pool else []
        h._value = value
        h._ok = True
        h._scheduled = False
        h._defused = False
        h.resource = self
        h.delay = duration
        h.seq = 0
        if self._in_use < self.capacity:
            self._in_use += 1
            self._grant(h)
        else:
            self._queue.append(h)
        return h

    def advance_hold(self, duration: float) -> bool:
        """:meth:`hold` in place: take a free slot and hold it for
        ``duration`` without yielding, when the holder's wake-up is
        provably the next event (:meth:`Simulator.advance`, counting the
        grant and the firing).  On True the caller owns the slot and
        must :meth:`release` it; on False it yields :meth:`hold`."""
        if self._in_use < self.capacity and self.sim.advance(duration, 2):
            self._in_use += 1
            return True
        return False

    def advance_grant(self) -> bool:
        """:meth:`request` in place: take a free slot without yielding
        when its grant is provably the next event.  On True the caller
        owns the slot; on False it yields :meth:`request`."""
        if self._in_use < self.capacity and self.sim.advance(0.0):
            self._in_use += 1
            return True
        return False

    def release(self) -> None:
        """Free a slot; grants the oldest queued request, if any."""
        if self._in_use <= 0:
            raise SimulationError("release() without a matching request()")
        if self._queue:
            self._grant(self._queue.popleft())
        else:
            self._in_use -= 1

    def acquire(self, duration: float) -> Generator[Event, Any, None]:
        """Process fragment: hold a slot for ``duration``, then release it.

        A waiter closed at its ``yield`` (:meth:`Simulator.close`)
        leaves the queue, or frees the slot if it was already granted.
        """
        hold = self.hold(duration)
        try:
            yield hold
        except BaseException:
            hold.abandon()
            raise
        self.release()


class Signal:
    """A broadcast condition: ``wait()`` events all fire on ``fire()``.

    Unlike :class:`Event`, a Signal can fire repeatedly; each ``fire``
    releases everything currently waiting.
    """

    def __init__(self, sim: Simulator) -> None:
        self.sim = sim
        self._waiters: list[Event] = []
        self.fire_count = 0

    def wait(self) -> Event:
        ev = Event(self.sim)
        self._waiters.append(ev)
        return ev

    def fire(self, value: Any = None) -> int:
        """Release all current waiters; returns how many were released."""
        waiters, self._waiters = self._waiters, []
        self.fire_count += 1
        for ev in waiters:
            ev.succeed(value)
        return len(waiters)
