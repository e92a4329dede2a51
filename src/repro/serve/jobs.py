"""Job queue: bounded FIFO with per-client round-robin fairness.

A :class:`Job` is one submitted spec plus its whole observable life:
state machine (``queued -> running -> done|failed|cancelled``), an
append-only event log (what the SSE endpoint streams), and the result
payload once finished.  The :class:`JobQueue` holds queued jobs in one
FIFO *per client* and hands them out round-robin over clients, so one
client dumping a hundred sweeps cannot starve another's single cell —
within a client, submission order is preserved.

The queue's state is guarded by one lock + condition, which wakes the
runner threads blocked in :meth:`JobQueue.take` on submit, cancel,
drain and close.  Event-log appends have a condition of their own that
only the SSE streamers wait on, so a job's events never wake a runner.
"""

from __future__ import annotations

import itertools
import threading
import time
from collections import OrderedDict, deque

__all__ = ["Job", "JobQueue", "QueueFullError", "JOB_STATES"]

JOB_STATES = ("queued", "running", "done", "failed", "cancelled")


class QueueFullError(Exception):
    """The bounded queue is at capacity; the service answers 429."""


class Job:
    """One submitted experiment and its observable state."""

    _ids = itertools.count(1)

    def __init__(self, spec, client: str) -> None:
        self.id = f"job-{next(Job._ids):06d}"
        self.spec = spec
        self.client = client
        self.key = spec.result_key()
        self.state = "queued"
        self.cache_hit = False
        self.cells_total = 0
        self.cells_done = 0
        self.cell_cache_hits = 0
        self.result: str | None = None
        self.error: str | None = None
        self.submitted_at = time.time()
        self.finished_at: float | None = None
        self.cancel_requested = threading.Event()
        #: append-only; SSE streamers replay from index 0 so a late
        #: subscriber still sees every event exactly once
        self.events: list[dict] = []
        self._queue: "JobQueue | None" = None

    # -- events ------------------------------------------------------

    def emit(self, kind: str, **data) -> None:
        event = {"event": kind, "job": self.id, "seq": len(self.events)}
        event.update(data)
        q = self._queue
        if q is not None:
            with q._events:
                self.events.append(event)
                q._events.notify_all()
        else:
            self.events.append(event)

    # -- summaries ---------------------------------------------------

    @property
    def finished(self) -> bool:
        return self.state in ("done", "failed", "cancelled")

    def summary(self, queue_position: int | None = None) -> dict:
        out = {
            "id": self.id,
            "client": self.client,
            "kind": self.spec.kind,
            "label": self.spec.describe(),
            "key": self.key,
            "state": self.state,
            "cache_hit": self.cache_hit,
            "cells_total": self.cells_total,
            "cells_done": self.cells_done,
            "cell_cache_hits": self.cell_cache_hits,
            "error": self.error,
            "submitted_at": self.submitted_at,
            "finished_at": self.finished_at,
        }
        if queue_position is not None:
            out["queue_position"] = queue_position
        return out


class JobQueue:
    """Bounded multi-client FIFO with round-robin dispatch."""

    def __init__(self, capacity: int = 64) -> None:
        self.capacity = capacity
        self._cond = threading.Condition()
        #: notified on every event-log append; only wait_event waits
        self._events = threading.Condition()
        #: client -> FIFO of queued jobs; OrderedDict so the round-robin
        #: order over clients is first-submission order, deterministic
        self._queues: "OrderedDict[str, deque[Job]]" = OrderedDict()
        self._rr: deque[str] = deque()
        self._jobs: "OrderedDict[str, Job]" = OrderedDict()
        self._closed = False

    # -- submission --------------------------------------------------

    def submit(self, job: Job) -> int:
        """Enqueue; returns the job's queue position (0 = next out)."""
        with self._cond:
            if self._closed:
                raise QueueFullError("service is shutting down")
            if self.queued_count() >= self.capacity:
                raise QueueFullError(
                    f"queue is full ({self.capacity} jobs); retry later")
            job._queue = self
            self._jobs[job.id] = job
            q = self._queues.get(job.client)
            if q is None:
                q = self._queues[job.client] = deque()
                self._rr.append(job.client)
            q.append(job)
            position = self._position_locked(job)
            self._cond.notify_all()
        job.emit("queued", position=position)
        return position

    def register(self, job: Job) -> None:
        """Track a job that never queues (whole-spec cache hit)."""
        with self._cond:
            job._queue = self
            self._jobs[job.id] = job

    # -- dispatch ----------------------------------------------------

    def take(self, timeout: float | None = None) -> Job | None:
        """Next job, round-robin over clients; None on timeout/closed."""
        with self._cond:
            # monotonic: a wall-clock step must not end or stall a wait
            deadline = (None if timeout is None
                        else time.monotonic() + timeout)
            while True:
                job = self._pop_locked()
                if job is not None:
                    job.state = "running"
                    moved = self._positions_locked()
                    break
                if self._closed:
                    return None
                remaining = None if deadline is None \
                    else deadline - time.monotonic()
                if remaining is not None and remaining <= 0:
                    return None
                self._cond.wait(remaining if remaining is not None
                                else 0.5)
        job.emit("running")
        # everyone still queued just moved up; tell their streams
        for other, position in moved:
            other.emit("queue", position=position)
        return job

    def _pop_locked(self) -> Job | None:
        for _ in range(len(self._rr)):
            client = self._rr[0]
            self._rr.rotate(-1)
            q = self._queues.get(client)
            if q:
                return q.popleft()
        return None

    # -- introspection -----------------------------------------------

    def _positions_locked(self) -> list[tuple[Job, int]]:
        """(job, position) for every queued job, in dispatch order:
        round-robin over clients starting at the current rr head."""
        out = []
        queues = {c: list(q) for c, q in self._queues.items() if q}
        order = [c for c in self._rr if c in queues]
        depth = 0
        while queues:
            for client in list(order):
                q = queues.get(client)
                if not q:
                    queues.pop(client, None)
                    order.remove(client)
                    continue
                out.append((q.pop(0), len(out)))
            depth += 1
            if depth > self.capacity + 1:  # pragma: no cover - safety
                break
        return out

    def _position_locked(self, job: Job) -> int:
        for other, position in self._positions_locked():
            if other is job:
                return position
        return -1

    def position(self, job: Job) -> int:
        with self._cond:
            return self._position_locked(job)

    def queued_count(self) -> int:
        return sum(len(q) for q in self._queues.values())

    def get(self, job_id: str) -> Job | None:
        with self._cond:
            return self._jobs.get(job_id)

    def jobs(self) -> list[Job]:
        with self._cond:
            return list(self._jobs.values())

    def empty(self) -> bool:
        with self._cond:
            return self.queued_count() == 0

    # -- cancellation / shutdown -------------------------------------

    def cancel(self, job_id: str) -> bool:
        """Cancel a job: queued jobs are removed immediately; running
        jobs get their cancel flag set and stop between cells."""
        with self._cond:
            job = self._jobs.get(job_id)
            if job is None or job.finished:
                return False
            job.cancel_requested.set()
            q = self._queues.get(job.client)
            if job.state == "queued" and q is not None and job in q:
                q.remove(job)
                job.state = "cancelled"
                job.finished_at = time.time()
                moved = self._positions_locked()
                self._cond.notify_all()
            else:
                moved = []
        if job.state == "cancelled":
            job.emit("cancelled", where="queue")
            for other, position in moved:
                other.emit("queue", position=position)
        return True

    def drain_cancel(self) -> list[Job]:
        """Cancel every queued job (quick-quiesce shutdown)."""
        with self._cond:
            victims = [j for q in self._queues.values() for j in q]
            for q in self._queues.values():
                q.clear()
            for job in victims:
                job.state = "cancelled"
                job.finished_at = time.time()
                job.cancel_requested.set()
            self._cond.notify_all()
        for job in victims:
            job.emit("cancelled", where="shutdown")
        return victims

    def close(self) -> None:
        with self._cond:
            self._closed = True
            self._cond.notify_all()

    def wait_event(self, job: Job, have: int, timeout: float) -> bool:
        """Block until ``job`` has more than ``have`` events (or timeout);
        returns whether new events are available."""
        with self._events:
            if len(job.events) > have:
                return True
            self._events.wait(timeout)
            return len(job.events) > have
