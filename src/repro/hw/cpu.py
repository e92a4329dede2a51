"""Host CPU model with rusage-style accounting.

The paper measures CPU utilisation with ``getrusage`` — user plus system
time over wall time.  This model reproduces that split:

- every explicit cost (posting a descriptor, a kernel trap, a memory
  copy) is charged as *user* or *system* busy time to an actor;
- **polling** a completion is a spin-wait: the actor holds the CPU and
  is charged busy time for the whole wait (hence the paper's 100 %
  polling utilisation);
- **blocking** releases the CPU; on completion an interrupt/wakeup cost
  is charged as system time (hence blocking's latency penalty and low
  utilisation).

One :class:`HostCPU` per node arbitrates between actors with a FIFO
resource, so co-located benchmark processes contend realistically.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Generator

from ..sim import Event, Resource, Simulator

__all__ = ["Rusage", "HostCPU", "CpuActor"]


@dataclass
class Rusage:
    """Accumulated user/system time in microseconds (getrusage analog)."""

    utime: float = 0.0
    stime: float = 0.0

    @property
    def total(self) -> float:
        return self.utime + self.stime

    def copy(self) -> "Rusage":
        return Rusage(self.utime, self.stime)

    def __sub__(self, other: "Rusage") -> "Rusage":
        return Rusage(self.utime - other.utime, self.stime - other.stime)


class HostCPU:
    """A single host processor shared by the node's actors."""

    def __init__(
        self, sim: Simulator, mem_copy_bw: float = 180.0, name: str = "host"
    ) -> None:
        """``mem_copy_bw`` is memcpy throughput in bytes/µs (MB/s);
        ~180 MB/s is typical of the paper's Pentium-II era hosts.
        ``name`` identifies the CPU to the fault injector (the owning
        node's name)."""
        if mem_copy_bw <= 0:
            raise ValueError("mem_copy_bw must be positive")
        self.sim = sim
        self.name = name
        self.mem_copy_bw = mem_copy_bw
        self.resource = Resource(sim, capacity=1)
        self._actors: dict[str, CpuActor] = {}

    def actor(self, name: str) -> "CpuActor":
        """Get-or-create the named actor (e.g. one per benchmark process)."""
        actor = self._actors.get(name)
        if actor is None:
            actor = CpuActor(self, name)
            self._actors[name] = actor
        return actor

    def copy_cost(self, nbytes: int) -> float:
        """Time for the host to memcpy ``nbytes``."""
        return nbytes / self.mem_copy_bw


class CpuActor:
    """An execution context (process/thread) on a :class:`HostCPU`.

    All methods returning generators are process fragments: invoke them
    with ``yield from`` inside a simulation process.
    """

    def __init__(self, cpu: HostCPU, name: str) -> None:
        self.cpu = cpu
        self.name = name
        self.rusage = Rusage()
        #: user time spent spin-waiting (a subset of ``rusage.utime``)
        self.poll_time = 0.0

    @property
    def sim(self) -> Simulator:
        return self.cpu.sim

    def charge(self, duration: float, kind: str = "user") -> None:
        """Account busy time without consuming simulated time.

        Used when the surrounding code already advanced the clock (e.g.
        spin waits) or for zero-duration bookkeeping.
        """
        if duration < 0:
            raise ValueError(f"negative charge: {duration}")
        if kind == "user":
            self.rusage.utime += duration
        elif kind == "sys":
            self.rusage.stime += duration
        else:
            raise ValueError(f"unknown time kind {kind!r}")

    def _acquire_cpu(self) -> Generator[Event, Any, None]:
        """Acquire the CPU for :meth:`spin_wait`, leaving no stale state
        on interruption.

        A plain ``yield resource.request()`` is unsafe: if the waiting
        process is interrupted (or the request fails) while still
        queued, the dangling request would later be granted to nobody
        and the CPU slot would leak forever.  On failure this cancels a
        still-queued request, or releases a slot that was granted but
        whose grant-event had not yet been delivered.  A free CPU whose
        grant is provably the next event is taken in place
        (:meth:`Resource.advance_grant`), with nothing to clean up.
        """
        resource = self.cpu.resource
        if resource.advance_grant():
            return
        req = resource.request()
        try:
            yield req
        except BaseException:
            if req.triggered:
                resource.release()
            else:
                req.cancel()
            raise

    def busy(self, duration: float, kind: str = "user") -> Generator[Event, Any, None]:
        """Hold the CPU for ``duration`` µs of work."""
        if duration < 0:
            raise ValueError(f"negative busy duration: {duration}")
        if duration == 0.0:
            return
        faults = self.sim.faults
        if faults is not None:
            duration = faults.cpu_time(self.cpu.name, duration)
        # inlined Resource.acquire: a generator per call costs time and
        # peak memory on the hottest resource of every run
        resource = self.cpu.resource
        if not resource.advance_hold(duration):
            hold = resource.hold(duration)
            try:
                yield hold
            except BaseException:
                hold.abandon()
                raise
        resource.release()
        self.charge(duration, kind)

    def copy(self, nbytes: int, kind: str = "sys") -> Generator[Event, Any, None]:
        """memcpy ``nbytes`` on the host (kernel staging copies are 'sys')."""
        yield from self.busy(self.cpu.copy_cost(nbytes), kind)

    def spin_wait(self, event: Event) -> Generator[Event, Any, Any]:
        """Poll for ``event`` while hogging the CPU (100 % utilisation).

        If ``event`` fails mid-spin, the exception propagates to the
        caller, but the CPU is still released and the time spent
        spinning up to the failure is still charged as user time.
        """
        yield from self._acquire_cpu()
        start = self.sim.now
        try:
            value = yield event
        finally:
            spun = self.sim.now - start
            self.charge(spun, "user")
            self.poll_time += spun
            metrics = self.sim.metrics
            if metrics is not None:
                metrics.observe(f"cpu.{self.name}.spin_us", spun)
            self.cpu.resource.release()
        return value

    def block_wait(
        self, event: Event, wakeup_cost: float, delay: float = 0.0
    ) -> Generator[Event, Any, Any]:
        """Sleep until ``event``; pay interrupt costs on resume.

        The wait itself is idle (not charged).  ``delay`` is uncharged
        interrupt latency; ``wakeup_cost`` is handler/scheduler time,
        charged as system time.  Together they are the blocking latency
        penalty the paper shows in Fig. 4.
        """
        value = yield event
        if delay:
            sim = self.sim
            if not sim.advance(delay):
                yield sim.timeout(delay)
        yield from self.busy(wakeup_cost, "sys")
        return value

    def snapshot(self) -> Rusage:
        return self.rusage.copy()
