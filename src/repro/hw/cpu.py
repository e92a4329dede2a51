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

    The timed methods are process fragments: invoke them with ``yield
    from`` inside a simulation process.  :meth:`busy` and :meth:`copy`
    return ``()`` when they ran in place, and a generator to drive when
    the wait must queue.
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

    def _acquire_cpu(self) -> tuple[()] | Generator[Event, Any, None]:
        """Acquire the CPU for :meth:`spin_wait`, leaving no stale state
        when the waiting process is closed.

        A free CPU whose grant is provably the next event is taken in
        place (:meth:`Resource.advance_grant`): nothing to clean up, and
        the call returns ``()``.  Otherwise it returns the queued wait.
        """
        resource = self.cpu.resource
        if resource.advance_grant():
            return ()
        return self._request_cpu(resource)

    @staticmethod
    def _request_cpu(resource: Resource) -> Generator[Event, Any, None]:
        """The queued half of :meth:`_acquire_cpu`.

        A plain ``yield resource.request()`` would leave stale state
        when :meth:`Simulator.close` closes the waiting process: a
        dangling request granted to nobody, or a granted slot nobody
        releases.  On the way out this cancels a still-queued request,
        or releases a slot that was granted but whose grant event had
        not yet been delivered, so the CPU reads free afterwards.
        """
        req = resource.request()
        try:
            yield req
        except BaseException:
            if req.triggered:
                resource.release()
            else:
                req.cancel()
            raise

    def busy(self, duration: float,
             kind: str = "user") -> tuple[()] | Generator[Event, Any, None]:
        """Hold the CPU for ``duration`` µs of work.

        When the holder's wake-up is provably the next event
        (:meth:`Simulator.advance`, counting the hold's grant and its
        firing) the charge runs here and the call returns ``()``;
        otherwise it returns the queued hold.  Either way, call it as
        ``yield from actor.busy(d)``.
        """
        if duration < 0:
            raise ValueError(f"negative busy duration: {duration}")
        if duration == 0.0:
            return ()
        cpu = self.cpu
        sim = cpu.sim
        faults = sim.faults
        if faults is not None:
            duration = faults.cpu_time(cpu.name, duration)
        resource = cpu.resource
        # Resource.advance_hold + release inlined: a free slot taken and
        # given back within one call leaves the resource as it was
        if resource._in_use < resource.capacity and sim.advance(duration, 2):
            if kind == "user":
                self.rusage.utime += duration
            elif kind == "sys":
                self.rusage.stime += duration
            else:
                raise ValueError(f"unknown time kind {kind!r}")
            return ()
        return self._hold_cpu(resource, duration, kind)

    def _hold_cpu(self, resource: Resource, duration: float,
                  kind: str) -> Generator[Event, Any, None]:
        """The queued half of :meth:`busy`."""
        hold = resource.hold(duration)
        try:
            yield hold
        except BaseException:
            hold.abandon()
            raise
        resource.release()
        self.charge(duration, kind)

    def copy(self, nbytes: int,
             kind: str = "sys") -> tuple[()] | Generator[Event, Any, None]:
        """memcpy ``nbytes`` on the host (kernel staging copies are 'sys')."""
        return self.busy(self.cpu.copy_cost(nbytes), kind)

    def spin_wait(self, event: Event) -> Generator[Event, Any, Any]:
        """Poll for ``event`` while hogging the CPU (100 % utilisation).

        If ``event`` fails mid-spin, the exception propagates to the
        caller, but the CPU is still released and the time spent
        spinning up to the failure is still charged as user time.
        """
        yield from self._acquire_cpu()
        cpu = self.cpu
        sim = cpu.sim
        start = sim._now
        try:
            value = yield event
        finally:
            spun = sim._now - start
            self.charge(spun, "user")
            self.poll_time += spun
            metrics = sim.metrics
            if metrics is not None:
                metrics.observe(f"cpu.{self.name}.spin_us", spun)
            cpu.resource.release()
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
