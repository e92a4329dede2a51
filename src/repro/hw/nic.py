"""Network interface card model.

The NIC is the active component whose design choices the paper probes:

- a **translation cache** (software TLB on the NIC): Berkeley VIA keeps
  translation tables in host memory and caches entries on the LANai; a
  miss costs a DMA read of the table entry across the I/O bus.  The
  buffer-reuse benchmark (Fig. 5) measures exactly this cache.
- a **DMA engine** with finite bandwidth shared by all transfers across
  the I/O bus (descriptor fetches, data movement, table-entry fetches).
- **doorbells** — rung by the host; how expensive ringing is (MMIO
  store vs kernel trap) is a provider design choice, so the cost is
  charged host-side by the provider; the NIC side just gets notified.
- send/receive **engines** — single-threaded firmware loops, modelled
  as capacity-1 resources so message processing serialises on the NIC
  exactly as it does on a LANai.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Any, Callable, Generator, Hashable

from ..sim import Event, Resource, Simulator
from .link import Channel, Packet

__all__ = ["TranslationCache", "DMAEngine", "NIC"]


class TranslationCache:
    """LRU cache of virtual-page -> physical-frame entries on the NIC."""

    def __init__(self, entries: int) -> None:
        if entries < 1:
            raise ValueError("cache must have at least one entry")
        self.entries = entries
        self._cache: OrderedDict[Hashable, int] = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def __len__(self) -> int:
        return len(self._cache)

    def lookup(self, vpage: Hashable) -> int | None:
        """Return the cached frame and refresh LRU order, else None."""
        frame = self._cache.get(vpage)
        if frame is None:
            self.misses += 1
            return None
        self._cache.move_to_end(vpage)
        self.hits += 1
        return frame

    def insert(self, vpage: Hashable, frame: int) -> None:
        if vpage in self._cache:
            self._cache.move_to_end(vpage)
            self._cache[vpage] = frame
            return
        if len(self._cache) >= self.entries:
            self._cache.popitem(last=False)
            self.evictions += 1
        self._cache[vpage] = frame

    def invalidate(self, vpage: Hashable) -> None:
        self._cache.pop(vpage, None)

    def flush(self) -> None:
        self._cache.clear()

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0


class DMAEngine:
    """The NIC's I/O-bus mover: finite bandwidth, serialised transfers."""

    def __init__(
        self, sim: Simulator, bandwidth: float, per_transfer_cost: float = 0.0
    ) -> None:
        if bandwidth <= 0:
            raise ValueError("DMA bandwidth must be positive (bytes/us)")
        self.sim = sim
        self.bandwidth = bandwidth
        self.per_transfer_cost = per_transfer_cost
        self._bus = Resource(sim, capacity=1)
        #: virtual bus occupancy left behind by an arithmetic burst;
        #: event-path transfers arriving before this instant wait it out
        #: as if the bus resource had been held for real.  Stays 0.0 in
        #: pure packet mode (one float compare per transfer).
        self._ff_busy_until = 0.0
        self.transfers = 0
        self.bytes_moved = 0

    def transfer_time(self, nbytes: int) -> float:
        return self.per_transfer_cost + nbytes / self.bandwidth

    def transfer(self, nbytes: int) -> tuple[()] | Generator[Event, Any, None]:
        """Process fragment: move ``nbytes`` across the I/O bus.

        Call it as ``yield from dma.transfer(n)``.  When every wait is
        provably the next event (:meth:`Simulator.advance`) it runs in
        place and returns ``()``; otherwise it returns the queued rest.
        """
        if nbytes < 0:
            raise ValueError("negative DMA size")
        sim = self.sim
        busy = self._ff_busy_until
        if busy > 0.0:
            wait = busy - sim._now
            if wait > 0.0 and not sim.advance(wait):
                return self._transfer_queued(nbytes, wait)
        bus = self._bus
        # Resource.advance_hold + release and transfer_time inlined, as
        # in CpuActor.busy
        if (bus._in_use < bus.capacity and sim.advance(
                self.per_transfer_cost + nbytes / self.bandwidth, 2)):
            self.transfers += 1
            self.bytes_moved += nbytes
            return ()
        return self._transfer_queued(nbytes, 0.0)

    def _transfer_queued(self, nbytes: int,
                         wait: float) -> Generator[Event, Any, None]:
        """The queued rest of :meth:`transfer`: wait out a burst's bus
        occupancy (``wait`` > 0), then hold the bus."""
        bus = self._bus
        duration = self.transfer_time(nbytes)
        if wait > 0.0:
            yield self.sim.timeout(wait)
            in_place = bus.advance_hold(duration)
        else:
            in_place = False    # transfer() just found the hold must queue
        if not in_place:
            hold = bus.hold(duration)
            try:
                yield hold
            except BaseException:
                hold.abandon()
                raise
        bus.release()
        self.transfers += 1
        self.bytes_moved += nbytes

    def note_burst(self, n: int, nbytes: int, busy_until: float) -> None:
        """Commit an arithmetic burst of transfers: counters + occupancy."""
        self.transfers += n
        self.bytes_moved += nbytes
        if busy_until > self._ff_busy_until:
            self._ff_busy_until = busy_until


class NIC:
    """A programmable NIC: engines + TLB + DMA + a port to the fabric.

    The provider's protocol engine drives this object; the NIC itself is
    mechanism, not policy.  Incoming packets are handed to ``rx_handler``
    (set by the provider) as soon as they arrive off the wire.
    """

    def __init__(
        self,
        sim: Simulator,
        name: str,
        dma_bandwidth: float = 200.0,
        dma_per_transfer_cost: float = 0.2,
        tlb_entries: int = 64,
    ) -> None:
        self.sim = sim
        self.name = name
        self.send_engine = Resource(sim, capacity=1)
        self.recv_engine = Resource(sim, capacity=1)
        self.dma = DMAEngine(sim, dma_bandwidth, dma_per_transfer_cost)
        self.tlb = TranslationCache(tlb_entries)
        #: the uplink channel to the fabric (set when the fabric is built)
        self.port: Channel | None = None
        self.rx_handler: Callable[[Packet], None] | None = None
        self.tx_packets = 0
        self.rx_packets = 0
        self.doorbells = 0
        self.doorbells_dropped = 0
        self.rx_crc_drops = 0

    def ring_doorbell(self, droppable: bool = True) -> float | None:
        """Host-side notification that work was posted (cost is charged
        by the provider; the NIC only counts the ring).

        Returns ``None`` when the ring is delivered.  Under an armed
        ``doorbell_drop`` fault the ring may be lost: the call returns
        the recovery-scan delay (µs until the NIC's periodic scan would
        find the posted descriptor) for the caller to schedule around.
        ``droppable=False`` exempts rings whose loss has no NIC-visible
        effect (receive descriptors are discovered when data arrives).
        """
        if droppable:
            faults = self.sim.faults
            if faults is not None:
                delay = faults.doorbell_dropped(self.name)
                if delay is not None:
                    self.doorbells_dropped += 1
                    self.sim.trace("nic", "doorbell_dropped", self.name)
                    return delay
        self.doorbells += 1
        return None

    def transmit(self, packet: Packet) -> Generator[Event, Any, None]:
        """Process fragment: put one packet on the wire, returning once
        it has serialised (for callers that wait on that)."""
        if self.port is None:
            raise RuntimeError(f"NIC {self.name} is not attached to a fabric")
        self.tx_packets += 1
        yield from self.port.send(packet)

    def launch(self, packet: Packet) -> None:
        """Put one packet on the wire as a callback chain: no process,
        and nothing can wait on it.

        The chain starts at the key a ``transmit`` process would have
        booted at, so events order exactly as that process's did.
        """
        if self.port is None:
            raise RuntimeError(f"NIC {self.name} is not attached to a fabric")
        self.sim.call_soon(self._launch, packet)

    def _launch(self, packet: Packet) -> None:
        self.tx_packets += 1
        self.port.launch(packet)

    def note_tx_burst(self, n: int) -> None:
        """Account ``n`` transmitted packets from an arithmetic burst."""
        self.tx_packets += n

    def note_rx_burst(self, n: int) -> None:
        """Account ``n`` received packets from an arithmetic burst."""
        self.rx_packets += n

    def deliver(self, packet: Packet) -> None:
        """Called by the fabric when a packet arrives for this NIC."""
        self.rx_packets += 1
        if packet.corrupted:
            # the CRC check fails in NIC hardware: the frame is dropped
            # before any protocol processing; recovery (retransmission,
            # handshake retry) is the protocol engine's problem
            self.rx_crc_drops += 1
            self.sim.trace("nic", "crc_drop", self.name, pkt=packet.pkt_id)
            return
        if self.rx_handler is None:
            raise RuntimeError(
                f"NIC {self.name} received a packet but no rx_handler is set"
            )
        self.rx_handler(packet)
