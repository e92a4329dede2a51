"""Wire model: packets and unidirectional channels.

A :class:`Channel` models one direction of a physical link: packets are
*serialised* (the channel is held for ``header + size`` at line rate),
then *propagate* (fixed delay, pipelined — the channel frees as soon as
the last bit leaves, so back-to-back packets stream at line rate, which
is what makes the bandwidth benchmarks saturate correctly).

Loss injection (for the unreliable-delivery reliability level) drops a
packet after serialisation, exactly where a SAN would lose it.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Any, Callable, Generator

from ..sim import Event, Resource, Simulator
from ..sim.ids import id_space

__all__ = ["Packet", "Channel"]

_packet_ids = id_space("packet")


@dataclass
class Packet:
    """One wire packet (a fragment of a VIA message or a control frame).

    ``size`` is the payload byte count on the wire; header overhead is a
    channel property.  ``payload`` carries protocol metadata and real
    data bytes; the wire does not interpret it.
    """

    src: str
    dst: str
    kind: str
    size: int
    payload: Any = None
    pkt_id: int = field(default_factory=lambda: next(_packet_ids))
    #: set by an injected wire_corrupt fault; the receiving NIC's CRC
    #: check drops the packet before any protocol processing
    corrupted: bool = False

    def __post_init__(self) -> None:
        if self.size < 0:
            raise ValueError("packet size must be >= 0")


class Channel:
    """One direction of a link: serialise at line rate, then propagate."""

    def __init__(
        self,
        sim: Simulator,
        bandwidth: float,
        prop_delay: float,
        header_bytes: int = 0,
        per_packet_cost: float = 0.0,
        loss_rate: float = 0.0,
        rng: random.Random | None = None,
        name: str = "channel",
    ) -> None:
        if bandwidth <= 0:
            raise ValueError("bandwidth must be positive (bytes/us)")
        if prop_delay < 0 or per_packet_cost < 0:
            raise ValueError("delays must be >= 0")
        if not 0.0 <= loss_rate < 1.0:
            raise ValueError("loss_rate must be in [0, 1)")
        self.sim = sim
        self.bandwidth = bandwidth
        self.prop_delay = prop_delay
        self.header_bytes = header_bytes
        self.per_packet_cost = per_packet_cost
        self.loss_rate = loss_rate
        self.rng = rng or random.Random(0)
        self.name = name
        self.sink: Callable[[Packet], None] | None = None
        self._line = Resource(sim, capacity=1)
        #: virtual line occupancy left behind by an arithmetic burst:
        #: packet-level senders arriving before this instant wait it out
        #: (FIFO, by wait-start order), exactly as if the line resource
        #: had been held for real.  Stays 0.0 in pure packet mode.
        self._ff_busy_until = 0.0
        self.sent_packets = 0
        self.dropped_packets = 0
        self.delivered_packets = 0
        self.dup_packets = 0
        self.sent_bytes = 0

    @property
    def queue_depth(self) -> int:
        """Packets parked behind the line (the sender-side FIFO depth)."""
        return self._line.queued

    def serialization_time(self, packet: Packet) -> float:
        return self.per_packet_cost + (packet.size + self.header_bytes) / self.bandwidth

    def send(self, packet: Packet) -> Generator[Event, Any, None]:
        """Process fragment: occupy the line while the packet serialises.

        Returns once the last bit is on the wire; delivery to the sink
        happens ``prop_delay`` later without holding the line.  Used by
        callers that wait for serialisation (``NIC.transmit``); every
        other hop runs as the callback chain :meth:`launch`.
        """
        if self.sink is None:
            raise RuntimeError(f"{self.name}: no sink attached")
        # hot path: one locals load for the simulator, observers read
        # once — the armed-but-dormant path costs zero extra attribute
        # lookups per packet beyond the single _ff_busy_until compare
        sim = self.sim
        busy = self._ff_busy_until
        if busy > 0.0:
            wait = busy - sim._now
            if wait > 0.0:
                yield sim.timeout(wait)
        hold = self._line.hold(self.serialization_time(packet), packet)
        try:
            yield hold
        except BaseException:
            hold.abandon()
            raise
        self._serialized(hold)

    def launch(self, packet: Packet) -> None:
        """Serialise ``packet`` as a callback chain: no process, and
        nothing can wait on it.

        The steps draw sequence numbers in the order :meth:`send` does
        (the ``_ff_busy_until`` wait, the line hold's grant, the
        delivery timeout), so a chain started where a ``send`` process
        would have started orders every event exactly as the process
        did.
        """
        busy = self._ff_busy_until
        if busy > 0.0:
            wait = busy - self.sim._now
            if wait > 0.0:
                self.sim.timeout(wait, packet).callbacks.append(self._waited)
                return
        self._hold_line(packet)

    def launch_event(self, event: Event) -> None:
        """Timeout callback: :meth:`launch` the packet ``event`` carries."""
        self.launch(event._value)

    def _waited(self, event: Event) -> None:
        # the _ff_busy_until wait ended; like send(), do not re-check it
        self._hold_line(event._value)

    def _hold_line(self, packet: Packet) -> None:
        self._line.hold(self.serialization_time(packet),
                        packet).callbacks.append(self._serialized)

    def _serialized(self, hold: Event) -> None:
        """The line hold ended, for :meth:`send` and :meth:`launch`
        alike: release the line, count, trace, apply loss and faults,
        and schedule delivery."""
        packet = hold._value
        self._line.release()
        self.sent_packets += 1
        self.sent_bytes += packet.size
        sim = self.sim
        tracer = sim.tracer
        if tracer is not None:
            sim.trace("wire", "serialized", self.name, pkt=packet.pkt_id,
                      kind=packet.kind, size=packet.size)
        if self.loss_rate and self.rng.random() < self.loss_rate:
            self.dropped_packets += 1
            sim.trace("wire", "dropped", self.name, pkt=packet.pkt_id)
            return
        delay = self.prop_delay
        faults = sim.faults
        if faults is not None:
            fate, extra = faults.wire_fate(self, packet)
            if fate == "drop":
                self.dropped_packets += 1
                sim.trace("wire", "fault_dropped", self.name,
                          pkt=packet.pkt_id)
                return
            delay += extra
            if fate == "corrupt":
                packet.corrupted = True
                sim.trace("wire", "fault_corrupted", self.name,
                          pkt=packet.pkt_id)
            elif fate == "dup":
                # the duplicate trails the original by one frame time
                self.dup_packets += 1
                sim.trace("wire", "fault_duplicated", self.name,
                          pkt=packet.pkt_id)
                self._schedule_delivery(
                    packet, delay + self.serialization_time(packet))
        self._schedule_delivery(packet, delay)

    def _schedule_delivery(self, packet: Packet, delay: float) -> None:
        """Hand ``packet`` to the sink ``delay`` from now (the original
        and, under a ``dup`` fault, its trailing copy)."""
        deliver = self.sim.timeout(delay, packet)
        deliver.callbacks.append(self._deliver)

    def _deliver(self, event: Event) -> None:
        assert self.sink is not None
        self.delivered_packets += 1
        sim = self.sim
        if sim.tracer is not None:
            sim.trace("wire", "delivered", self.name,
                      pkt=event.value.pkt_id)
        self.sink(event.value)

    # -- burst (flow-level) path ------------------------------------------
    def note_burst(self, n: int, nbytes: int, busy_until: float) -> None:
        """Commit an arithmetic burst: bulk counters + virtual occupancy."""
        self.sent_packets += n
        self.sent_bytes += nbytes
        self.delivered_packets += n
        if busy_until > self._ff_busy_until:
            self._ff_busy_until = busy_until

    def close(self) -> None:
        """Drop the sink and the callback-chain steps queued on the
        line: both are bound methods that close reference cycles (see
        :meth:`repro.providers.Testbed.close`)."""
        self.sink = None
        self._line._queue.clear()
