"""Harvest a finished testbed's counters into a metrics registry.

The hardware and provider models already keep cheap always-on counters
(TLB hits, DMA bytes, wire packets, work-queue totals, ...).  This
module walks a :class:`~repro.providers.registry.Testbed` after a run
and publishes them under canonical dotted names, so exporting metrics
costs nothing during simulation — the registry is materialised once,
at the end.

Naming scheme (sorted output, stable across runs)::

    sim.events_run                    kernel-level totals
    sim.ff.decline.single_fragment    fast-forward fallbacks, by reason
    cpu.<node>.<actor>.utime_us       per-actor rusage split
    nic.<node>.dma.bytes              NIC subsystems
    via.<node>.send.completed         VIA descriptor/CQ path
    wire.<node>.up.packets            one channel per direction
    wire.switch.forwarded

Everything is read-only: harvesting twice into two registries yields
identical snapshots.
"""

from __future__ import annotations

from .metrics import MetricsRegistry

__all__ = ["harvest_testbed", "harvest_into"]


def harvest_testbed(tb) -> MetricsRegistry:
    """Build a fresh registry from a (finished) testbed."""
    registry = MetricsRegistry()
    harvest_into(registry, tb)
    return registry


def harvest_into(registry: MetricsRegistry, tb) -> MetricsRegistry:
    """Publish a testbed's model counters into ``registry``."""
    sim = tb.sim
    registry.set_gauge("sim.now_us", sim.now)
    registry.inc("sim.events_run", sim.events_run)
    registry.inc("sim.ctx_switches", sim.ctx_switches)
    # fast-forward accounting, only-when-nonzero: packet-mode harvests
    # stay byte-identical to the pre-fast-forward goldens
    if sim.ff_bursts:
        registry.set_gauge("sim.ff_time_us", sim.ff_time)
        registry.inc("sim.ff_events_skipped", sim.ff_events_skipped)
        registry.inc("sim.ff_bursts", sim.ff_bursts)
    for reason, count in sorted(sim.ff_declines.items()):
        registry.inc(f"sim.ff.decline.{reason}", count)

    for name in tb.node_names:
        node = tb.fabric.node(name)
        _harvest_cpu(registry, name, node.cpu)
        _harvest_nic(registry, name, node.nic)

    for name, provider in sorted(tb.providers.items()):
        _harvest_via(registry, name, provider)

    injector = getattr(tb, "injector", None)
    if injector is not None and injector.armed:
        for kind, fired in sorted(injector.counters.items()):
            registry.inc(f"faults.{kind}.injected", fired)

    switch = getattr(tb.fabric, "switch", None)
    if switch is not None:
        registry.inc("wire.switch.forwarded", switch.forwarded)
        for name in tb.node_names:
            node = tb.fabric.node(name)
            up = node.nic.port
            if up is not None:
                _harvest_channel(registry, f"wire.{name}.up", up)
            down = switch._downlinks.get(name)
            if down is not None:
                _harvest_channel(registry, f"wire.{name}.down", down)
            port = switch._ports.get(name)
            if port is not None:
                _harvest_port(registry, f"wire.{name}.port", port)
    return registry


def _harvest_cpu(registry: MetricsRegistry, node: str, cpu) -> None:
    for actor_name, actor in sorted(cpu._actors.items()):
        prefix = f"cpu.{node}.{actor_name}"
        registry.set_gauge(f"{prefix}.utime_us", actor.rusage.utime)
        registry.set_gauge(f"{prefix}.stime_us", actor.rusage.stime)
        registry.set_gauge(f"{prefix}.poll_us", actor.poll_time)


def _harvest_nic(registry: MetricsRegistry, node: str, nic) -> None:
    prefix = f"nic.{node}"
    registry.inc(f"{prefix}.tx_packets", nic.tx_packets)
    registry.inc(f"{prefix}.rx_packets", nic.rx_packets)
    registry.inc(f"{prefix}.doorbells", nic.doorbells)
    registry.inc(f"{prefix}.dma.transfers", nic.dma.transfers)
    registry.inc(f"{prefix}.dma.bytes", nic.dma.bytes_moved)
    registry.inc(f"{prefix}.tlb.hits", nic.tlb.hits)
    registry.inc(f"{prefix}.tlb.misses", nic.tlb.misses)
    registry.inc(f"{prefix}.tlb.evictions", nic.tlb.evictions)
    registry.set_gauge(f"{prefix}.tlb.hit_rate", nic.tlb.hit_rate)
    # fault-path counters: published only when they fired so that
    # fault-free harvests stay byte-identical to the pre-fault goldens
    if nic.doorbells_dropped:
        registry.inc(f"{prefix}.doorbells_dropped", nic.doorbells_dropped)
    if nic.rx_crc_drops:
        registry.inc(f"{prefix}.rx_crc_drops", nic.rx_crc_drops)


def _harvest_via(registry: MetricsRegistry, node: str, provider) -> None:
    prefix = f"via.{node}"
    engine = provider.engine
    registry.inc(f"{prefix}.messages_sent", engine.messages_sent)
    registry.inc(f"{prefix}.messages_received", engine.messages_received)
    registry.inc(f"{prefix}.retransmissions", engine.retransmissions)
    registry.inc(f"{prefix}.naks_sent", engine.naks_sent)
    registry.inc(f"{prefix}.drops", engine.drops)
    # recovery-path counters, only-when-nonzero (see _harvest_nic)
    if engine.dma_aborts:
        registry.inc(f"{prefix}.dma_aborts", engine.dma_aborts)
    if provider.conn_retransmissions:
        registry.inc(f"{prefix}.conn_retransmissions",
                     provider.conn_retransmissions)
    if provider.vi_errors:
        registry.inc(f"{prefix}.vi_errors", provider.vi_errors)
    if provider.recoveries:
        registry.inc(f"{prefix}.recoveries", provider.recoveries)
    if provider.conn_rejects:
        registry.inc(f"{prefix}.conn_rejects", provider.conn_rejects)
    posted = {"send": 0, "recv": 0}
    completed = {"send": 0, "recv": 0}
    for vi in provider.vis.values():
        for wq in (vi.send_q, vi.recv_q):
            posted[wq.kind] += wq.total_posted
            completed[wq.kind] += wq.total_completed
    for kind in ("send", "recv"):
        registry.inc(f"{prefix}.{kind}.posted", posted[kind])
        registry.inc(f"{prefix}.{kind}.completed", completed[kind])
    notifications = 0
    max_depth = 0
    for cq in provider.cqs:
        notifications += cq.total_notifications
        if cq.max_depth > max_depth:
            max_depth = cq.max_depth
    registry.inc(f"{prefix}.cq.notifications", notifications)
    registry.set_gauge(f"{prefix}.cq.max_depth", max_depth)


def _harvest_port(registry: MetricsRegistry, prefix: str, port) -> None:
    # contention counters, only-when-nonzero (see _harvest_nic): an
    # uncontended run's snapshot stays byte-identical to the pre-port era
    if port.contended:
        registry.inc(f"{prefix}.contended", port.contended)
        registry.set_gauge(f"{prefix}.max_backlog_us", port.max_backlog_us)
    if port.backpressured:
        registry.inc(f"{prefix}.backpressured", port.backpressured)
    if port.drops:
        registry.inc(f"{prefix}.drops", port.drops)


def _harvest_channel(registry: MetricsRegistry, prefix: str, channel) -> None:
    registry.inc(f"{prefix}.packets", channel.sent_packets)
    registry.inc(f"{prefix}.bytes", channel.sent_bytes)
    registry.inc(f"{prefix}.drops", channel.dropped_packets)
    registry.inc(f"{prefix}.delivered", channel.delivered_packets)
    if channel.dup_packets:
        registry.inc(f"{prefix}.duplicated", channel.dup_packets)
