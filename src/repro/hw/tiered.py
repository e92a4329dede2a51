"""Two-tier (leaf/spine) fabrics: the cluster beyond one switch.

The paper's testbed is a single switch; real SAN deployments of the era
(and the scalability questions §3.1 raises) involve multi-switch
topologies where traffic crossing switches shares inter-switch links.
:class:`TieredFabric` wires groups of nodes to leaf switches joined by
one spine:

    node --- leaf switch ===(uplink)=== spine ===(uplink)=== leaf --- node

Intra-leaf traffic behaves exactly like the flat :class:`Fabric`;
inter-leaf traffic additionally serialises on the leaf↔spine links —
the shared resource that makes placement matter.  Leaf and spine
switches forward as callback chains, as the flat switch does (see
:mod:`repro.hw.network`): each dispatch from the arbiter's flush
schedules the switch latency as a timeout whose callback is the local
:class:`OutputPort` or the next channel's
:meth:`~repro.hw.link.Channel.launch`.
"""

from __future__ import annotations

import random

from ..sim import Simulator
from .link import Channel, Packet
from .network import (_CUT_THROUGH_SKEW, _SourceArbiter, HostParams,
                      NetworkParams, OutputPort)
from .node import Node

__all__ = ["TieredFabric"]


class _LeafSwitch:
    """Connects its local nodes; forwards the rest to the spine.

    Node-facing downlinks sit behind :class:`OutputPort` queues (the
    contention point when many senders converge on one node); the
    leaf→spine uplink is a plain full-rate channel whose line resource
    already queues — the shared-core model.
    """

    def __init__(self, sim: Simulator, params: NetworkParams, name: str) -> None:
        self.sim = sim
        self.params = params
        self.name = name
        self.local_down: dict[str, Channel] = {}
        self.local_ports: dict[str, OutputPort] = {}
        self.uplink: Channel | None = None     # to the spine
        self._arbiter = _SourceArbiter(sim, self._dispatch)
        self.forwarded_local = 0
        self.forwarded_up = 0

    def attach_local(self, node_name: str, downlink: Channel) -> None:
        self.local_down[node_name] = downlink
        self.local_ports[node_name] = OutputPort(
            self.sim, downlink, self.params,
            name=f"{node_name}.downport")

    def receive(self, packet: Packet) -> None:
        self._arbiter.submit(packet)

    def _dispatch(self, packet: Packet) -> None:
        # first chain step: the switch latency, then the local output
        # port or the spine uplink
        port = self.local_ports.get(packet.dst)
        if port is not None:
            self.forwarded_local += 1
            step = port.arrive
        else:
            self.forwarded_up += 1
            step = self.uplink.launch_event
        self.sim.timeout(self.params.switch_latency, packet).callbacks.append(
            step)


class _SpineSwitch:
    """Routes between leaves by destination node."""

    def __init__(self, sim: Simulator, params: NetworkParams) -> None:
        self.sim = sim
        self.params = params
        self.down_by_node: dict[str, Channel] = {}
        self._arbiter = _SourceArbiter(sim, self._dispatch)
        self.forwarded = 0

    def receive(self, packet: Packet) -> None:
        if packet.dst not in self.down_by_node:
            raise KeyError(f"spine has no route to {packet.dst!r}")
        self._arbiter.submit(packet)

    def _dispatch(self, packet: Packet) -> None:
        # first chain step: the switch latency, then the leaf's downlink
        self.forwarded += 1
        self.sim.timeout(self.params.switch_latency, packet).callbacks.append(
            self.down_by_node[packet.dst].launch_event)


class TieredFabric:
    """Leaf/spine topology with the flat-fabric node construction.

    ``leaf_groups`` is a tuple of node-name tuples, one per leaf switch.
    ``uplink_bandwidth`` (bytes/µs) sets the leaf↔spine capacity —
    defaults to the line rate, i.e. a 1:N oversubscribed core when a
    leaf hosts N nodes.
    """

    def __init__(
        self,
        sim: Simulator,
        network: NetworkParams,
        leaf_groups: tuple[tuple[str, ...], ...],
        host: HostParams = HostParams(),
        uplink_bandwidth: float | None = None,
        seed: int = 0,
    ) -> None:
        names = [n for group in leaf_groups for n in group]
        if len(set(names)) != len(names):
            raise ValueError("node names must be unique across leaves")
        if len(leaf_groups) < 2:
            raise ValueError("a tiered fabric needs at least two leaves")
        self.sim = sim
        self.network = network
        self.host = host
        self.nodes: dict[str, Node] = {}
        self.leaf_of: dict[str, int] = {}
        self.leaves: list[_LeafSwitch] = []
        self.spine = _SpineSwitch(sim, network)
        up_bw = uplink_bandwidth or network.bandwidth

        down_bw = network.bandwidth
        down_hdr = network.header_bytes
        down_ppc = network.per_packet_cost
        if not network.store_and_forward:
            # same cut-through discipline as the flat Fabric: the channel
            # charges only the forwarding skew, the OutputPort accounts
            # line-rate occupancy under contention
            down_bw *= _CUT_THROUGH_SKEW
            down_hdr = 0
            down_ppc = 0.0

        for li, group in enumerate(leaf_groups):
            leaf = _LeafSwitch(sim, network, f"leaf{li}")
            # leaf -> spine and spine -> leaf links: ALWAYS serialised at
            # the uplink rate (this is the shared core resource)
            up = Channel(sim, up_bw, network.prop_delay,
                         network.header_bytes, network.per_packet_cost,
                         name=f"leaf{li}.up")
            up.sink = self.spine.receive
            leaf.uplink = up
            spine_down = Channel(sim, up_bw, network.prop_delay,
                                 network.header_bytes,
                                 network.per_packet_cost,
                                 name=f"leaf{li}.spinedown")
            spine_down.sink = leaf.receive
            for ni, name in enumerate(group):
                node = Node(
                    sim, name,
                    mem_copy_bw=host.mem_copy_bw,
                    dma_bandwidth=host.dma_bandwidth,
                    dma_per_transfer_cost=host.dma_per_transfer_cost,
                    tlb_entries=host.tlb_entries,
                    page_size=host.page_size,
                )
                uplink = Channel(
                    sim, network.bandwidth, network.prop_delay,
                    network.header_bytes, network.per_packet_cost,
                    network.loss_rate,
                    rng=random.Random(seed * 1000 + li * 64 + ni),
                    name=f"{name}.up",
                )
                downlink = Channel(sim, down_bw, network.prop_delay,
                                   down_hdr, down_ppc, name=f"{name}.down")
                uplink.sink = leaf.receive
                downlink.sink = node.nic.deliver
                node.nic.port = uplink
                leaf.attach_local(name, downlink)
                self.spine.down_by_node[name] = spine_down
                self.nodes[name] = node
                self.leaf_of[name] = li
            self.leaves.append(leaf)

        # the spine's per-leaf downlink must route to the LEAF, which
        # then delivers locally; spine_down.sink is leaf.receive and the
        # leaf sees dst in local_down -> local delivery.  (Set above.)

    def node(self, name: str) -> Node:
        return self.nodes[name]

    @property
    def node_names(self) -> tuple[str, ...]:
        return tuple(self.nodes)

    def same_leaf(self, a: str, b: str) -> bool:
        return self.leaf_of[a] == self.leaf_of[b]

    def close(self) -> None:
        """Cut the back-links that close the fabric's reference cycles:
        every channel's (:meth:`~repro.hw.link.Channel.close`) and each
        arbiter's dispatch (see :meth:`repro.providers.Testbed.close`)."""
        self.spine._arbiter.dispatch = None
        for spine_down in self.spine.down_by_node.values():
            spine_down.close()
        for leaf in self.leaves:
            leaf._arbiter.dispatch = None
            leaf.uplink.close()
            for downlink in leaf.local_down.values():
                downlink.close()
        for node in self.nodes.values():
            node.nic.port.close()
