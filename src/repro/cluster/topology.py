"""Cluster topologies: how N nodes and their switches are wired.

A :class:`Topology` is a pure description — node names split into
server and client roles plus the switch layout — that
:func:`build_testbed` turns into a live
:class:`~repro.providers.registry.Testbed`:

* ``star``: every node on one switch (the flat :class:`Fabric`).
  Contention appears at the server's switch output port.
* ``dumbbell``: servers on one leaf switch, clients on the other,
  joined through the spine by line-rate inter-switch links — the
  classic shared-bottleneck shape.
* ``fattree``: a two-level leaf/spine fabric with nodes spread
  round-robin over several leaves and full-bisection uplinks
  (``nodes_per_leaf`` x line rate), so only the node ports contend.

Store-and-forward fabrics with more than two nodes can tail-drop at a
contended output port, so :func:`build_testbed` relies on the
:class:`Testbed` default that arms the providers' loss-recovery
machinery for such topologies.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..providers.registry import Testbed, get_spec

__all__ = ["Topology", "TOPOLOGY_KINDS", "make_topology", "build_testbed"]

TOPOLOGY_KINDS = ("star", "dumbbell", "fattree")

#: leaves in a fat-tree: enough to spread load, few enough that small
#: clusters keep >= 2 nodes per leaf
_FATTREE_LEAVES = 4


@dataclass(frozen=True)
class Topology:
    """An N-node cluster layout (pure data, picklable)."""

    kind: str
    servers: tuple[str, ...]
    clients: tuple[str, ...]
    #: one tuple of node names per leaf switch; None = flat single switch
    leaf_groups: tuple[tuple[str, ...], ...] | None = None
    #: leaf<->spine capacity as a multiple of the line rate; None = 1x
    uplink_factor: float | None = None

    @property
    def nodes(self) -> tuple[str, ...]:
        return self.servers + self.clients

    @property
    def n_nodes(self) -> int:
        return len(self.servers) + len(self.clients)


def make_topology(kind: str, nodes: int, servers: int = 1) -> Topology:
    """Build the named topology over ``nodes`` total nodes.

    The first ``servers`` nodes are servers (``s0``, ``s1``, ...), the
    rest are client nodes (``c0``, ``c1``, ...).
    """
    if kind not in TOPOLOGY_KINDS:
        raise ValueError(
            f"unknown topology {kind!r}; known: {TOPOLOGY_KINDS}")
    if servers < 1:
        raise ValueError("need at least one server node")
    if nodes < servers + 1:
        raise ValueError(
            f"need at least {servers + 1} nodes for {servers} server(s) "
            "plus one client node")
    server_names = tuple(f"s{i}" for i in range(servers))
    client_names = tuple(f"c{i}" for i in range(nodes - servers))

    if kind == "star":
        return Topology(kind, server_names, client_names)

    if kind == "dumbbell":
        # servers on one leaf, clients on the other; the line-rate
        # inter-switch path is the shared bottleneck
        return Topology(kind, server_names, client_names,
                        leaf_groups=(server_names, client_names),
                        uplink_factor=1.0)

    # fattree: round-robin all nodes over the leaves, full bisection
    leaves = min(_FATTREE_LEAVES, nodes // 2)
    if leaves < 2:
        leaves = 2
    groups: list[list[str]] = [[] for _ in range(leaves)]
    for i, name in enumerate(server_names + client_names):
        groups[i % leaves].append(name)
    per_leaf = max(len(g) for g in groups)
    return Topology(kind, server_names, client_names,
                    leaf_groups=tuple(tuple(g) for g in groups),
                    uplink_factor=float(per_leaf))


def build_testbed(provider: str, topo: Topology, seed: int = 0,
                  check: bool = False, fidelity: str = "packet") -> Testbed:
    """Stand up a live testbed wired as ``topo``."""
    if topo.leaf_groups is None:
        return Testbed(provider, node_names=topo.nodes, seed=seed,
                       check=check, fidelity=fidelity)
    spec = get_spec(provider)
    uplink_bw = spec.network.bandwidth * (topo.uplink_factor or 1.0)
    return Testbed(provider, seed=seed, leaf_groups=topo.leaf_groups,
                   uplink_bandwidth=uplink_bw, check=check,
                   fidelity=fidelity)
