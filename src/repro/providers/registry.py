"""Provider registry and testbed construction.

A :class:`Testbed` is the unit every benchmark and example runs
against: a fresh simulator, a fabric with the provider's native network
preset, and one provider stack per node.  Everything is assembled from
a :class:`ProviderSpec`, so ablation studies can clone a spec and flip
a single design choice (see ``benchmarks/bench_ablation_design.py``).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from ..hw.network import GIGANET, GIGE, MYRINET, Fabric, HostParams, NetworkParams
from ..sim import Simulator
from ..via.nameservice import NameService
from ..via.provider import NicHandle
from .base import SimulatedProvider
from .bvia import BVIA_CHOICES, BVIA_COSTS
from .clan import CLAN_CHOICES, CLAN_COSTS
from .costs import CostModel, DesignChoices
from .iba import IBA_1X, IBA_CHOICES, IBA_COSTS
from .mvia import MVIA_CHOICES, MVIA_COSTS

__all__ = ["ProviderSpec", "PROVIDERS", "ALL_PROVIDERS", "Testbed",
           "get_spec"]


@dataclass(frozen=True)
class ProviderSpec:
    """Everything needed to stand up one VIA implementation."""

    name: str
    network: NetworkParams
    choices: DesignChoices
    costs: CostModel
    host: HostParams = field(default_factory=HostParams)

    def with_choices(self, **kwargs) -> "ProviderSpec":
        return replace(self, choices=replace(self.choices, **kwargs))

    def with_costs(self, **kwargs) -> "ProviderSpec":
        return replace(self, costs=replace(self.costs, **kwargs))

    def with_network(self, network: NetworkParams) -> "ProviderSpec":
        return replace(self, network=network)


PROVIDERS: dict[str, ProviderSpec] = {
    "mvia": ProviderSpec("mvia", GIGE, MVIA_CHOICES, MVIA_COSTS),
    "bvia": ProviderSpec("bvia", MYRINET, BVIA_CHOICES, BVIA_COSTS),
    "clan": ProviderSpec("clan", GIGANET, CLAN_CHOICES, CLAN_COSTS),
    # the paper's future-work target (§5): an InfiniBand-style stack
    "iba": ProviderSpec("iba", IBA_1X, IBA_CHOICES, IBA_COSTS),
}

#: every built-in provider's name, in registry order
ALL_PROVIDERS = tuple(PROVIDERS)


def get_spec(name_or_spec: "str | ProviderSpec") -> ProviderSpec:
    if isinstance(name_or_spec, ProviderSpec):
        return name_or_spec
    try:
        return PROVIDERS[name_or_spec]
    except KeyError:
        raise KeyError(
            f"unknown provider {name_or_spec!r}; "
            f"known: {sorted(PROVIDERS)}"
        ) from None


class Testbed:
    """A fresh simulated cluster running one VIA implementation.

    >>> tb = Testbed("clan")
    >>> h0 = tb.open("node0", "client")
    >>> h1 = tb.open("node1", "server")

    Applications are simulation processes started with
    ``tb.spawn(generator)`` and driven by ``tb.run()``.

    Lifecycle: build, spawn, run, read the results, then :meth:`close`.
    A testbed is a web of reference cycles, which ``close`` cuts so
    that dropping the last reference frees it by reference counting
    instead of leaving it for the cyclic collector.  It first runs
    :meth:`Simulator.close <repro.sim.Simulator.close>` (live
    processes' generators are closed, so their ``finally`` blocks run
    now, and the queues and pools are emptied), then cuts, directly:

    - every channel's sink and the chain steps queued on its line, and
      each switch arbiter's dispatch (the fabric's ``close``);
    - each NIC's ``rx_handler`` (a bound method of its engine);
    - each NIC engine's link to its provider, and its kept burst
      routes (which name the peer's engine);
    - each CPU actor's link to its CPU;
    - each completion queue's unreaped entries, which name their work
      queues;
    - the fault injector's link to the testbed.

    A VI's work queues hold its id, not the VI, so VIs need no cut,
    destroyed ones included.  A closed testbed still answers everything
    :func:`repro.obs.harvest_testbed` reads (the simulator's totals and
    every model counter; a ``finally`` block that ran at close may have
    added to them, as it would have when the collector reached it), but
    it cannot run again.
    """

    def __init__(
        self,
        provider: "str | ProviderSpec",
        node_names: tuple[str, ...] = ("node0", "node1"),
        seed: int = 0,
        loss_rate: float | None = None,
        mtu: int | None = None,
        leaf_groups: tuple[tuple[str, ...], ...] | None = None,
        uplink_bandwidth: float | None = None,
        check: bool = False,
        faults=None,
        loss_possible: bool | None = None,
        fidelity: str = "packet",
    ) -> None:
        spec = get_spec(provider)
        network = spec.network
        if loss_rate is not None:
            network = network.with_loss(loss_rate)
        if mtu is not None:
            network = network.with_mtu(mtu)
        if fidelity not in ("packet", "auto", "flow"):
            raise ValueError(
                f"fidelity must be packet/auto/flow, got {fidelity!r}")
        self.spec = spec
        self.sim = Simulator()
        self.sim.fidelity = fidelity
        if leaf_groups is not None:
            from ..hw.tiered import TieredFabric

            node_names = tuple(n for g in leaf_groups for n in g)
            self.fabric = TieredFabric(self.sim, network, leaf_groups,
                                       host=spec.host,
                                       uplink_bandwidth=uplink_bandwidth,
                                       seed=seed)
        else:
            self.fabric = Fabric(self.sim, network, node_names,
                                 host=spec.host, seed=seed)
        self.nameservice = NameService()
        self.providers: dict[str, SimulatedProvider] = {}
        effective_mtu = min(network.mtu, spec.costs.max_transfer_size)
        if loss_possible is None:
            # store-and-forward output ports tail-drop under contention,
            # which two nodes can never produce; larger clusters must arm
            # the recovery machinery or pass loss_possible=False to opt out
            loss_possible = (network.loss_rate > 0.0
                             or (network.store_and_forward
                                 and len(node_names) > 2))
        for name in node_names:
            self.providers[name] = SimulatedProvider(
                node=self.fabric.node(name),
                nameservice=self.nameservice,
                choices=spec.choices,
                costs=spec.costs,
                mtu=effective_mtu,
                loss_possible=loss_possible,
                name=spec.name,
            )
        #: conformance checker when requested (repro.check); None keeps
        #: every hook site on its zero-cost path
        self.checker = None
        if check:
            from ..check.invariants import attach_checker

            self.checker = attach_checker(self)
        #: fault injector when a FaultPlan is supplied (repro.faults);
        #: same discipline — None (or an empty plan) keeps every hook
        #: site on its zero-cost path
        self.injector = None
        if faults is not None:
            from ..faults.injector import attach_faults

            attach_faults(self, faults)

    @property
    def name(self) -> str:
        return self.spec.name

    @property
    def node_names(self) -> tuple[str, ...]:
        return self.fabric.node_names

    def provider(self, node_name: str) -> SimulatedProvider:
        return self.providers[node_name]

    def open(self, node_name: str, actor_name: str) -> NicHandle:
        """VipOpenNic on a node: the application's session handle."""
        return self.providers[node_name].open(actor_name)

    def spawn(self, generator, name: str | None = None):
        return self.sim.process(generator, name=name)

    def run(self, until=None):
        return self.sim.run(until)

    def close(self) -> None:
        """Free this testbed once its results are read (see the class
        docstring).  Idempotent."""
        self.sim.close()
        self.fabric.close()
        for node in self.fabric.nodes.values():
            node.nic.rx_handler = None
            for actor in node.cpu._actors.values():
                actor.cpu = None
        for provider in self.providers.values():
            provider.engine.p = None
            provider.engine._ff_routes.clear()
            for cq in provider.cqs:
                cq.entries.clear()
        if self.injector is not None:
            self.injector.tb = None

    @property
    def now(self) -> float:
        return self.sim.now
