"""Cluster-scale serving on the simulated VIA stack.

The paper's Category-3 benchmarks stop at one server and one client on
a two-node testbed.  This package grows the same sim/hw/via/providers
stack into an N-node serving cluster:

* :mod:`~repro.cluster.topology` — star, dumbbell and two-level
  fat-tree fabrics with contention-aware output ports,
* :mod:`~repro.cluster.workload` — seeded open-loop (Poisson /
  deterministic / burst) and closed-loop request generators,
* :mod:`~repro.cluster.server` — a CQ-dispatch server event loop
  multiplexing one VI per client with pluggable service-time models,
* :mod:`~repro.cluster.runner` — capacity sweeps that find each
  provider's saturation knee (``vibe cluster``),
* :mod:`~repro.cluster.policy` — client retry and server admission
  policies for the overload-resilience layer (deadline propagation,
  load shedding, per-tenant SLO verdicts).
"""

from .policy import RetryPolicy, ServerPolicy
from .runner import (
    QUICK_RATE_GRID,
    RATE_GRID,
    ClusterConfig,
    ClusterReport,
    assemble_report,
    cell_key,
    find_knee,
    resolve_rates,
    run_cluster,
    run_cluster_once,
    slo_knee,
    sweep_cells,
)
from .server import ClusterServer, make_service
from .topology import Topology, build_testbed, make_topology
from .workload import ClusterClient, StartGate, arrival_offsets

__all__ = [
    "QUICK_RATE_GRID",
    "RATE_GRID",
    "ClusterConfig",
    "ClusterReport",
    "ClusterClient",
    "ClusterServer",
    "RetryPolicy",
    "ServerPolicy",
    "StartGate",
    "Topology",
    "arrival_offsets",
    "assemble_report",
    "build_testbed",
    "cell_key",
    "find_knee",
    "make_service",
    "make_topology",
    "resolve_rates",
    "run_cluster",
    "run_cluster_once",
    "slo_knee",
    "sweep_cells",
]
