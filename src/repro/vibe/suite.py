"""The VIBe suite registry: every micro-benchmark, runnable by name.

Mirrors the paper's taxonomy:

- category 1 (non-data transfer): ``nondata``, ``memreg``;
- category 2 (data transfer): ``base_latency``, ``base_bandwidth`` (and
  their blocking variants), ``reuse_latency``, ``reuse_bandwidth``,
  ``cq_latency``, ``cq_overhead``, ``multivi_latency``,
  ``multivi_bandwidth``, ``segments_latency``, ``async_latency``,
  ``rdma_write_latency``, ``pipeline_bandwidth``, ``mtu_bandwidth``,
  ``reliability_latency``;
- category 3 (programming models): ``client_server``.
"""

from __future__ import annotations

from typing import Callable

from ..via.constants import WaitMode
from . import (
    addrtrans,
    async_bench,
    base_transfer,
    clientserver,
    cq_bench,
    mtu,
    multiclient,
    multivi,
    nondata,
    pipeline,
    progmodel_collectives,
    progmodel_dsm,
    progmodel_getput,
    progmodel_msg,
    progmodel_stream,
    rdma_bench,
    reliability,
    segments,
)
from ..executor import parallel_map
from ..providers.registry import get_spec
from . import concurrency, dynamic
from .metrics import BenchResult

__all__ = ["SUITE", "run_benchmark", "run_all", "DEFAULT_PROVIDERS"]

DEFAULT_PROVIDERS = ("mvia", "bvia", "clan")

#: name -> callable(provider, **kwargs) returning BenchResult or a list
SUITE: dict[str, Callable] = {
    # category 1
    "nondata": nondata.nondata_costs,
    "memreg": nondata.memreg_sweep,
    # category 2
    "base_latency": base_transfer.base_latency,
    "base_bandwidth": base_transfer.base_bandwidth,
    "base_latency_blocking": lambda p, **kw: base_transfer.base_latency(
        p, mode=WaitMode.BLOCK, **kw),
    "base_bandwidth_blocking": lambda p, **kw: base_transfer.base_bandwidth(
        p, mode=WaitMode.BLOCK, **kw),
    "reuse_latency": addrtrans.reuse_latency,
    "reuse_bandwidth": addrtrans.reuse_bandwidth,
    "cq_latency": cq_bench.cq_latency,
    "cq_bandwidth": cq_bench.cq_bandwidth,
    "cq_overhead": cq_bench.cq_overhead,
    "multivi_latency": multivi.multivi_latency,
    "multivi_bandwidth": multivi.multivi_bandwidth,
    "segments_latency": segments.segments_latency,
    "segments_bandwidth": segments.segments_bandwidth,
    "async_latency": async_bench.async_latency,
    "rdma_write_latency": rdma_bench.rdma_write_latency,
    "rdma_read_latency": rdma_bench.rdma_read_latency,
    "pipeline_bandwidth": pipeline.pipeline_bandwidth,
    "mtu_latency": mtu.mtu_latency,
    "mtu_bandwidth": mtu.mtu_bandwidth,
    "reliability_latency": reliability.reliability_latency,
    "reliability_bandwidth": reliability.reliability_bandwidth,
    "loss_goodput": reliability.loss_goodput,
    # category 3
    "client_server": clientserver.client_server,
    "multiclient_throughput": multiclient.multiclient_throughput,
    "msg_layer_latency": progmodel_msg.msg_layer_latency,
    "msg_layer_bandwidth": progmodel_msg.msg_layer_bandwidth,
    "eager_threshold": progmodel_msg.eager_threshold_sweep,
    "getput_latency": progmodel_getput.getput_latency,
    "dsm_fault_latency": progmodel_dsm.dsm_fault_latency,
    "collective_latency": progmodel_collectives.collective_latency,
    "connection_churn": dynamic.connection_churn,
    "tail_latency": dynamic.tail_latency_under_load,
    "stream_throughput": progmodel_stream.stream_throughput,
    "concurrent_streams": concurrency.concurrent_streams,
}


#: benchmarks whose sweep accepts a ``jobs=N`` fan-out keyword.
#: ``memreg`` is deliberately absent: its sweep must run in one testbed
#: (see :func:`repro.vibe.nondata.memreg_sweep`); it still parallelises
#: across providers via :func:`run_all`.
JOBS_AWARE = frozenset({
    "base_latency", "base_bandwidth",
    "base_latency_blocking", "base_bandwidth_blocking",
    "reuse_latency", "reuse_bandwidth",
    "mtu_latency", "mtu_bandwidth",
})

#: benchmarks that sweep a ``sizes=[...]`` list of message sizes.  The
#: rest take no ``sizes`` keyword (the ``**overrides`` ones hand it to
#: :class:`TransferConfig`, which rejects it), so a served spec naming
#: one with ``sizes`` is refused up front.
SIZES_AWARE = frozenset({
    "memreg",
    "base_latency", "base_bandwidth",
    "base_latency_blocking", "base_bandwidth_blocking",
    "reuse_latency", "reuse_bandwidth",
    "cq_latency", "cq_bandwidth", "cq_overhead",
    "rdma_write_latency", "rdma_read_latency",
    "msg_layer_latency", "msg_layer_bandwidth",
    "getput_latency",
})

#: benchmarks built on the two harness engines: their kwargs flow into
#: a :class:`TransferConfig`, so they run at its ``"flow"`` default
#: (exact on their one-way-at-a-time traffic) and accept a
#: ``fidelity="packet"|"auto"|"flow"`` override.  The rest build their
#: testbeds directly, run at ``packet``, and silently drop the keyword
#: (so the CLI can pass ``--fidelity`` uniformly).  ``cq_overhead``
#: runs its with-CQ and bare baselines at the one fidelity it is given.
FIDELITY_AWARE = frozenset({
    "base_latency", "base_bandwidth",
    "base_latency_blocking", "base_bandwidth_blocking",
    "reuse_latency", "reuse_bandwidth",
    "cq_latency", "cq_bandwidth", "cq_overhead",
    "multivi_latency", "multivi_bandwidth",
    "segments_latency", "segments_bandwidth",
    "pipeline_bandwidth",
    "mtu_latency", "mtu_bandwidth",
    "reliability_latency", "reliability_bandwidth",
})


def run_benchmark(name: str, provider: str, **kwargs):
    """Run one named micro-benchmark on one provider.

    A ``jobs`` keyword is forwarded only to benchmarks that support
    internal fan-out (:data:`JOBS_AWARE`); for the rest it is dropped so
    callers can pass a global ``--jobs`` uniformly.  Likewise
    ``fidelity`` reaches only the :data:`FIDELITY_AWARE` benchmarks,
    and ``meta.params`` records it only when the caller passed it.
    """
    try:
        fn = SUITE[name]
    except KeyError:
        raise KeyError(
            f"unknown benchmark {name!r}; known: {sorted(SUITE)}"
        ) from None
    if "jobs" in kwargs and name not in JOBS_AWARE:
        kwargs = {k: v for k, v in kwargs.items() if k != "jobs"}
    if "fidelity" in kwargs and name not in FIDELITY_AWARE:
        kwargs = {k: v for k, v in kwargs.items() if k != "fidelity"}
    result = fn(provider, **kwargs)
    _stamp_meta(result, name, provider, kwargs)
    return result


def _stamp_meta(result, name: str, provider, kwargs: dict) -> None:
    """Attach deterministic run metadata to every returned BenchResult.

    Metadata carries no wall-clock timestamps, so a fanned-out run is
    repr-identical to a serial one.
    """
    from ..obs.profile import run_metadata

    params = {k: repr(v) for k, v in sorted(kwargs.items()) if k != "jobs"}
    params["benchmark"] = name
    meta = run_metadata(get_spec(provider).name, params)
    for r in result if isinstance(result, list) else [result]:
        if hasattr(r, "meta") and not r.meta:
            r.meta = dict(meta)


def _run_named(name: str, provider, kwargs: dict):
    """Picklable worker for :func:`run_all`: one benchmark, one provider."""
    return run_benchmark(name, provider, **kwargs)


def run_all(providers=DEFAULT_PROVIDERS,
            benchmarks: list[str] | None = None,
            jobs: int = 1,
            **kwargs) -> dict[str, dict[str, "BenchResult | list[BenchResult]"]]:
    """Run (a subset of) the suite on each provider.

    ``jobs`` fans the independent ``(benchmark, provider)`` simulations
    out over that many worker processes (see
    :mod:`repro.executor`); results are identical to ``jobs=1``
    because each task is a self-contained deterministic simulation and
    collection preserves task order.

    Returns ``{benchmark: {provider: result}}``.
    """
    names = benchmarks or list(SUITE)
    tasks = [(name, provider, kwargs)
             for name in names for provider in providers]
    results = parallel_map(_run_named, tasks, jobs)
    out: dict[str, dict] = {name: {} for name in names}
    for (name, provider, _), result in zip(tasks, results):
        out[name][provider] = result
    return out
