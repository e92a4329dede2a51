"""Spec execution: the exact code path the direct CLI takes.

The byte-identity contract lives here.  For every spec kind the result
payload is produced by the same function the one-shot CLI uses:

- ``run``     -> :func:`repro.vibe.suite.run_benchmark` serialised by
  :func:`repro.vibe.metrics.results_to_json` (what ``vibe run
  --json-out`` writes);
- ``cluster`` -> the runner's cells + :func:`repro.cluster.assemble_report`
  (what ``vibe cluster --json-out`` writes);
- ``chaos``   -> :func:`repro.faults.run_chaos` ``.to_json()`` (what
  ``vibe chaos --json-out`` writes).

Cluster specs additionally decompose into the runner's canonical
``(provider, cfg, rate, check)`` cells so the service can fan them out
over its persistent worker pool, stream per-cell progress, and cache
each cell under the same ``cell-<key>.json`` identity that
``vibe cluster --checkpoint-dir`` uses.
"""

from __future__ import annotations

from .spec import ExperimentSpec

__all__ = ["execute_spec", "cluster_plan", "run_spec_worker",
           "point_metrics"]


def _cluster_pieces(spec: ExperimentSpec):
    """(providers, cfg, rates, check) for a cluster spec."""
    from ..cluster.runner import ClusterConfig

    params = dict(spec.params)
    providers = params.pop("providers")
    rates = params.pop("rates")
    check = params.pop("check")
    cfg = ClusterConfig(seed=spec.seed, **params)
    return providers, cfg, rates, check


def cluster_plan(spec: ExperimentSpec):
    """The sweep's cells in canonical order, plus their cache keys.

    Returns ``(providers, cfg, rates, cells, keys)`` where ``cells[i]``
    is the runner's ``(provider, cfg, rate, check)`` tuple and
    ``keys[i]`` its single-sourced :func:`repro.cluster.cell_key` —
    shared bit-for-bit with ``--checkpoint-dir`` campaigns.
    """
    from ..cluster.runner import cell_key, sweep_cells

    providers, cfg, rates, check = _cluster_pieces(spec)
    cells = sweep_cells(providers, cfg, rates, check)
    keys = [cell_key(*cell) for cell in cells]
    return providers, cfg, rates, cells, keys


def assemble_cluster_result(spec: ExperimentSpec,
                            points: list[dict]) -> str:
    """Fold finished cell points into the canonical report JSON."""
    from ..cluster.runner import assemble_report

    providers, cfg, rates, _check = _cluster_pieces(spec)
    return assemble_report(providers, cfg, rates, points).to_json()


def execute_spec(spec: ExperimentSpec) -> str:
    """Run the whole spec inline and return its result JSON.

    This is the reference path: the service's fanned-out execution must
    produce exactly these bytes (``tests/test_serve.py`` pins it).
    """
    if spec.kind == "run":
        from ..vibe.metrics import results_to_json
        from ..vibe.suite import run_benchmark

        params = spec.params
        kwargs = {}
        if "fidelity" in params:
            kwargs["fidelity"] = params["fidelity"]
        if "sizes" in params:
            kwargs["sizes"] = list(params["sizes"])
        result = run_benchmark(params["benchmark"], params["provider"],
                               **kwargs)
        return results_to_json(result)

    if spec.kind == "cluster":
        from ..cluster.runner import run_cluster

        providers, cfg, rates, check = _cluster_pieces(spec)
        report = run_cluster(providers, cfg, rates=rates, check=check)
        return report.to_json()

    if spec.kind == "chaos":
        from ..faults import run_chaos

        params = spec.params
        report = run_chaos(providers=params["providers"],
                           scenarios=params["scenarios"] or None,
                           seed=spec.seed, quick=params["quick"])
        return report.to_json()

    raise ValueError(f"unknown spec kind {spec.kind!r}")


def point_metrics(point: dict) -> dict:
    """The harvested metric snapshot streamed with each finished cell."""
    return {
        "goodput_rps": point.get("goodput_rps"),
        "p50_us": point.get("p50_us"),
        "p99_us": point.get("p99_us"),
        "completed": point.get("completed"),
        "violations": len(point.get("violations", ())),
    }


# -- picklable pool workers ------------------------------------------


def run_spec_worker(spec_dict: dict) -> str:
    """Execute a whole spec in a worker process (run/chaos jobs)."""
    return execute_spec(ExperimentSpec.from_dict(spec_dict))
