"""Spec execution: the one path every experiment runs through.

``vibe run``, ``vibe cluster`` and ``vibe chaos`` build the spec
``vibe submit`` sends for the same flags and run it with
:func:`run_spec`, as the service's workers do, so direct and served
bytes are equal by construction.  Each kind yields a report with
``summary()``, ``to_json()`` and ``ok``: a :class:`RunReport`, a
:class:`~repro.cluster.ClusterReport` or a
:class:`~repro.faults.ChaosReport`.  The service also splits cluster
specs into the runner's ``(provider, cfg, rate, check)`` cells, to fan
them over its pool and share ``cell-<key>.json`` entries with
``vibe cluster --checkpoint-dir``.
"""

from __future__ import annotations

from ..providers.custom import parse_spec
from ..vibe.metrics import BenchResult, Measurement, results_to_json
from ..vibe.suite import _stamp_meta, run_benchmark
from .spec import ExperimentSpec

__all__ = ["run_spec", "execute_spec", "RunReport", "cluster_plan",
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

    Returns ``(cells, keys)`` where ``cells[i]`` is the runner's
    ``(provider, cfg, rate, check)`` tuple and ``keys[i]`` its
    single-sourced :func:`repro.cluster.cell_key` — shared bit-for-bit
    with ``--checkpoint-dir`` campaigns.
    """
    from ..cluster.runner import cell_key, sweep_cells

    cells = sweep_cells(*_cluster_pieces(spec))
    return cells, [cell_key(*cell) for cell in cells]


def assemble_cluster_result(spec: ExperimentSpec,
                            points: list[dict]) -> str:
    """Fold finished cell points into the canonical report JSON."""
    from ..cluster.runner import assemble_report

    providers, cfg, rates, _check = _cluster_pieces(spec)
    return assemble_report(providers, cfg, rates, points).to_json()


class RunReport:
    """A ``run`` spec's results: one BenchResult or a list of them."""

    ok = True  # a finished benchmark has no verdict to fail

    def __init__(self, result) -> None:
        self.result = result

    def summary(self) -> str:
        if isinstance(self.result, list):
            return "\n".join(f"{r.table()}\n" for r in self.result)
        return self.result.table()

    def to_json(self) -> str:
        return results_to_json(self.result)


def _run_report(params: dict, jobs: int) -> RunReport:
    name, provider = params["benchmark"], params["provider"]
    if isinstance(provider, dict):
        provider = parse_spec(provider)
    kwargs = {"jobs": jobs}
    if "fidelity" in params:
        kwargs["fidelity"] = params["fidelity"]
    if "sizes" in params:
        kwargs["sizes"] = list(params["sizes"])  # a list: meta holds its repr
    result = run_benchmark(name, provider, **kwargs)
    if isinstance(result, Measurement):
        # connection_churn returns a bare point (the paper_suite digest
        # pins that) whose param is the provider; it takes none of the
        # keywords above, so its stamp carries none, like the others'
        result = BenchResult(name, result.param, [result])
        _stamp_meta(result, name, provider, {})
    return RunReport(result)


def run_spec(spec: ExperimentSpec, *, jobs: int = 1,
             cell_dir: str | None = None):
    """Run the whole spec in this process and return its report.

    ``jobs`` fans independent simulations over worker processes and
    ``cell_dir`` persists (and reuses) a cluster sweep's cells.  Neither
    changes the report's bytes, so neither is part of the spec.
    """
    params = spec.params
    if spec.kind == "run":
        return _run_report(params, jobs)
    if spec.kind == "cluster":
        from ..cluster.runner import run_cluster

        providers, cfg, rates, check = _cluster_pieces(spec)
        return run_cluster(providers, cfg, rates=rates, jobs=jobs,
                           check=check, checkpoint_dir=cell_dir)
    if spec.kind == "chaos":
        from ..faults import run_chaos

        return run_chaos(providers=params["providers"],
                         scenarios=params["scenarios"] or None,
                         seed=spec.seed, quick=params["quick"])
    raise ValueError(f"unknown spec kind {spec.kind!r}")


def execute_spec(spec: ExperimentSpec) -> str:
    """Run the whole spec inline and return its result JSON.

    This is the reference path: the service's fanned-out execution must
    produce exactly these bytes (``tests/test_serve.py`` pins it).
    """
    return run_spec(spec).to_json()


def point_metrics(point: dict) -> dict:
    """The harvested metric snapshot streamed with each finished cell."""
    return {
        "goodput_rps": point.get("goodput_rps"),
        "p50_us": point.get("p50_us"),
        "p99_us": point.get("p99_us"),
        "completed": point.get("completed"),
        "violations": len(point.get("violations", ())),
    }
