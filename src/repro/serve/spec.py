"""Experiment specs: the validated unit of work a client submits.

A spec is ``{"kind": ..., "params": {...}, "seed": ...}`` — the same
inputs the one-shot CLI builds from its flags, normalised so that two
ways of asking for the same experiment (sparse vs. explicit defaults,
``--quick`` vs. the spelled-out quick grid, list vs. tuple) produce the
same canonical form and therefore the same content address.

The content address is :meth:`ExperimentSpec.result_key`:
``snapshot_key(canonical_repr, seed)`` — the PR 7 hash, which stamps
:data:`repro.snap.CODE_VERSION` into the key, so a code-version bump
silently invalidates every cached result without any migration logic.
"""

from __future__ import annotations

import copy
from dataclasses import asdict, dataclass, field, fields

from ..snap.format import snapshot_key

__all__ = ["ExperimentSpec", "SpecError", "KINDS"]

KINDS = ("run", "cluster", "chaos")

_FIDELITIES = ("packet", "auto", "flow")


class SpecError(ValueError):
    """The submitted spec is malformed; the message says how."""


def _canon(value):
    """Normalise JSON-decoded values into a stable, hashable shape."""
    if isinstance(value, (list, tuple)):
        return tuple(_canon(v) for v in value)
    if isinstance(value, dict):
        return tuple(sorted((k, _canon(v)) for k, v in value.items()))
    if isinstance(value, bool) or value is None:
        return value
    if isinstance(value, (int, float, str)):
        return value
    raise SpecError(f"unsupported spec value {value!r} "
                    f"({type(value).__name__})")


def _require(params: dict, allowed: set, kind: str) -> None:
    unknown = set(params) - allowed
    if unknown:
        raise SpecError(f"unknown {kind} spec params: "
                        f"{', '.join(sorted(unknown))} "
                        f"(allowed: {', '.join(sorted(allowed))})")


def _provider(name) -> str:
    from ..check import ALL_PROVIDERS

    name = str(name)
    if name not in ALL_PROVIDERS:
        raise SpecError(f"unknown provider {name!r}; "
                        f"known: {', '.join(ALL_PROVIDERS)}")
    return name


def _providers(params: dict) -> tuple:
    from ..check import ALL_PROVIDERS

    raw = params.get("providers")
    if raw in (None, "all", []):
        return tuple(ALL_PROVIDERS)
    if isinstance(raw, str):
        raw = raw.split(",")
    return tuple(_provider(p) for p in raw)


def _design(provider: dict) -> dict:
    """An inline design, checked by the ``--provider-spec`` parser."""
    from ..providers.custom import parse_spec

    try:
        parse_spec(provider)
    except (ValueError, KeyError, TypeError) as exc:
        raise SpecError(f"bad provider design: {exc.args[0]}") from None
    return copy.deepcopy(provider)  # the spec owns its design


def _normalize_run(params: dict, seed: int) -> dict:
    from ..vibe.suite import SIZES_AWARE, SUITE

    _require(params, {"benchmark", "provider", "fidelity", "sizes"}, "run")
    benchmark = params.get("benchmark")
    if benchmark not in SUITE:
        raise SpecError(f"unknown benchmark {benchmark!r}; "
                        "see `vibe list`")
    provider = params.get("provider", "clan")
    out = {
        "benchmark": benchmark,
        # a registered name, or a design object (a --provider-spec file)
        "provider": (_provider(provider) if isinstance(provider, str)
                     else _design(provider)),
    }
    # absent means the benchmark's own default, which is not "packet"
    # for the harness benchmarks, so it stays out of the canonical form
    if "fidelity" in params:
        fidelity = params["fidelity"]
        if fidelity not in _FIDELITIES:
            raise SpecError(f"fidelity must be one of {_FIDELITIES}, "
                            f"got {fidelity!r}")
        out["fidelity"] = fidelity
    if params.get("sizes"):
        if benchmark not in SIZES_AWARE:
            raise SpecError(f"benchmark {benchmark!r} takes no sizes; "
                            f"those that do: {', '.join(sorted(SIZES_AWARE))}")
        out["sizes"] = tuple(int(s) for s in params["sizes"])
    return out


def _normalize_cluster(params: dict, seed: int) -> dict:
    from ..cluster.runner import (ClusterConfig, QUICK_RATE_GRID,
                                  resolve_rates)

    cfg_fields = {f.name for f in fields(ClusterConfig)} - {"seed"}
    _require(params, cfg_fields | {"providers", "rates", "check", "quick"},
             "cluster")
    cfg_kwargs = {k: params[k] for k in cfg_fields if k in params}
    try:
        cfg = ClusterConfig(seed=seed, **cfg_kwargs)
    except TypeError as exc:
        raise SpecError(f"bad cluster config: {exc}") from None
    rates = params.get("rates")
    if rates is not None:
        rates = tuple(float(r) for r in rates)
    elif params.get("quick"):
        rates = QUICK_RATE_GRID
    # resolve the grid now so quick/default/closed spellings of the
    # same sweep share one canonical form (and one cache key)
    rates = resolve_rates(cfg, rates)
    # canonicalise to the FULL config, so a sparse spec and one that
    # spells out every default share one canonical form and cache key
    out = {k: v for k, v in asdict(cfg).items() if k != "seed"}
    out["providers"] = _providers(params)
    out["rates"] = rates
    out["check"] = bool(params.get("check", False))
    return out


def _normalize_chaos(params: dict, seed: int) -> dict:
    from ..faults.scenarios import get_scenario

    _require(params, {"providers", "scenarios", "quick"}, "chaos")
    scenarios = params.get("scenarios") or ()
    if isinstance(scenarios, str):
        scenarios = [s for s in scenarios.split(",") if s]
    for name in scenarios:
        get_scenario(name)  # raises KeyError -> surfaced below
    return {
        "providers": _providers(params),
        "scenarios": tuple(str(s) for s in scenarios),
        "quick": bool(params.get("quick", False)),
    }


_NORMALIZERS = {
    "run": _normalize_run,
    "cluster": _normalize_cluster,
    "chaos": _normalize_chaos,
}


@dataclass(frozen=True)
class ExperimentSpec:
    """One validated, normalised experiment description."""

    kind: str
    params: dict = field(default_factory=dict)
    seed: int = 0

    @classmethod
    def from_dict(cls, data: dict) -> "ExperimentSpec":
        """Validate and normalise a JSON-decoded spec.

        Raises :class:`SpecError` with an actionable message on any
        malformed input — the service turns these into HTTP 400s.
        """
        if not isinstance(data, dict):
            raise SpecError(f"spec must be an object, got "
                            f"{type(data).__name__}")
        kind = data.get("kind")
        if kind not in KINDS:
            raise SpecError(f"spec kind must be one of {KINDS}, "
                            f"got {kind!r}")
        params = data.get("params", {})
        if not isinstance(params, dict):
            raise SpecError("spec params must be an object")
        try:
            seed = int(data.get("seed", 0))
        except (TypeError, ValueError):
            raise SpecError(f"spec seed must be an int, "
                            f"got {data.get('seed')!r}") from None
        try:
            params = _NORMALIZERS[kind](dict(params), seed)
        except KeyError as exc:
            raise SpecError(exc.args[0]) from None
        return cls(kind=kind, params=params, seed=seed)

    def to_dict(self) -> dict:
        """JSON-ready form (tuples become lists; round-trips through
        :meth:`from_dict` to an equal spec)."""
        def plain(v):
            if isinstance(v, tuple):
                return [plain(x) for x in v]
            return v

        return {
            "kind": self.kind,
            "params": {k: plain(v) for k, v in self.params.items()},
            "seed": self.seed,
        }

    def canonical(self) -> str:
        """Stable repr of everything but the seed and code version."""
        return repr(("experiment-spec", self.kind,
                     _canon(self.params)))

    def result_key(self) -> str:
        """The spec's content address: ``(canonical, seed, CODE_VERSION)``
        hashed by the same :func:`~repro.snap.snapshot_key` campaign
        checkpoints use."""
        return snapshot_key(self.canonical(), self.seed)

    def describe(self) -> str:
        """One-line human label for job listings."""
        if self.kind == "run":
            provider = self.params["provider"]
            if isinstance(provider, dict):
                provider = provider.get("name", "custom")
            return f"run {self.params['benchmark']} [{provider}]"
        if self.kind == "cluster":
            rates = self.params["rates"]
            label = "closed" if rates == (None,) else \
                ",".join(f"{r:g}" for r in rates)
            return (f"cluster {self.params.get('topology', 'star')} "
                    f"x{len(self.params['providers'])} providers "
                    f"@ {label}")
        return (f"chaos x{len(self.params['providers'])} providers"
                + (f" ({','.join(self.params['scenarios'])})"
                   if self.params["scenarios"] else ""))
