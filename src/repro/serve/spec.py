"""Experiment specs: the validated unit of work a client submits.

A spec is ``{"kind": ..., "params": {...}, "seed": ...}`` — the same
inputs the one-shot CLI builds from its flags, normalised so that two
ways of asking for the same experiment (sparse vs. explicit defaults,
``--quick`` vs. the spelled-out quick grid, list vs. tuple) produce the
same canonical form and therefore the same content address.

The content address is :meth:`ExperimentSpec.result_key`:
``content_key(canonical_repr, seed)`` from :mod:`repro.serve.cache`,
which stamps :data:`~repro.serve.cache.CODE_VERSION` into the key, so a
code-version bump invalidates every cached result without any
migration logic.
"""

from __future__ import annotations

import copy
from dataclasses import asdict, dataclass, field, fields

from .cache import content_key

__all__ = ["ExperimentSpec", "SpecError", "KINDS"]

KINDS = ("run", "cluster", "chaos")

_FIDELITIES = ("packet", "auto", "flow")

_TYPE_NAMES = {str: "a string", int: "an integer", float: "a number"}


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
    from ..providers.registry import ALL_PROVIDERS

    name = str(name)
    if name not in ALL_PROVIDERS:
        raise SpecError(f"unknown provider {name!r}; "
                        f"known: {', '.join(ALL_PROVIDERS)}")
    return name


def _providers(params: dict) -> tuple:
    from ..providers.registry import ALL_PROVIDERS

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
        out["sizes"] = _numbers(params["sizes"], int, "sizes")
        _check_sizes(benchmark, out["provider"], out["sizes"])
    return out


def _check_sizes(benchmark: str, provider, sizes: tuple) -> None:
    """Refuse a size the benchmark cannot run: ``memreg`` registers
    buffers of 1 byte or more, every other benchmark sends messages of
    0 up to the provider's maximum transfer size."""
    from ..providers.custom import parse_spec
    from ..providers.registry import get_spec

    if benchmark == "memreg":
        for size in sizes:
            if size < 1:
                raise SpecError(f"size {size} is not a buffer size; "
                                "memreg registers 1 byte or more")
        return
    spec = (get_spec(provider) if isinstance(provider, str)
            else parse_spec(provider))
    limit = spec.costs.max_transfer_size
    for size in sizes:
        if not 0 <= size <= limit:
            raise SpecError(f"size {size} is outside {spec.name}'s "
                            f"message sizes 0..{limit}")


def _numbers(values, kind: type, what: str) -> tuple:
    """``values`` converted by ``kind``; SpecError if any does not."""
    try:
        return tuple(kind(v) for v in values)
    except (TypeError, ValueError):
        raise SpecError(f"{what} must be a list of numbers, "
                        f"got {values!r}") from None


def _check_cluster(cfg) -> None:
    """Reject a config the runner would fail on, with the parsers the
    runner itself calls."""
    from ..cluster.policy import RetryPolicy, ServerPolicy
    from ..cluster.server import make_service
    from ..cluster.topology import make_topology
    from ..cluster.workload import ARRIVALS

    for f in fields(cfg):
        value = getattr(cfg, f.name)
        kind = type(f.default)
        if kind is str:
            ok = isinstance(value, str)
        else:
            ok = (isinstance(value, (int, float) if kind is float else int)
                  and not isinstance(value, bool))
        if not ok:
            raise SpecError(f"cluster {f.name} must be {_TYPE_NAMES[kind]}, "
                            f"got {value!r}")
    for name, known in (("fidelity", _FIDELITIES),
                        ("mode", ("open", "closed")),
                        ("arrival", ARRIVALS)):
        if getattr(cfg, name) not in known:
            raise SpecError(f"cluster {name} must be one of {known}, "
                            f"got {getattr(cfg, name)!r}")
    for name in ("clients", "requests", "window", "burst", "tenants"):
        if getattr(cfg, name) < 1:
            raise SpecError(f"cluster {name} must be >= 1, "
                            f"got {getattr(cfg, name)!r}")
    if cfg.deadline_us <= 0:
        raise SpecError(f"cluster deadline_us must be > 0, "
                        f"got {cfg.deadline_us!r}")
    try:
        make_topology(cfg.topology, cfg.nodes, cfg.servers)
        make_service(cfg.service)
        RetryPolicy.parse(cfg.retry)
        ServerPolicy.parse(cfg.server_policy)
    except ValueError as exc:
        raise SpecError(f"bad cluster config: {exc}") from None


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
    _check_cluster(cfg)
    rates = params.get("rates")
    if rates is not None:
        rates = _numbers(rates, float, "rates")
        if not all(r > 0 for r in rates):
            raise SpecError(f"rates must be positive, got {list(rates)!r}")
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
        hashed by the same :func:`~repro.serve.cache.content_key`
        campaign checkpoints use."""
        return content_key(self.canonical(), self.seed)

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
