"""User-defined providers: load a ProviderSpec from a JSON file.

The design-space engine is fully parameterised; this module makes that
a user feature — describe a hypothetical VIA implementation in JSON and
run the whole suite against it:

    vibe run base_latency --provider-spec my_design.json

The flag carries the object inline, as a ``run`` experiment spec's
``provider``.  JSON schema (all cost/network fields optional — they
default to the ``base`` provider's values)::

    {
      "name": "my-design",
      "base": "bvia",                 // provider to inherit from
      "choices": {                     // DesignChoices overrides
        "translation_agent": "nic",   // enum values by name
        "table_location": "nic_memory",
        "doorbell": "mmio",
        "data_path": "zero_copy",
        "dispatch": "direct",
        "unexpected": "retry",
        "cq_in_hardware": true,
        "supports_rdma_read": true,
        "default_reliability": "reliable_delivery",
        "nic_tlb_entries": 1024
      },
      "costs": { "vi_create": 5.0, "tlb_miss": 2.0 },   // CostModel fields
      "network": { "bandwidth": 250.0, "mtu": 2048 }    // NetworkParams fields
    }
"""

from __future__ import annotations

import json
import pathlib
from dataclasses import fields, replace

from ..via.constants import Reliability
from .costs import (
    DataPath,
    DesignChoices,
    DispatchKind,
    DoorbellKind,
    TableLocation,
    TranslationAgent,
    UnexpectedPolicy,
)
from .registry import ProviderSpec, get_spec

__all__ = ["load_spec", "parse_spec", "read_spec_file", "spec_to_dict"]

_ENUMS = {
    "translation_agent": TranslationAgent,
    "table_location": TableLocation,
    "doorbell": DoorbellKind,
    "data_path": DataPath,
    "dispatch": DispatchKind,
    "unexpected": UnexpectedPolicy,
    "default_reliability": Reliability,
}


def _parse_choices(base: DesignChoices, overrides: dict) -> DesignChoices:
    kwargs = {}
    valid = {f.name for f in fields(DesignChoices)}
    for key, value in overrides.items():
        if key not in valid:
            raise ValueError(f"unknown DesignChoices field {key!r}; "
                             f"valid: {sorted(valid)}")
        if key in _ENUMS:
            enum_cls = _ENUMS[key]
            try:
                value = enum_cls(value)
            except ValueError:
                names = [e.value for e in enum_cls]
                raise ValueError(
                    f"{key}={value!r} is not one of {names}"
                ) from None
        kwargs[key] = value
    return replace(base, **kwargs)


def _parse_plain(base, overrides: dict, what: str):
    valid = {f.name for f in fields(type(base))}
    unknown = set(overrides) - valid
    if unknown:
        raise ValueError(f"unknown {what} field(s) {sorted(unknown)}; "
                         f"valid: {sorted(valid)}")
    return replace(base, **overrides)


def load_spec(path: "str | pathlib.Path") -> ProviderSpec:
    """Build a ProviderSpec from a JSON description file."""
    return parse_spec(read_spec_file(path))


def read_spec_file(path: "str | pathlib.Path"):
    """The decoded JSON of a description file, for :func:`parse_spec`."""
    return json.loads(pathlib.Path(path).read_text())


def parse_spec(data) -> ProviderSpec:
    """Build a ProviderSpec from a decoded JSON description; a malformed
    one raises ValueError (KeyError for an unknown ``base``)."""
    sections = ("choices", "costs", "network", "host")
    if not isinstance(data, dict) or not all(
            isinstance(data.get(k, {}), dict) for k in sections):
        raise ValueError("provider spec must be a JSON object, and its "
                         f"{', '.join(sections)} JSON objects too")
    base = get_spec(data.get("base", "clan"))
    name = data.get("name", f"custom-{base.name}")
    choices = _parse_choices(base.choices, data.get("choices", {}))
    costs = _parse_plain(base.costs, data.get("costs", {}), "CostModel")
    network = _parse_plain(base.network, data.get("network", {}),
                           "NetworkParams")
    host = _parse_plain(base.host, data.get("host", {}), "HostParams")
    return ProviderSpec(name=name, network=network, choices=choices,
                        costs=costs, host=host)


def spec_to_dict(spec: ProviderSpec) -> dict:
    """Serialise a spec back to the JSON shape (for saving variants)."""
    def plain(obj):
        out = {}
        for f in fields(type(obj)):
            value = getattr(obj, f.name)
            out[f.name] = value.value if hasattr(value, "value") else value
        return out

    return {
        "name": spec.name,
        "choices": plain(spec.choices),
        "costs": plain(spec.costs),
        "network": plain(spec.network),
        "host": plain(spec.host),
    }
