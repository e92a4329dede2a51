"""Content-addressed entry store: the one reader/writer of a cache dir.

Two kinds of entry share one format: ``result-<key>.json`` holds one
whole experiment's result JSON (keyed by
:meth:`~repro.serve.spec.ExperimentSpec.result_key`, stored beside its
spec), and ``cell-<key>.json`` one cluster-sweep cell's point (keyed by
:func:`repro.cluster.cell_key`; the service and ``vibe cluster
--checkpoint-dir`` share these).  Both keys hash through
:func:`content_key`, which folds in :data:`CODE_VERSION`.  Each entry
stores ``key``, ``code_version``, the payload string ``result`` and its
``result_sha256``.

Every writer goes through its own temp file and ``os.replace``, so a
killed writer never leaves a torn entry and concurrent writers of one
key race benignly.  A read that fails any check (stored key, code
version, payload checksum) is a miss, healed by the next write, so a
foreign, hand-edited or corrupted entry is never a wrong answer.
"""

from __future__ import annotations

import hashlib
import json
import os
import threading

from .. import __version__

__all__ = ["CODE_VERSION", "ResultCache", "content_key"]

#: folded into every key and stamped into every entry; the ``snap-6``
#: suffix is the key-schema version, kept so that existing keys still hold
CODE_VERSION = f"repro-{__version__}/snap-6"


def content_key(config_repr: str, seed: int) -> str:
    """Content-address a computation: (config, seed, code version).

    Pure function of its arguments — identical across processes and
    machines — used by campaign checkpoints and the service's result
    cache.
    """
    raw = repr((CODE_VERSION, config_repr, seed)).encode()
    return hashlib.sha256(raw).hexdigest()


def _sha256(payload: str) -> str:
    return hashlib.sha256(payload.encode()).hexdigest()


class ResultCache:
    """Filesystem-backed store of experiment results and sweep cells."""

    def __init__(self, root: str) -> None:
        self.root = root
        os.makedirs(root, exist_ok=True)

    def path(self, key: str, kind: str = "result") -> str:
        return os.path.join(self.root, f"{kind}-{key}.json")

    def _read(self, kind: str, key: str) -> str | None:
        try:
            with open(self.path(key, kind), encoding="utf-8") as fh:
                entry = json.load(fh)
        except (OSError, ValueError):
            return None
        payload = entry.get("result") if isinstance(entry, dict) else None
        ok = (
            isinstance(payload, str)
            and entry.get("key") == key
            and entry.get("code_version") == CODE_VERSION
            and entry.get("result_sha256") == _sha256(payload)
        )
        return payload if ok else None

    def _write(self, kind: str, key: str, payload: str, **extra) -> None:
        entry = {
            "key": key,
            "code_version": CODE_VERSION,
            "result": payload,
            "result_sha256": _sha256(payload),
            **extra,
        }
        path = self.path(key, kind)
        tmp = f"{path}.tmp.{os.getpid()}.{threading.get_ident()}"
        with open(tmp, "w", encoding="utf-8") as fh:
            json.dump(entry, fh, sort_keys=True)
        os.replace(tmp, path)  # atomic: concurrent writers race benignly

    def get(self, key: str) -> str | None:
        """The cached result JSON for ``key``, or None on any doubt."""
        return self._read("result", key)

    def put(self, key: str, spec_dict: dict, result_json: str) -> None:
        """Atomically persist one finished experiment's result."""
        self._write("result", key, result_json, spec=spec_dict)

    def get_cell(self, key: str) -> dict | None:
        """The stored point of sweep cell ``key``, or None on any doubt."""
        payload = self._read("cell", key)
        return None if payload is None else json.loads(payload)

    def put_cell(self, key: str, point: dict) -> None:
        """Atomically persist one finished sweep cell's point."""
        self._write("cell", key, json.dumps(point, sort_keys=True))

    def __len__(self) -> int:
        try:
            return sum(1 for name in os.listdir(self.root)
                       if name.startswith("result-")
                       and name.endswith(".json"))
        except OSError:
            return 0
