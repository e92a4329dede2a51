"""Experiment control plane: the simulator as a long-running service.

The simulator runs behind a dependency-free HTTP/JSON service (stdlib
``http.server`` only), and the one-shot ``vibe run|cluster|chaos``
commands run the same specs through the same executor in-process:

* :mod:`~repro.serve.spec` — :class:`ExperimentSpec`, the validated,
  canonicalised description of one experiment (``run`` / ``cluster`` /
  ``chaos``), content-addressed by :func:`repro.serve.cache.content_key`;
* :mod:`~repro.serve.execute` — :func:`run_spec`, the one execution
  path: the direct CLI calls it, and :func:`execute_spec` (its JSON)
  is what a served job returns, so the bytes match by construction;
* :mod:`~repro.serve.cache` — :class:`ResultCache`, the one
  reader/writer of a cache directory: checksummed, code-versioned
  ``result-<key>.json`` and ``cell-<key>.json`` entries;
* :mod:`~repro.serve.jobs` — a bounded FIFO job queue with per-client
  round-robin fairness and an append-only per-job event log;
* :mod:`~repro.serve.service` — :class:`ExperimentService`, the HTTP/1.1
  keep-alive server: job submission, status, results, an SSE event
  stream per job, and a ``/metrics`` endpoint exporting the service's
  own counters through the :mod:`repro.obs` registry;
* :mod:`~repro.serve.client` — :class:`ServiceClient`, the stdlib
  ``http.client`` client behind ``vibe submit`` / ``vibe jobs``, which
  sends every call but the SSE stream over one kept connection.

``tests/test_serve.py`` proves the bar: a served result equals the
direct CLI's ``--json-out`` byte for byte, and resubmitting it is
answered from the cache with ``cache_hit: true`` and the same bytes.
"""

from __future__ import annotations

from .cache import ResultCache
from .client import ServiceClient, ServiceError
from .execute import execute_spec, run_spec
from .jobs import Job, JobQueue, QueueFullError
from .service import ExperimentService
from .spec import ExperimentSpec, SpecError

__all__ = [
    "ExperimentSpec", "SpecError",
    "ResultCache",
    "Job", "JobQueue", "QueueFullError",
    "execute_spec", "run_spec",
    "ExperimentService",
    "ServiceClient", "ServiceError",
]
