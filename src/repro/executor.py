"""Parallel sweep executor: fan independent simulations over processes.

Every simulation in the suite is a self-contained :class:`Simulator`
behind a fresh ``Testbed``, so a sweep over ``(benchmark, provider,
param)`` tuples is embarrassingly parallel: tasks share no state, and
each task is fully deterministic given its arguments and seed.  This
module provides the one primitive everything builds on —
:func:`parallel_map` — and the seed and ``--jobs`` helpers beside it.
It sits outside :mod:`repro.vibe`, so a cluster sweep imports it
without loading the benchmark suite.

Determinism contract
--------------------

- **Order-preserving collection.**  Results come back in submission
  order regardless of which worker finished first, so a parallel sweep
  assembles the exact list a serial loop would.
- **Identical per-task inputs.**  A task's arguments (including its
  seed) are the same whether it runs inline or in a worker, so every
  simulated value is bit-identical across ``--jobs`` settings; the
  golden tests in ``tests/test_determinism.py`` pin this.
- **Deterministic derived seeds.**  When a caller wants distinct seeds
  per task it derives them with :func:`task_seed`, a pure function of
  the base seed and the task key — never from worker identity, wall
  clock, or completion order.

``jobs=1`` (the default everywhere) bypasses the pool entirely and runs
the plain serial loop in-process.
"""

from __future__ import annotations

import hashlib
import os
from concurrent.futures import ProcessPoolExecutor
from typing import Any, Callable, Iterable, Sequence

__all__ = ["parallel_map", "task_seed", "effective_jobs"]


def effective_jobs(jobs: int | None) -> int:
    """Normalise a ``--jobs`` value: None/0/1 -> 1, negative -> cpu count."""
    if not jobs:
        return 1
    if jobs < 0:
        return os.cpu_count() or 1
    return jobs


def task_seed(base_seed: int, *key: Any) -> int:
    """A deterministic 31-bit seed derived from ``base_seed`` and a task key.

    Pure function of its arguments (hash-based, stable across runs and
    machines), so parallel and serial sweeps derive identical seeds.
    """
    digest = hashlib.sha256(repr((base_seed, key)).encode()).digest()
    return int.from_bytes(digest[:4], "big") & 0x7FFFFFFF


def parallel_map(fn: Callable, tasks: Iterable[Sequence],
                 jobs: int = 1) -> list:
    """Apply ``fn(*task)`` to every task, preserving task order.

    With ``jobs <= 1`` (or a single task) this is a plain serial loop.
    Otherwise tasks are submitted to a :class:`ProcessPoolExecutor` and
    results are collected in submission order, so the returned list is
    indistinguishable from the serial one.  ``fn`` and all task
    arguments must be picklable (module-level functions, frozen
    dataclasses, plain data).
    """
    tasks = [tuple(t) for t in tasks]
    if not tasks:
        # nothing to do — and ProcessPoolExecutor(max_workers=0) would
        # raise ValueError if an empty list ever reached the pool path
        return []
    jobs = effective_jobs(jobs)
    if jobs <= 1 or len(tasks) <= 1:
        return [fn(*t) for t in tasks]
    with ProcessPoolExecutor(max_workers=min(jobs, len(tasks))) as pool:
        futures = [pool.submit(fn, *t) for t in tasks]
        return [f.result() for f in futures]

