"""Traced-run instruments: boundary spans and a sampling profiler.

Both live in the benchmark, never in the program: spans wrap the calls
the benchmark makes into a layer, and the profiler attributes host time
to ``repro`` packages by sampling every thread's stack.  Neither is
active in an untraced run — :data:`NO_SPANS` is a no-op stand-in.
"""

from __future__ import annotations

import itertools
import os
import sys
import threading
import time
from contextlib import contextmanager

#: repro package -> reported layer; anything under ``repro`` not named
#: here (``models``, ``units``, ``cli``) and every frame with no repro
#: caller counts as ``other``
PACKAGE_LAYER = {
    "sim": "sim", "hw": "hw", "providers": "providers", "via": "via",
    "vibe": "vibe", "layers": "layers", "cluster": "cluster",
    "serve": "serve", "snap": "snap", "obs": "obs",
    "check": "hooks", "faults": "hooks", "shard": "hooks",
}
LAYERS = ("sim", "hw", "providers", "via", "vibe", "layers", "cluster",
          "serve", "snap", "obs", "hooks", "other", "idle")

#: innermost frames of a thread parked in a blocking call (the GIL is
#: released there): lock/condition waits, selector polls, socket reads
_BLOCKING = {
    ("threading.py", "wait"), ("threading.py", "_wait_for_tstate_lock"),
    ("selectors.py", "select"), ("socket.py", "readinto"),
    ("socket.py", "accept"),
}


class SpanLog:
    """In-memory spans: name, start, end, parent span and op id.

    Spans nest per thread; ``op`` ties every span of one operation
    (a cell, a stream, a job) together and is inherited from the parent
    when not given.
    """

    def __init__(self) -> None:
        self.records: list[tuple] = []   # (id, parent, op, name, thread, t0, t1)
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()

    @contextmanager
    def span(self, name: str, op=None):
        stack = self._local.__dict__.setdefault("stack", [])
        parent = stack[-1] if stack else (0, None)
        sid = next(self._ids)
        op = parent[1] if op is None else op
        stack.append((sid, op))
        t0 = time.perf_counter()
        try:
            yield
        finally:
            t1 = time.perf_counter()
            stack.pop()
            with self._lock:
                self.records.append((sid, parent[0], op, name,
                                     threading.current_thread().name, t0, t1))

    def mark(self, name: str, t0: float, t1: float, op) -> None:
        """Record an interval measured elsewhere (e.g. between two SSE
        event arrivals) under the calling thread's current span."""
        stack = self._local.__dict__.setdefault("stack", [])
        parent = stack[-1][0] if stack else 0
        with self._lock:
            self.records.append((next(self._ids), parent, op, name,
                                 threading.current_thread().name, t0, t1))

    def names(self) -> set[str]:
        return {r[3] for r in self.records}

    def write_chrome_trace(self, path: str, label: str) -> None:
        """Perfetto-loadable Chrome-trace JSON (one track per thread)."""
        from repro.obs import Span, write_chrome_trace

        base = min((r[5] for r in self.records), default=0.0)
        spans = [
            Span(name, (t0 - base) * 1e6, (t1 - base) * 1e6,
                 category=thread, node=label,
                 args={"span": sid, "parent": parent, "op": str(op)})
            for sid, parent, op, name, thread, t0, t1 in self.records
        ]
        write_chrome_trace(path, spans=spans, meta={"benchmark": label})


class _NoSpans:
    """Untraced stand-in: every span is a no-op."""

    @contextmanager
    def span(self, name: str, op=None):
        yield

    def mark(self, name: str, t0: float, t1: float, op) -> None:
        pass


NO_SPANS = _NoSpans()


class SamplingProfiler:
    """Charge periodic stack samples of every thread to a layer.

    Each sample goes to the ``repro.<pkg>`` of the innermost repro
    frame, so stdlib and numpy frames count toward their nearest repro
    caller; a thread parked in a blocking call counts as ``idle``.
    The sampler asks for a sample every ``interval`` seconds; with one
    busy thread holding the GIL the realised rate is set by the
    interpreter's switch interval.  Samples whose innermost frame runs
    one of the ``skip`` functions (the benchmark's own reference kernel)
    are not counted.
    """

    def __init__(self, interval: float = 0.001, skip=()) -> None:
        import repro

        self.interval = interval
        self._skip = {fn.__code__ for fn in skip}
        self.counts = dict.fromkeys(LAYERS, 0)
        self._root = os.path.dirname(os.path.abspath(repro.__file__)) + os.sep
        self._layer_of: dict[str, str | None] = {}
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop,
                                        name="e2e-sampler", daemon=True)

    def __enter__(self) -> "SamplingProfiler":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()

    def fractions(self) -> dict[str, float]:
        total = sum(self.counts.values()) or 1
        return {layer: n / total for layer, n in self.counts.items()}

    @property
    def samples(self) -> int:
        return sum(self.counts.values())

    def _file_layer(self, filename: str) -> str | None:
        layer = self._layer_of.get(filename, "")
        if layer == "":
            layer = None
            if filename.startswith(self._root):
                head = filename[len(self._root):].split(os.sep, 1)
                pkg = head[0] if len(head) == 2 else ""
                layer = PACKAGE_LAYER.get(pkg, "other")
            self._layer_of[filename] = layer
        return layer

    def classify(self, frame) -> str:
        code = frame.f_code
        if (os.path.basename(code.co_filename), code.co_name) in _BLOCKING:
            return "idle"
        while frame is not None:
            layer = self._file_layer(frame.f_code.co_filename)
            if layer is not None:
                return layer
            frame = frame.f_back
        return "other"

    def _loop(self) -> None:
        me = threading.get_ident()
        counts = self.counts
        while not self._stop.wait(self.interval):
            for tid, frame in sys._current_frames().items():
                if tid != me and frame.f_code not in self._skip:
                    counts[self.classify(frame)] += 1
