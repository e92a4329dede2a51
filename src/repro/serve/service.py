"""The experiment service: HTTP/JSON control plane over a worker pool.

Dependency-free (stdlib ``http.server``): a :class:`ThreadingHTTPServer`
front end, a bounded per-client-fair :class:`~repro.serve.jobs.JobQueue`,
and a :class:`~concurrent.futures.ProcessPoolExecutor` that lives as
long as the service, so workers pay their imports once, not per job.

Endpoints (full schemas in ``docs/SERVICE.md``)::

    GET  /healthz            liveness + code version
    GET  /metrics            service counters (repro.obs registry JSON)
    POST /jobs               submit {"spec": ..., "client": ...}
    GET  /jobs               list job summaries
    GET  /jobs/<id>          one job summary
    GET  /jobs/<id>/result   the result payload (byte-identical to CLI)
    GET  /jobs/<id>/events   SSE stream of the job's event log
    POST /jobs/<id>/cancel   cancel queued (immediate) or running job

The front end speaks HTTP/1.1 keep-alive: one handler thread serves
every request of one client connection, ``TCP_NODELAY`` keeps a
response's header and body writes from waiting on a delayed ACK, a
connection idle for :data:`IDLE_TIMEOUT_S` is closed, and ``stop()``
closes the idle ones (see "Transport" in ``docs/SERVICE.md``).

Two kinds of :class:`~repro.serve.cache.ResultCache` entry answer
resubmissions without simulation: whole-spec ``result-<key>.json``
(``cache_hit`` jobs finish at submit time) and, inside cluster sweeps,
per-cell ``cell-<key>.json`` entries shared bit-for-bit with ``vibe
cluster --checkpoint-dir`` campaigns.
"""

from __future__ import annotations

import concurrent.futures
import json
import socket
import threading
import time
from concurrent.futures import ProcessPoolExecutor
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

from ..obs.metrics import MetricsRegistry
from ..executor import effective_jobs
from .cache import CODE_VERSION, ResultCache
from .execute import (assemble_cluster_result, cluster_plan,
                      execute_spec, point_metrics)
from .jobs import Job, JobQueue, QueueFullError
from .spec import ExperimentSpec, SpecError

__all__ = ["ExperimentService", "DEFAULT_PORT", "IDLE_TIMEOUT_S"]

DEFAULT_PORT = 8642
#: seconds a kept connection may wait for its next request before the
#: server closes it (a socket timeout, so a stalled read or write of a
#: request in progress ends the connection too)
IDLE_TIMEOUT_S = 5.0


class ExperimentService:
    """A long-running simulation service; start/stop from any thread."""

    def __init__(self, host: str = "127.0.0.1", port: int = DEFAULT_PORT,
                 workers: int = 0, cache_dir: str = ".vibe-cache",
                 queue_capacity: int = 64,
                 quick_quiesce: bool = False) -> None:
        self.host = host
        self.port = port
        self.workers = effective_jobs(workers or -1)
        self.cache_dir = cache_dir
        self.quick_quiesce = quick_quiesce
        self.cache = ResultCache(cache_dir)
        self.queue = JobQueue(capacity=queue_capacity)
        self.registry = MetricsRegistry()
        self._mlock = threading.Lock()
        self._stopping = threading.Event()
        self._pool: ProcessPoolExecutor | None = None
        self._httpd: ThreadingHTTPServer | None = None
        self._conns = _KeptConnections()
        self._threads: list[threading.Thread] = []
        self._started = False
        with self._mlock:
            self.registry.set_gauge("serve.workers", self.workers)

    # -- lifecycle ---------------------------------------------------

    def start(self) -> None:
        """Bind the port, start the worker pool and runner threads.

        Binding comes first: on a busy port the ``OSError`` propagates
        with the service still unstarted, so ``start()`` can be retried
        and ``stop()`` stays a no-op.
        """
        if self._started:
            raise RuntimeError("service already started")
        self._httpd = ThreadingHTTPServer((self.host, self.port),
                                          _make_handler(self))
        self.port = self._httpd.server_address[1]
        self._pool = ProcessPoolExecutor(max_workers=self.workers)
        self._started = True
        serve = threading.Thread(target=self._httpd.serve_forever,
                                 name="vibe-serve-http", daemon=True)
        serve.start()
        self._threads.append(serve)
        for i in range(self.workers):
            t = threading.Thread(target=self._runner,
                                 name=f"vibe-serve-runner-{i}",
                                 daemon=True)
            t.start()
            self._threads.append(t)

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    def stop(self, drain: bool | None = None) -> None:
        """Shut down; ``drain=True`` (the default) finishes every queued
        and in-flight job first, ``drain=False`` (quick quiesce) cancels
        the queue and waits only for cells already executing.

        New connections are refused at once.  Kept connections still
        answer through the drain (submissions get 503); then the idle
        ones are closed and the busy ones close after their response,
        so no handler thread outlives the service."""
        if not self._started or self._stopping.is_set():
            return
        if drain is None:
            drain = not self.quick_quiesce
        self._stopping.set()
        assert self._httpd is not None and self._pool is not None
        self._httpd.shutdown()
        if not drain:
            self.queue.drain_cancel()
        self.queue.close()
        for t in self._threads[1:]:
            t.join()
        self._pool.shutdown(wait=True)
        self._conns.close_idle()
        # handler threads are not daemons, so this joins every one
        self._httpd.server_close()
        self._threads[0].join(timeout=5.0)

    # -- metrics helpers ---------------------------------------------

    def _inc(self, name: str, by: int = 1) -> None:
        with self._mlock:
            self.registry.inc(name, by)

    def _gauge(self, name: str, value: float) -> None:
        with self._mlock:
            self.registry.set_gauge(name, value)

    def metrics_json(self) -> str:
        with self._mlock:
            self.registry.set_gauge("serve.queue.depth",
                                    self.queue.queued_count())
            self.registry.set_gauge("serve.cache.entries",
                                    len(self.cache))
            return self.registry.to_json(
                meta={"code_version": CODE_VERSION,
                      "workers": self.workers})

    # -- submission --------------------------------------------------

    def submit(self, payload: dict, default_client: str) -> dict:
        """Validate, cache-check, and enqueue one spec; returns the job
        summary.  Raises SpecError (400) or QueueFullError (429)."""
        spec = ExperimentSpec.from_dict(payload.get("spec", {}))
        client = str(payload.get("client") or default_client)
        job = Job(spec, client)
        self._inc("serve.jobs.submitted")
        cached = self.cache.get(job.key)
        if cached is not None:
            # served entirely from the content-addressed cache: the job
            # is born finished, payload byte-identical to the original
            job.cache_hit = True
            job.result = cached
            job.state = "done"
            job.finished_at = time.time()
            self.queue.register(job)
            job.emit("cached", key=job.key)
            job.emit("done", cache_hit=True)
            self._inc("serve.jobs.cache_hits")
            self._inc("serve.jobs.completed")
            return job.summary()
        position = self.queue.submit(job)
        return job.summary(queue_position=position)

    # -- job execution -----------------------------------------------

    def _runner(self) -> None:
        while True:
            job = self.queue.take(timeout=0.2)
            if job is None:
                if self._stopping.is_set() and self.queue.empty():
                    return
                continue
            self._gauge("serve.jobs.running", 1)
            try:
                self._run_job(job)
            except Exception as exc:  # noqa: BLE001 - job isolation
                job.error = f"{type(exc).__name__}: {exc}"
                job.state = "failed"
                job.finished_at = time.time()
                job.emit("failed", error=job.error)
                self._inc("serve.jobs.failed")
            finally:
                self._gauge("serve.jobs.running", 0)

    def _finish(self, job: Job, result: str, cache_hit: bool) -> None:
        job.result = result
        if not cache_hit:
            self.cache.put(job.key, job.spec.to_dict(), result)
        job.cache_hit = cache_hit
        job.state = "done"
        job.finished_at = time.time()
        job.emit("done", cache_hit=cache_hit)
        self._inc("serve.jobs.completed")

    def _cancelled(self, job: Job, where: str) -> None:
        job.state = "cancelled"
        job.finished_at = time.time()
        job.emit("cancelled", where=where)
        self._inc("serve.jobs.cancelled")

    def _run_job(self, job: Job) -> None:
        if job.cancel_requested.is_set():
            self._cancelled(job, "pre-run")
            return
        # re-check the result cache: an identical spec submitted by
        # another client may have finished while this job was queued
        cached = self.cache.get(job.key)
        if cached is not None:
            job.emit("cached", key=job.key)
            self._inc("serve.jobs.cache_hits")
            self._finish(job, cached, cache_hit=True)
            return
        if job.spec.kind == "cluster":
            self._run_cluster_job(job)
        else:
            self._run_single_cell_job(job)

    def _run_single_cell_job(self, job: Job) -> None:
        """run/chaos specs: one pool task computes the whole payload."""
        assert self._pool is not None
        job.cells_total = 1
        job.emit("plan", cells=1, cached_cells=0)
        future = self._pool.submit(execute_spec, job.spec)
        while True:
            try:
                result = future.result(timeout=0.25)
                break
            except concurrent.futures.TimeoutError:
                if job.cancel_requested.is_set() and future.cancel():
                    self._cancelled(job, "queue")
                    return
        job.cells_done = 1
        self._inc("serve.cells.executed")
        job.emit("cell", index=0, cache_hit=False, done=1, total=1)
        if job.cancel_requested.is_set():
            self._cancelled(job, "post-cell")
            return
        self._finish(job, result, cache_hit=False)

    def _run_cluster_job(self, job: Job) -> None:
        """Fan the sweep's cells over the worker pool, streaming each
        completion; cells hit/feed the shared ``cell-<key>`` store."""
        from ..cluster.runner import run_cell

        assert self._pool is not None
        cells, keys = cluster_plan(job.spec)
        job.cells_total = len(cells)
        points: list[dict | None] = [
            self.cache.get_cell(key) for key in keys]
        pending: dict = {}
        job.emit("plan", cells=len(cells),
                 cached_cells=sum(p is not None for p in points))
        for i, (cell, key) in enumerate(zip(cells, keys)):
            if points[i] is not None:
                job.cells_done += 1
                job.cell_cache_hits += 1
                self._inc("serve.cells.cache_hits")
                self._emit_cell(job, i, cells[i], points[i],
                                cache_hit=True)
            else:
                fut = self._pool.submit(run_cell, *cell)
                pending[fut] = (i, key)
        while pending:
            done, _ = concurrent.futures.wait(
                pending, timeout=0.25,
                return_when=concurrent.futures.FIRST_COMPLETED)
            for fut in done:
                i, key = pending.pop(fut)
                point = fut.result()  # a cell crash fails the job
                points[i] = point
                self.cache.put_cell(key, point)
                job.cells_done += 1
                self._inc("serve.cells.executed")
                self._emit_cell(job, i, cells[i], point, cache_hit=False)
            if job.cancel_requested.is_set() and pending:
                # unstarted cells are dropped; cells already executing
                # run to completion and are persisted so no simulated
                # work is wasted and no pool worker is left wedged
                still_running = [f for f in pending if not f.cancel()]
                for fut in still_running:
                    i, key = pending[fut]
                    self.cache.put_cell(key, fut.result())
                    self._inc("serve.cells.executed")
                self._cancelled(job, "mid-sweep")
                return
        if job.cancel_requested.is_set():
            self._cancelled(job, "post-sweep")
            return
        result = assemble_cluster_result(job.spec, points)
        self._finish(job, result, cache_hit=False)

    def _emit_cell(self, job: Job, index: int, cell: tuple, point: dict,
                   cache_hit: bool) -> None:
        provider, _cfg, rate, _check = cell
        job.emit("cell", index=index, provider=provider, rate=rate,
                 cache_hit=cache_hit, done=job.cells_done,
                 total=job.cells_total, metrics=point_metrics(point))


# -- HTTP layer ------------------------------------------------------


class _KeptConnections:
    """Open client connections and whether each is idle between
    requests, so ``stop()`` closes only connections whose next request
    has not been read: a client may resend such a request elsewhere."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._idle: dict[socket.socket, bool] = {}
        self._closing = False

    def wait(self, sock: socket.socket) -> bool:
        """Mark ``sock`` idle before its next request is read; False
        once the service closes its connections."""
        with self._lock:
            if self._closing:
                return False
            self._idle[sock] = True
            return True

    def busy(self, sock: socket.socket) -> bool:
        """A request line arrived; False if ``close_idle`` came first."""
        with self._lock:
            if sock not in self._idle:
                return False
            self._idle[sock] = False
            return True

    def drop(self, sock: socket.socket) -> None:
        with self._lock:
            self._idle.pop(sock, None)

    def close_idle(self) -> None:
        """Close every idle connection; a busy one closes after its
        response, when it would next wait."""
        with self._lock:
            self._closing = True
            for sock in [s for s, idle in self._idle.items() if idle]:
                del self._idle[sock]
                try:
                    sock.shutdown(socket.SHUT_RDWR)  # wakes its reader
                except OSError:  # the client closed it first
                    pass


def _make_handler(service: ExperimentService):
    conns = service._conns

    class Handler(BaseHTTPRequestHandler):
        protocol_version = "HTTP/1.1"
        timeout = IDLE_TIMEOUT_S

        def log_message(self, *_args) -> None:  # silence per-request spam
            pass

        # -- connection ----------------------------------------------

        def setup(self) -> None:
            # a response goes out as two writes, headers then body; with
            # Nagle on, the body waits for the client to ACK the headers,
            # which a kept connection's client delays by up to 40 ms
            self.request.setsockopt(socket.IPPROTO_TCP,
                                    socket.TCP_NODELAY, 1)
            super().setup()
            service._inc("serve.http.connections")

        def handle(self) -> None:
            self.close_connection = False
            try:
                while not self.close_connection \
                        and conns.wait(self.request):
                    self.handle_one_request()
            except ConnectionError:  # the client went away
                pass

        def parse_request(self) -> bool:
            if not conns.busy(self.request):
                # stop() closed the connection while it was idle: the
                # request is dropped unread, so resending it is safe
                self.close_connection = True
                return False
            if not super().parse_request():
                return False
            # read the whole body before any route answers, so the
            # connection's next request parses
            length = self.headers.get("Content-Length", "")
            if length.isdigit():
                self.body = self.rfile.read(int(length))
            elif not length and "Transfer-Encoding" not in self.headers:
                self.body = b""
            else:
                self._json(411, {"error": "a request body needs a "
                                          "Content-Length"},
                           headers={"Connection": "close"})
                return False
            return True

        def finish(self) -> None:
            conns.drop(self.request)
            super().finish()

        # -- helpers -------------------------------------------------

        def _json(self, code: int, obj: dict,
                  headers: dict | None = None) -> None:
            self._raw(code, json.dumps(obj, sort_keys=True).encode(),
                      headers=headers)

        def _raw(self, code: int, body: bytes,
                 content_type: str = "application/json",
                 headers: dict | None = None) -> None:
            self.send_response(code)
            self.send_header("Content-Type", content_type)
            self.send_header("Content-Length", str(len(body)))
            for k, v in (headers or {}).items():
                self.send_header(k, v)
            self.end_headers()
            self.wfile.write(body)

        @staticmethod
        def _payload(raw: bytes) -> dict:
            try:
                payload = json.loads(raw or b"{}")
            except ValueError as exc:
                raise SpecError(f"request body is not JSON: {exc}") \
                    from None
            if not isinstance(payload, dict):
                raise SpecError("request body must be a JSON object")
            return payload

        def _job_or_404(self, job_id: str):
            job = service.queue.get(job_id)
            if job is None:
                self._json(404, {"error": f"no job {job_id!r}"})
            return job

        # -- methods -------------------------------------------------

        def do_GET(self) -> None:  # noqa: N802 - http.server API
            service._inc("serve.http.requests")
            parts = [p for p in self.path.split("?")[0].split("/") if p]
            if parts == ["healthz"]:
                self._json(200, {"ok": True,
                                 "code_version": CODE_VERSION,
                                 "workers": service.workers})
            elif parts == ["metrics"]:
                self._raw(200, service.metrics_json().encode())
            elif parts == ["jobs"]:
                jobs = service.queue.jobs()
                self._json(200, {"jobs": [j.summary() for j in jobs]})
            elif len(parts) == 2 and parts[0] == "jobs":
                job = self._job_or_404(parts[1])
                if job is not None:
                    pos = (service.queue.position(job)
                           if job.state == "queued" else None)
                    self._json(200, job.summary(queue_position=pos))
            elif len(parts) == 3 and parts[0] == "jobs" \
                    and parts[2] == "result":
                job = self._job_or_404(parts[1])
                if job is None:
                    pass
                elif job.result is None:
                    self._json(409, {"error": f"job {job.id} is "
                                              f"{job.state}; no "
                                              "result yet"})
                else:
                    # the payload must stay byte-identical to the
                    # direct CLI output, so the cache-hit marker
                    # travels in a header, never in the body
                    self._raw(200, job.result.encode(), headers={
                        "X-VIBE-Cache":
                            "hit" if job.cache_hit else "miss",
                        "X-VIBE-Key": job.key,
                    })
            elif len(parts) == 3 and parts[0] == "jobs" \
                    and parts[2] == "events":
                job = self._job_or_404(parts[1])
                if job is not None:
                    self._stream(job)
            else:
                self._json(404, {"error": f"no route {self.path!r}"})

        def do_POST(self) -> None:  # noqa: N802 - http.server API
            service._inc("serve.http.requests")
            parts = [p for p in self.path.split("?")[0].split("/") if p]
            try:
                if parts == ["jobs"]:
                    if service._stopping.is_set():
                        self._json(503, {"error": "shutting down"})
                        return
                    payload = self._payload(self.body)
                    summary = service.submit(
                        payload, default_client=self.client_address[0])
                    self._json(201, summary)
                elif len(parts) == 3 and parts[0] == "jobs" \
                        and parts[2] == "cancel":
                    job = self._job_or_404(parts[1])
                    if job is not None:
                        ok = service.queue.cancel(job.id)
                        self._json(200, {"cancelled": ok,
                                         "state": job.state})
                else:
                    self._json(404, {"error": f"no route {self.path!r}"})
            except SpecError as exc:
                self._json(400, {"error": str(exc)})
            except QueueFullError as exc:
                self._json(429, {"error": str(exc)})

        # -- SSE -----------------------------------------------------

        def _stream(self, job) -> None:
            """Server-sent events: replay the job's event log from the
            start, then follow it live until the job finishes.  The log
            is append-only, so every subscriber — early or late — sees
            every event exactly once."""
            self.send_response(200)
            self.send_header("Content-Type", "text/event-stream")
            self.send_header("Cache-Control", "no-cache")
            self.send_header("Connection", "close")
            self.end_headers()
            idx = 0
            while True:
                while idx < len(job.events):
                    event = job.events[idx]
                    idx += 1
                    data = json.dumps(event, sort_keys=True)
                    self.wfile.write(
                        f"event: {event['event']}\n"
                        f"data: {data}\n\n".encode())
                self.wfile.flush()
                if job.finished and idx >= len(job.events):
                    break
                if service._stopping.is_set():
                    break
                service.queue.wait_event(job, idx, timeout=0.25)
            self.wfile.write(b"event: end\ndata: {}\n\n")
            self.wfile.flush()

    return Handler
