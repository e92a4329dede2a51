"""Service client: a stdlib ``http.client`` wrapper over the control-plane API.

Used by ``vibe submit`` / ``vibe jobs`` and by the tests; knows how to
submit specs, poll for completion, fetch byte-exact results, and parse
the ``/jobs/<id>/events`` SSE stream into a sequence of event dicts.

Every call but :meth:`ServiceClient.follow` goes over one kept HTTP/1.1
connection, opened on first use and guarded by a lock, so the calls of
a shared client run one at a time.  When a *reused* connection fails
before any byte of the response, the call is sent once more on a new
connection.  The service closes a connection only while it waits for
the next request, so the failed request was never read and resending
it cannot submit a job twice.  :meth:`~ServiceClient.follow` streams on
a connection of its own, which a long stream therefore never blocks.
"""

from __future__ import annotations

import http.client
import json
import threading
import time
import urllib.parse

__all__ = ["ServiceClient", "ServiceError"]


class ServiceError(RuntimeError):
    """An API call failed; carries the HTTP status and server message."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(f"HTTP {status}: {message}")
        self.status = status


class ServiceClient:
    """Talk to one ``vibe serve`` instance at ``base_url``."""

    def __init__(self, base_url: str, client: str = "",
                 timeout: float = 30.0) -> None:
        self.base_url = base_url.rstrip("/")
        self.client = client
        self.timeout = timeout
        url = urllib.parse.urlsplit(self.base_url)
        self._host, self._port = url.hostname, url.port
        self._prefix = url.path
        self._lock = threading.Lock()
        self._conn: http.client.HTTPConnection | None = None

    def close(self) -> None:
        """Close the kept connection; the next call opens a new one."""
        with self._lock:
            if self._conn is not None:
                self._conn.close()
                self._conn = None

    def __enter__(self) -> "ServiceClient":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()

    # -- plumbing ----------------------------------------------------

    def _connect(self) -> http.client.HTTPConnection:
        return http.client.HTTPConnection(self._host, self._port,
                                          timeout=self.timeout)

    def _unreachable(self, exc: Exception) -> ServiceError:
        return ServiceError(0, f"cannot reach {self.base_url}: {exc}")

    def _send(self, conn: http.client.HTTPConnection, method: str,
              path: str, payload: dict | None) -> http.client.HTTPResponse:
        """One request on ``conn``; its response, body not yet read."""
        body = None
        headers = {"Accept": "application/json"}
        if payload is not None:
            body = json.dumps(payload).encode()
            headers["Content-Type"] = "application/json"
        conn.request(method, self._prefix + path, body=body, headers=headers)
        return conn.getresponse()

    def _request(self, method: str, path: str,
                 payload: dict | None = None) -> tuple[bytes, dict]:
        """The response body and headers of one call on the kept
        connection; ServiceError on an HTTP error or an unreachable
        service."""
        with self._lock:
            reused = self._conn is not None and self._conn.sock is not None
            if self._conn is None:
                self._conn = self._connect()
            try:
                try:
                    resp = self._send(self._conn, method, path, payload)
                except ConnectionError:  # RemoteDisconnected included
                    if not reused:
                        raise
                    # closed while idle: the request was never read
                    self._conn.close()
                    resp = self._send(self._conn, method, path, payload)
                body = resp.read()
            except (OSError, http.client.HTTPException) as exc:
                self._conn.close()
                raise self._unreachable(exc) from None
            return self._check(resp, body), resp.headers

    @staticmethod
    def _check(resp: http.client.HTTPResponse, body: bytes) -> bytes:
        if resp.status < 400:
            return body
        try:
            message = json.loads(body or b"{}").get("error", resp.reason)
        except ValueError:
            message = resp.reason
        raise ServiceError(resp.status, message)

    def _json(self, method: str, path: str,
              payload: dict | None = None) -> dict:
        return json.loads(self._request(method, path, payload)[0])

    # -- API ---------------------------------------------------------

    def health(self) -> dict:
        return self._json("GET", "/healthz")

    def metrics(self) -> dict:
        return self._json("GET", "/metrics")

    def submit(self, spec: dict, client: str | None = None) -> dict:
        """POST one spec; returns the job summary (maybe already done)."""
        payload: dict = {"spec": spec}
        name = client if client is not None else self.client
        if name:
            payload["client"] = name
        return self._json("POST", "/jobs", payload)

    def job(self, job_id: str) -> dict:
        return self._json("GET", f"/jobs/{job_id}")

    def jobs(self) -> list[dict]:
        return self._json("GET", "/jobs")["jobs"]

    def cancel(self, job_id: str) -> dict:
        return self._json("POST", f"/jobs/{job_id}/cancel")

    def result(self, job_id: str) -> tuple[str, bool]:
        """The finished job's payload bytes (as str) and cache-hit flag.

        The payload is returned exactly as served — callers that write
        it to disk get bytes identical to the direct CLI's ``--json-out``.
        """
        body, headers = self._request("GET", f"/jobs/{job_id}/result")
        return body.decode(), headers.get("X-VIBE-Cache") == "hit"

    def wait(self, job_id: str, timeout: float = 300.0,
             poll: float = 0.2) -> dict:
        """Poll until the job leaves the queued/running states."""
        deadline = time.monotonic() + timeout  # immune to clock steps
        while True:
            summary = self.job(job_id)
            if summary["state"] not in ("queued", "running"):
                return summary
            if time.monotonic() >= deadline:
                raise ServiceError(0, f"timed out waiting for {job_id} "
                                      f"(state {summary['state']})")
            time.sleep(poll)

    def follow(self, job_id: str):
        """Yield the job's SSE events as dicts, ending after the final
        ``end`` sentinel (which is not yielded).  The stream has a
        connection of its own, closed when the generator ends."""
        conn = self._connect()
        try:
            try:
                resp = self._send(conn, "GET", f"/jobs/{job_id}/events",
                                  None)
            except (OSError, http.client.HTTPException) as exc:
                raise self._unreachable(exc) from None
            if resp.status >= 400:
                self._check(resp, resp.read())
            data_lines: list[bytes] = []
            for raw in resp:
                line = raw.rstrip(b"\r\n")
                if line.startswith(b"data:"):
                    data_lines.append(line[5:].strip())
                elif line == b"" and data_lines:
                    event = json.loads(b"\n".join(data_lines))
                    data_lines = []
                    if not event:  # the {} payload of "event: end"
                        return
                    yield event
        finally:
            conn.close()
