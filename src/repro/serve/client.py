"""Service client: stdlib-urllib wrapper over the control-plane API.

Used by ``vibe submit`` / ``vibe jobs`` and by the tests; knows how to
submit specs, poll for completion, fetch byte-exact results, and parse
the ``/jobs/<id>/events`` SSE stream into a sequence of event dicts.
"""

from __future__ import annotations

import json
import time
import urllib.error
import urllib.request

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

    # -- plumbing ----------------------------------------------------

    def _request(self, method: str, path: str, payload: dict | None = None):
        data = None
        headers = {"Accept": "application/json"}
        if payload is not None:
            data = json.dumps(payload).encode()
            headers["Content-Type"] = "application/json"
        req = urllib.request.Request(f"{self.base_url}{path}", data=data,
                                     headers=headers, method=method)
        try:
            return urllib.request.urlopen(req, timeout=self.timeout)
        except urllib.error.HTTPError as exc:
            try:
                message = json.loads(exc.read() or b"{}").get(
                    "error", exc.reason)
            except ValueError:
                message = str(exc.reason)
            raise ServiceError(exc.code, message) from None
        except urllib.error.URLError as exc:
            raise ServiceError(0, f"cannot reach {self.base_url}: "
                                  f"{exc.reason}") from None

    def _json(self, method: str, path: str,
              payload: dict | None = None) -> dict:
        with self._request(method, path, payload) as resp:
            return json.loads(resp.read())

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
        with self._request("GET", f"/jobs/{job_id}/result") as resp:
            body = resp.read().decode()
            hit = resp.headers.get("X-VIBE-Cache") == "hit"
        return body, hit

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
        ``end`` sentinel (which is not yielded)."""
        with self._request("GET", f"/jobs/{job_id}/events") as resp:
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
