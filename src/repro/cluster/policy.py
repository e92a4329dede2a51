"""Overload policies: client retries and server admission control.

Production serving stacks survive saturation because both sides of the
connection give ground deliberately: clients retry NAK'd or erred
requests with capped exponential backoff (never hot-looping a melting
server), and servers bound their pending work, shedding the overflow
*explicitly* so clients back off instead of hanging.  This module holds
the two policy records and the tiny wire conventions they share.

Everything is deterministic: backoff jitter draws from the client's own
seeded RNG stream, shedding is a pure function of queue state, and the
NAK markers are static bytes — so a cluster report with retries and
shedding enabled is byte-identical for any ``--jobs``.

Wire conventions (only active when a :class:`RetryPolicy` is set):

* requests carry the issuing request's *absolute deadline* (simulated
  microseconds, 8-byte big-endian integer) in their first bytes, so a
  server can shed work that is already dead on arrival;
* responses carry a one-byte marker: ``RESP_OK`` for a served request,
  ``RESP_SHED`` when admission control dropped it (retryable), and
  ``RESP_EXPIRED`` when its propagated deadline had already passed
  (never retried — the client counts it ``deadline_exceeded`` exactly
  once).
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["RetryPolicy", "ServerPolicy", "DEFAULT_DEADLINE_US",
           "DEADLINE_HDR", "NAK_BYTES", "RESP_OK", "RESP_SHED",
           "RESP_EXPIRED"]

#: the one cluster-wide run deadline default (single source of truth;
#: clients and servers take theirs from :class:`ClusterConfig`)
DEFAULT_DEADLINE_US = 30_000_000.0

#: request header: the absolute per-request deadline, us as uint64
DEADLINE_HDR = 8
#: a NAK response is this long on the wire (marker + padding): exactly
#: the minimum response slot, so it always fits the client's posted
#: receive, and small, so shedding is cheap for server and fabric
NAK_BYTES = 8

RESP_OK = 0
RESP_SHED = 1
RESP_EXPIRED = 2


def _parse_kv(spec: str, what: str) -> dict[str, str]:
    out: dict[str, str] = {}
    for part in spec.split(","):
        part = part.strip()
        if not part:
            continue
        key, sep, value = part.partition("=")
        if not sep:
            raise ValueError(f"bad {what} spec {spec!r}: "
                             f"{part!r} is not key=value")
        out[key.strip()] = value.strip()
    return out


@dataclass(frozen=True)
class RetryPolicy:
    """Client-side retry discipline for NAK'd and erred requests.

    ``backoff_us(attempt, rng)`` is capped exponential with
    symmetric jitter drawn from the caller's seeded stream: attempt 0
    waits ~``base_us``, each further attempt doubles, never exceeding
    ``cap_us``.  ``max_retries`` is the per-request budget; a request
    that exhausts it is counted ``abandoned``.  ``timeout_us`` is the
    per-request deadline measured from the *scheduled* arrival — it is
    propagated to the server in the request header and a response (or
    retry slot) past it counts ``deadline_exceeded``.
    """

    max_retries: int = 3
    base_us: float = 200.0
    cap_us: float = 5_000.0
    jitter: float = 0.5
    timeout_us: float = 50_000.0

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise ValueError("retry budget must be >= 0")
        if self.base_us <= 0 or self.cap_us <= 0:
            raise ValueError("backoff times must be positive")
        if not 0.0 <= self.jitter < 1.0:
            raise ValueError("jitter must be in [0, 1)")
        if self.timeout_us <= 0:
            raise ValueError("per-request timeout must be positive")

    def backoff_us(self, attempt: int, rng) -> float:
        """Deterministic wait before retry number ``attempt`` (0-based)."""
        raw = min(self.cap_us, self.base_us * (2.0 ** attempt))
        if self.jitter:
            raw *= 1.0 + self.jitter * (2.0 * rng.random() - 1.0)
        return raw

    @classmethod
    def parse(cls, spec: str) -> "RetryPolicy | None":
        """Parse the CLI spec: ``off`` | ``on`` | ``budget=3,base=200,
        cap=5000,jitter=0.5,timeout=50000`` (any subset of keys)."""
        spec = spec.strip()
        if spec in ("", "off", "none"):
            return None
        if spec == "on":
            return cls()
        kv = _parse_kv(spec, "retry")
        known = {"budget": "max_retries", "base": "base_us",
                 "cap": "cap_us", "jitter": "jitter",
                 "timeout": "timeout_us"}
        kwargs: dict = {}
        for key, value in kv.items():
            if key not in known:
                raise ValueError(f"unknown retry key {key!r}; "
                                 f"known: {sorted(known)}")
            field = known[key]
            kwargs[field] = int(value) if field == "max_retries" \
                else float(value)
        return cls(**kwargs)


@dataclass(frozen=True)
class ServerPolicy:
    """Server-side admission control and load shedding.

    ``queue_depth`` bounds the pending-work queue the dispatch loop
    drains; overflow is shed deterministically.  ``shed_mode`` picks
    what goes first: ``tail`` drops the newest arrivals (classic
    tail-drop), ``deadline`` first NAKs requests whose propagated
    deadline has already passed, then tail-drops any remaining
    overflow.  Independently of depth, a ``deadline``-mode server sheds
    dead-on-arrival requests before charging service time for them.
    ``max_conns`` caps accepted connections; dials past the cap are
    rejected so clients back off instead of parking forever.
    """

    queue_depth: int | None = None
    shed_mode: str = "tail"
    max_conns: int | None = None

    def __post_init__(self) -> None:
        if self.queue_depth is not None and self.queue_depth < 1:
            raise ValueError("queue depth must be >= 1")
        if self.shed_mode not in ("tail", "deadline"):
            raise ValueError(f"unknown shed mode {self.shed_mode!r}; "
                             "known: tail, deadline")
        if self.max_conns is not None and self.max_conns < 1:
            raise ValueError("connection cap must be >= 1")

    @classmethod
    def parse(cls, spec: str) -> "ServerPolicy | None":
        """Parse the CLI spec: ``none`` | ``depth=64,shed=deadline,
        conns=16`` (any subset of keys)."""
        spec = spec.strip()
        if spec in ("", "off", "none"):
            return None
        kv = _parse_kv(spec, "server-policy")
        kwargs: dict = {}
        for key, value in kv.items():
            if key == "depth":
                kwargs["queue_depth"] = int(value)
            elif key == "shed":
                kwargs["shed_mode"] = value
            elif key == "conns":
                kwargs["max_conns"] = int(value)
            else:
                raise ValueError(f"unknown server-policy key {key!r}; "
                                 "known: depth, shed, conns")
        return cls(**kwargs)
