"""Differential cross-provider testing.

All four simulated stacks (mvia, bvia, clan, iba) implement the same
VIA spec over very different design choices, so any *structural* result
— payload bytes delivered, message counts, completion statuses,
descriptor bookkeeping — must be identical across them even though
every timing differs.  This module runs a small canon of workloads on
each provider under the conformance checker and compares their
structural signatures pairwise; a divergence means one stack bent the
spec.

A second cross-check fits the LogGP model (``repro.models.logp``) to a
quick base latency/bandwidth sweep per provider: base transfers are by
construction linear in message size, so a poor linear fit flags a
provider whose timing model went nonlinear where the paper says it
must not.
"""

from __future__ import annotations

import hashlib

from .. import programs
from ..providers.registry import ALL_PROVIDERS, Testbed
from ..via.constants import Reliability

__all__ = ["ALL_PROVIDERS", "WORKLOADS", "run_workload",
           "compare_signatures", "logp_consistency"]

#: workload -> (program, its shape, signature key of the digest of what
#: its receives saw, (key, ``Seen`` field) of a per-receive tuple or None)
WORKLOADS = {
    # unreliable ping-pong with per-iteration payloads
    "pingpong": (programs.pingpong,
                 {"size": 512, "count": 4,
                  "reliability": Reliability.UNRELIABLE},
                 "echo", ("statuses", "status")),
    # windowed reliable-delivery stream; multi-fragment messages
    "stream": (programs.stream,
               {"size": 1500, "count": 12, "window": 4,
                "reliability": Reliability.RELIABLE_DELIVERY},
               "stream", ("statuses", "status")),
    # reliable RDMA writes with immediate data into a peer region
    "rdma_write": (programs.rdma_write,
                   {"size": 1024, "count": 3,
                    "reliability": Reliability.RELIABLE_DELIVERY},
                   "placed", ("immediates", "immediate")),
    # reliable-reception ping-pong with three-segment descriptors
    "segmented": (programs.pingpong,
                  {"size": 600, "count": 2, "segments": 3,
                   "reliability": Reliability.RELIABLE_RECEPTION},
                  "echo", None),
}


def _digest(chunks) -> str:
    h = hashlib.sha256()
    for c in chunks:
        h.update(c)
    return h.hexdigest()[:16]


# ---------------------------------------------------------------------------
# signatures and comparison
# ---------------------------------------------------------------------------

def run_workload(provider: str, workload: str, seed: int = 0,
                 check: bool = True, fidelity: str = "packet") -> dict:
    """Run one workload on one provider under the checker.

    Returns the structural signature: workload-specific digests plus
    provider-independent bookkeeping (message counts, posted/completed
    totals, fault counters, checker totals).  Raises
    :class:`~repro.check.invariants.ConformanceError` on any invariant
    violation, including the end-of-run quiesce audit.

    ``check=False`` skips the conformance checker (an armed checker
    forces every message down the packet path, so fast-forward
    equivalence tests compare unchecked runs); ``fidelity`` selects the
    simulation mode as on :class:`~repro.providers.registry.Testbed`.
    """
    program, shape, digest_key, per_receive = WORKLOADS[workload]
    tb = Testbed(provider, seed=seed, check=check, fidelity=fidelity)
    prog = program(tb, **shape)
    prog.run()
    tb.run()          # drain teardown events before the quiesce audit
    sig = {digest_key: _digest(s.payload for s in prog.seen)}
    if per_receive is not None:
        key, field = per_receive
        sig[key] = tuple(getattr(s, field) for s in prog.seen)
    if check:
        tb.checker.check_quiesced(tb)
        chk = tb.checker
        sig["checker"] = (chk.posts, chk.completions, chk.deliveries)
    for name, p in sorted(tb.providers.items()):
        e = p.engine
        sig[f"{name}.messages"] = (e.messages_sent, e.messages_received)
        sig[f"{name}.faults"] = (e.retransmissions, e.naks_sent, e.drops)
        posted = {"send": 0, "recv": 0}
        completed = {"send": 0, "recv": 0}
        for vi in p.vis.values():
            for wq in (vi.send_q, vi.recv_q):
                posted[wq.kind] += wq.total_posted
                completed[wq.kind] += wq.total_completed
        sig[f"{name}.posted"] = (posted["send"], posted["recv"])
        sig[f"{name}.completed"] = (completed["send"], completed["recv"])
    tb.close()
    return sig


def compare_signatures(table: dict, providers) -> list[str]:
    """Pairwise-compare per-workload signatures against the first
    provider's; returns human-readable mismatch descriptions."""
    mismatches: list[str] = []
    for workload, sigs in table.items():
        present = [p for p in providers if p in sigs]
        if not present:
            continue
        ref_name, ref = present[0], sigs[present[0]]
        for p in present[1:]:
            sig = sigs[p]
            for key in sorted(set(ref) | set(sig)):
                if ref.get(key) != sig.get(key):
                    mismatches.append(
                        f"{workload}: {key} diverges — {ref_name} has "
                        f"{ref.get(key)!r}, {p} has {sig.get(key)!r}"
                    )
    return mismatches


# ---------------------------------------------------------------------------
# LogGP cross-check
# ---------------------------------------------------------------------------

def logp_consistency(provider: str,
                     sizes: tuple[int, ...] = (64, 1024, 4096),
                     max_rel_err: float = 0.25) -> dict:
    """Fit LogGP on a quick checked sweep and score self-consistency.

    Base latency is linear in size by construction, so the
    three-parameter model must reproduce the measured points closely;
    drift beyond ``max_rel_err`` means a provider's cost accounting
    went nonlinear where the model says it cannot.
    """
    from ..models.logp import fit_loggp
    from ..vibe.harness import TransferConfig, run_bandwidth, run_latency
    from ..vibe.metrics import BenchResult

    lat_points = [
        run_latency(provider,
                    TransferConfig(size=s, iters=8, warmup=2, check=True))
        for s in sizes
    ]
    bw_points = [
        run_bandwidth(provider,
                      TransferConfig(size=s, count=40, check=True))
        for s in sizes
    ]
    fit = fit_loggp(BenchResult("base_latency", provider, lat_points),
                    BenchResult("base_bandwidth", provider, bw_points))
    errs = [abs(fit.predict_latency(s) - m.latency_us) / m.latency_us
            for s, m in zip(sizes, lat_points)]
    mean_err = sum(errs) / len(errs)
    bw_ratio = (fit.predict_bandwidth(sizes[-1])
                / bw_points[-1].bandwidth_mbs)
    ok = (mean_err <= max_rel_err and fit.G > 0
          and 1.0 / 3.0 <= bw_ratio <= 3.0)
    return {
        "provider": provider,
        "mean_rel_err": round(mean_err, 4),
        "bw_ratio": round(bw_ratio, 3),
        "L": round(fit.L, 3),
        "G": round(fit.G, 6),
        "ok": ok,
    }
