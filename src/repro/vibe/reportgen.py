"""One-shot report generation: regenerate the whole paper as Markdown.

``vibe report --out report/`` runs Table 1 and every figure, the
component breakdowns, and the LogGP fits, then writes a single
``REPORT.md`` (with per-experiment text files alongside) — the artifact
a platform maintainer would publish for their stack.
"""

from __future__ import annotations

import pathlib

from ..via.constants import WaitMode
from . import (
    base_transfer,
    clientserver,
    cq_bench,
    multivi,
    nondata,
    addrtrans,
)
from ..executor import parallel_map
from .report import render_figure, render_memreg, render_table1
from .suite import DEFAULT_PROVIDERS

__all__ = ["generate_report"]


def generate_report(out_dir: "str | pathlib.Path",
                    providers=DEFAULT_PROVIDERS,
                    quick: bool = False,
                    jobs: int = 1) -> pathlib.Path:
    """Run the core suite and write REPORT.md; returns its path.

    ``jobs`` fans the independent per-provider simulations of each
    section over worker processes (see :mod:`repro.executor`);
    the report content is identical for any ``jobs`` value.
    """
    # deferred: repro.models pulls the vibe harness back in (cycle)
    from ..models.breakdown import latency_breakdown, render_breakdowns
    from ..models.logp import extract

    out = pathlib.Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    sizes = [4, 256, 1024, 4096, 12288, 28672] if quick else None
    sections: list[tuple[str, str]] = []

    # Table 1
    nd = dict(zip(providers, parallel_map(
        nondata.nondata_costs, [(p, 3) for p in providers], jobs)))
    sections.append(("Table 1 — non-data-transfer costs",
                     render_table1(nd)))

    # Figs. 1 & 2
    mr = dict(zip(providers, parallel_map(
        nondata.memreg_sweep, [(p, sizes) for p in providers], jobs)))
    sections.append(("Fig. 1 — memory registration",
                     render_memreg(mr, "register_us")))
    sections.append(("Fig. 2 — memory deregistration",
                     render_memreg(mr, "deregister_us")))

    # Fig. 3
    lat = parallel_map(base_transfer.base_latency,
                       [(p, sizes) for p in providers], jobs)
    bw = parallel_map(base_transfer.base_bandwidth,
                      [(p, sizes) for p in providers], jobs)
    sections.append(("Fig. 3 — base latency, polling (us)",
                     render_figure(lat, "latency_us", "")))
    sections.append(("Fig. 3 — base bandwidth, polling (MB/s)",
                     render_figure(bw, "bandwidth_mbs", "")))

    # Fig. 4
    blat = parallel_map(base_transfer.base_latency,
                        [(p, sizes, WaitMode.BLOCK) for p in providers],
                        jobs)
    sections.append(("Fig. 4 — latency, blocking (us)",
                     render_figure(blat, "latency_us", "")))
    sections.append(("Fig. 4 — sender CPU utilisation, blocking",
                     render_figure(blat, "cpu_send", "")))

    # Fig. 5 (BVIA) — reduced levels in quick mode
    levels = (1.0, 0.5, 0.0) if quick else (1.0, 0.75, 0.5, 0.25, 0.0)
    ru = addrtrans.reuse_latency("bvia", sizes, reuse_levels=levels,
                                 iters=32, jobs=jobs)
    sections.append(("Fig. 5 — BVIA latency vs buffer reuse (us)",
                     render_figure(ru, "latency_us", "")))

    # §4.3.3 CQ overhead
    cq = parallel_map(cq_bench.cq_overhead,
                      [(p, [4, 1024]) for p in providers], jobs)
    from .metrics import merge_tables

    sections.append(("§4.3.3 — completion-queue overhead (us)",
                     merge_tables(cq, "overhead_us", "")))

    # Fig. 6
    mv = parallel_map(multivi.multivi_latency,
                      [(p,) for p in providers], jobs)
    sections.append(("Fig. 6 — latency vs #active VIs, 4 B (us)",
                     render_figure(mv, "latency_us", "")))

    # Fig. 7
    for req in (16, 256):
        cs = parallel_map(clientserver.client_server,
                          [(p, req, sizes, 16) for p in providers], jobs)
        sections.append((f"Fig. 7 — client/server, request {req} B (tps)",
                         render_figure(cs, "tps", "")))

    # observability: one profiled ping-pong per provider
    from ..obs.profile import profile_transfer

    profiles = parallel_map(profile_transfer,
                            [(p, 256, 0) for p in providers], jobs)
    sections.append(("Profiled 256 B ping-pong (phase spans)",
                     "\n\n".join(p.summary() for p in profiles)))

    # component breakdowns + LogGP
    bds = parallel_map(latency_breakdown,
                       [(p, 1024) for p in providers], jobs)
    sections.append(("Component breakdown, 1 KiB transfer (us)",
                     render_breakdowns(bds)))
    fits = [extract(p, sizes=[4, 1024, 4096, 12288]) for p in providers]
    loggp = ["provider    L+2o (us)   G (us/B)    g (us)"]
    for fit in fits:
        loggp.append(f"{fit.provider:<10s} {fit.L + 2 * fit.o:9.2f} "
                     f"{fit.G:10.4f} {fit.g:9.2f}")
    sections.append(("LogGP parameters (fitted)", "\n".join(loggp)))

    # assemble
    from .. import __version__

    lines = ["# VIBe report", "",
             f"Package: repro {__version__}.  "
             f"Providers: {', '.join(providers)}.  All numbers from the",
             "deterministic simulation; regenerate with `vibe report`.",
             ""]
    for i, (title, body) in enumerate(sections, start=1):
        stem = "".join(c if c.isalnum() else "_"
                       for c in title.lower()).strip("_")[:48]
        (out / f"{i:02d}_{stem}.txt").write_text(body + "\n")
        lines += [f"## {title}", "", "```", body, "```", ""]
    path = out / "REPORT.md"
    path.write_text("\n".join(lines))
    return path
