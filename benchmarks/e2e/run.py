#!/usr/bin/env python3
"""The repo's end-to-end benchmark: four workloads, one command.

Run from the repository root::

    python3 benchmarks/e2e/run.py                          # all workloads
    python3 benchmarks/e2e/run.py --workload bulk_stream   # one workload
    python3 benchmarks/e2e/run.py --seed 7 --seconds 20
    python3 benchmarks/e2e/run.py --trace 1                # per-layer run

Every workload runs in fresh interpreters: one start that also
measures, with ``SETUP_SAMPLES - 1`` set-up-only starts around it, so
``setup_s`` is the median of ``SETUP_SAMPLES`` cold starts.  Like
``norm_ops_per_s``, it is quoted at the reference speed: the median
start is divided by the median time ``workloads.reference_kernel`` takes
in the children right after set-up.  The host-second figures are
printed beside them and reported as per-layer metrics.  The command
prints every metric named in ``BENCHMARK.json`` with its unit and sample
count, checks every workload's outputs (including the seed-0 digests
pinned in ``digests.json``), and ends with one JSON line::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

That line is printed even when a workload crashes: the crash fails all
of that workload's ops and the remaining workloads still run.

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` re-runs the
window with boundary spans and a sampling profiler and reports the
per-layer metrics, writing a Chrome-trace file (open it in Perfetto).
Exit status: 0 when every check passed, 1 when a check failed or a
workload crashed, 2 when the tree holds no ``src/repro`` to measure.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import signal
import statistics
import subprocess
import sys
import threading
import time

import workloads

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parents[1]
OUT_DIR = HERE / "out"
#: pinned seed-0 output digests, written by calibrate.py
DIGESTS = HERE / "digests.json"
#: cold starts per run; a start takes 0.2-0.5 s, so with 5 one slow
#: process launch still moved the median by up to 36% between runs
SETUP_SAMPLES = 9
WORKLOAD_NAMES = ("paper_suite", "bulk_stream", "cluster_sweep", "serve_mixed")
#: a child that has not reported within this many seconds past its
#: window is killed and the workload fails
CHILD_GRACE_S = 120.0


# -- child: one workload in a fresh interpreter ---------------------------


def child_main(args) -> int:
    import resource

    # the parent reads protocol lines from stdout; anything the program
    # prints goes to stderr instead
    proto = os.fdopen(os.dup(1), "w", buffering=1)
    os.dup2(2, 1)
    sys.stdout = sys.stderr

    import tracing

    workload = args.workload[0]
    cls = workloads.WORKLOADS[workload]
    wl = cls(args.seed, args.scale, OUT_DIR)
    try:
        wl.setup()
        proto.write(json.dumps({"ready": True}) + "\n")
        # the host's speed right after this start, for setup_s
        ref = statistics.median([workloads.reference_kernel()
                                 for _ in range(5)])
        proto.write(json.dumps({"ref": ref}) + "\n")
        if args.child == "setup":
            return 0
        plain = wl.measure(args.seconds)
        errors = _checked(wl, plain)
        result = {"seeded": cls.seeded, "unit": cls.unit,
                  "headline": cls.headline, "plain": _phase(plain)}
        if args.trace:
            # a fresh set-up, so the traced window starts from the same
            # state as the untraced one (the service's cache is empty)
            wl.close()
            wl = cls(args.seed, args.scale, OUT_DIR)
            wl.setup()
            spans = tracing.SpanLog()
            with tracing.SamplingProfiler(
                    skip=(workloads.reference_kernel,)) as prof:
                traced = wl.measure(args.seconds, spans)
            errors += _checked(wl, traced)
            result["traced"] = _phase(traced)
            result["per_layer"] = _per_layer(result["plain"], traced, prof,
                                             spans)
            result["span_names"] = sorted(spans.names())
            out = pathlib.Path(args.trace_out)
            out.mkdir(parents=True, exist_ok=True)
            path = out / f"{workload}-seed{args.seed}.trace.json"
            spans.write_chrome_trace(str(path), workload)
            result["trace_file"] = str(path)
    finally:
        wl.close()
    result["errors"] = errors
    result["peak_rss_mb"] = resource.getrusage(
        resource.RUSAGE_SELF).ru_maxrss / 1024
    proto.write(json.dumps({"result": result}) + "\n")
    return 0


def _checked(wl, phase) -> list:
    """The window's errors plus the output checks'; a check that raises
    is itself a failed check."""
    try:
        return phase.errors + wl.verify(phase)
    except Exception as exc:  # noqa: BLE001 - report, do not crash
        return phase.errors + [f"verify: {type(exc).__name__}: {exc}"]


def _phase(phase) -> dict:
    n = len(phase.calls)
    return {
        "ops_per_s": phase.ops_per_s, "wall_ops_per_s": phase.wall_ops_per_s,
        "rounds": phase.rounds,
        "attempted": phase.attempted, "digest": phase.digest,
        "wall_s": phase.wall_s,
        "extras": dict(
            call_p50_ms=(workloads.percentile(phase.calls, 50) * 1e3, "ms", n),
            call_p90_ms=(workloads.percentile(phase.calls, 90) * 1e3, "ms", n),
            **phase.extras),
    }


def _per_layer(plain: dict, traced, prof, spans) -> dict:
    out = {f"{layer}.self_frac": frac
           for layer, frac in prof.fractions().items()}
    # host-time figures come from the untraced window, like the end-to-end
    # metrics; they are reported here because they are too noisy to gate
    for name in ("call_p50_ms", "call_p90_ms"):
        out[name] = plain["extras"][name][0]
    out["wall_ops_per_s"] = plain["wall_ops_per_s"]
    out["trace_overhead_frac"] = plain["ops_per_s"] / traced.ops_per_s - 1
    out["trace.samples"] = prof.samples
    out["trace.spans"] = len(spans.records)
    for name in workloads.COUNT_NAMES:
        out[name] = traced.counts.get(name, 0)
    return out


# -- parent: drive the children and report --------------------------------


def spawn(args, workload: str, mode: str, timeout: float) -> tuple:
    """Run one child; returns (seconds until it was set up, the seconds
    the reference kernel took in it just after, its result).

    Raises RuntimeError when the child crashes, hangs or garbles its
    protocol lines."""
    cmd = [sys.executable, str(HERE / "run.py"), "--child", mode,
           "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--scale", str(args.scale),
           "--trace", str(args.trace), "--trace-out", str(args.trace_out)]
    pythonpath = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src") + (
        os.pathsep + pythonpath if pythonpath else ""))
    ready = ref = result = None
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=env, text=True)
    watchdog = threading.Timer(timeout, proc.kill)
    watchdog.start()
    try:
        for line in proc.stdout:
            try:
                msg = json.loads(line)
            except ValueError:
                raise RuntimeError(f"{workload} {mode} child wrote "
                                   f"{line[:80]!r}") from None
            if "ready" in msg:
                ready = time.perf_counter() - t0
            elif "ref" in msg:
                ref = msg["ref"]
            elif "result" in msg:
                result = msg["result"]
        code = proc.wait()
    finally:
        watchdog.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if (code != 0 or ready is None or ref is None
            or (mode == "measure" and result is None)):
        raise RuntimeError(f"{workload} {mode} child exited with {code}")
    return ready, ref, result


def run_workload(args, workload: str, contract: dict, pinned: dict) -> dict:
    """Measure one workload; a crashed child yields a row whose every op
    failed (at least one), so the run still reports."""
    budget = args.seconds * (2 if args.trace else 1) + CHILD_GRACE_S
    # half the set-up-only starts before the window and half after, so a
    # noisy-neighbour burst of a few seconds slows few of them
    extra = 0 if args.trace else SETUP_SAMPLES - 1
    starts: list = []       # (seconds, reference kernel seconds)
    try:
        for _ in range(extra // 2):
            starts.append(spawn(args, workload, "setup", CHILD_GRACE_S)[:2])
        *start, res = spawn(args, workload, "measure", budget)
        starts.append(start)
        for _ in range(extra - extra // 2):
            starts.append(spawn(args, workload, "setup", CHILD_GRACE_S)[:2])
    except RuntimeError as exc:
        return {"workload": workload, "correct": False,
                "errors": [f"crashed: {exc}"], "attempted": 1, "failed": 1,
                "metrics": {}, "result": None}
    plain = res["plain"]
    key = f"{workload}/scale={args.scale:g}" + (
        f"/seed={args.seed}" if res["seeded"] else "")
    digests = [plain["digest"]] + ([res["traced"]["digest"]]
                                   if args.trace else [])
    errors = list(res["errors"])
    for digest in digests:
        if key in pinned and digest != pinned[key]:
            errors.append(f"output digest {digest[:16]} != pinned "
                          f"{pinned[key][:16]} ({key})")
    # set-up time at the reference speed, like norm_ops_per_s; the
    # kernel's time is pooled over the run's starts, since one start's
    # few milliseconds of it vary more than the start itself
    wall_setup_s = statistics.median(s for s, _ in starts)
    setup_s = wall_setup_s / statistics.median(r for _, r in starts) * \
        workloads.REF_NOMINAL_S
    values = {
        "setup_s": (setup_s, len(starts)),
        "wall_setup_s": (wall_setup_s, len(starts)),
        "peak_rss_mb": (res["peak_rss_mb"], 1),
        "norm_ops_per_s": (plain["ops_per_s"], plain["rounds"]),
    }
    section = "per_layer" if args.trace else "end_to_end"
    layer = dict(res.get("per_layer", {}), wall_setup_s=wall_setup_s)
    metrics = {}
    for m in contract[section]:
        value = (layer.get(m["name"]) if args.trace
                 else values.get(m["name"], (None, 0))[0])
        if value is None:
            errors.append(f"metric {m['name']} was not measured")
            continue
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
    attempted = plain["attempted"] + (res["traced"]["attempted"]
                                      if args.trace else 0)
    return {
        "workload": workload, "correct": not errors, "errors": errors,
        "attempted": attempted, "failed": attempted if errors else 0,
        "digest_key": key, "digest_pinned": key in pinned,
        "values": values, "starts": starts,
        "metrics": metrics, "result": res,
    }


def report(args, row: dict) -> None:
    res = row["result"]
    print(f"== {row['workload']}  seed={args.seed} scale={args.scale:g} "
          f"window={args.seconds:g}s", end="")
    if res is None:
        print()
        _report_errors(row)
        return
    plain = res["plain"]
    print(f" rounds={plain['rounds']} wall={plain['wall_s']:.2f}s "
          f"ops={plain['attempted']} {res['unit']}")
    print(f"  {'metric':34s} {'value':>14s}  {'unit':8s} samples")
    for name, m in row["metrics"].items():
        n = row["values"].get(name, (None, ""))[1]
        print(f"  {name:34s} {m['value']:14.6g}  {m['unit']:8s} {n}")
    if not args.trace:
        print(f"  ({res['headline']} = norm_ops_per_s, in {res['unit']}/s "
              "at the reference speed; in host time "
              f"{plain['wall_ops_per_s']:.6g} {res['unit']}/s, set-up "
              f"{row['values']['wall_setup_s'][0]:.6g} s)")
    extras = dict(plain["extras"])
    if args.trace:
        extras.update({f"traced:{k}": v
                       for k, v in res["traced"]["extras"].items()})
        print(f"  spans: {', '.join(res['span_names'])}")
        print(f"  chrome trace: {res['trace_file']}")
    for name, (value, unit, n) in extras.items():
        print(f"  {name:34s} {value:14.6g}  {unit:8s} {n}")
    pin = "pinned" if row["digest_pinned"] else "not pinned"
    print(f"  outputs: digest {plain['digest'][:16]} ({pin}: "
          f"{row['digest_key']})")
    _report_errors(row)


def _report_errors(row: dict) -> None:
    for err in row["errors"][:20]:
        print(f"  CHECK FAILED: {err}")
    if len(row["errors"]) > 20:
        print(f"  ... {len(row['errors']) - 20} more failed checks")
    print("  checks: " + ("ok" if row["correct"] else "FAILED"))


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", action="append", choices=WORKLOAD_NAMES,
                   help="workload to run (repeatable; default: all)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=None,
                   help="measurement window per workload "
                        "(default: run_seconds from BENCHMARK.json)")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0,
                   help="1: spans + sampling profiler, per-layer metrics")
    p.add_argument("--trace-out", default=str(OUT_DIR),
                   help="directory for Chrome-trace files")
    p.add_argument("--scale", type=float, default=1.0,
                   help="work per round relative to the benchmark's sizes")
    p.add_argument("--json-out", help="write every measured figure here")
    p.add_argument("--child", choices=("setup", "measure"),
                   help=argparse.SUPPRESS)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.child:
        return child_main(args)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: no src/repro under {ROOT}; nothing to benchmark",
              file=sys.stderr)
        return 2
    contract = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.seconds is None:
        args.seconds = float(contract["run_seconds"])
    pinned = json.loads(DIGESTS.read_text())
    rows = []
    for workload in args.workload or WORKLOAD_NAMES:
        row = run_workload(args, workload, contract, pinned)
        report(args, row)
        rows.append(row)
    if args.json_out:
        pathlib.Path(args.json_out).write_text(
            json.dumps(rows, indent=2, sort_keys=True) + "\n")
    if len(rows) == 1:
        metrics = rows[0]["metrics"]
    else:
        metrics = {f"{r['workload']}/{k}": v for r in rows
                   for k, v in r["metrics"].items()}
    ok = all(r["correct"] for r in rows)
    print(json.dumps({"correct": ok,
                      "attempted": sum(r["attempted"] for r in rows),
                      "failed": sum(r["failed"] for r in rows),
                      "metrics": metrics}))
    return 0 if ok else 1


if __name__ == "__main__":
    # a terminated run still kills and reaps its child (see spawn), and a
    # terminated child still stops its service (see child_main)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    sys.exit(main())
