#!/usr/bin/env python3
"""Record the benchmark's baseline and its pinned output digests.

Runs every workload ``RUNS`` times untraced and once traced, all at
seed 0, and writes

- ``baseline.json``: per metric the median, quartiles and 5-run spread
  (max / min - 1), and each workload's ``trace_overhead_frac``;
- ``digests.json``: each workload's seed-0 output digest at full size
  and at the smoke test's ``SMOKE_SCALE``, which ``run.py`` checks
  every run against.

Run it from the repo root when a change is meant to alter simulated
results, or to re-measure the baseline::

    python3 benchmarks/e2e/calibrate.py

An end-to-end metric whose spread exceeds ``MAX_SPREAD`` is listed
under ``over_spread``: a change to it smaller than its spread is
unresolved on the measuring machine, not unchanged.
"""

from __future__ import annotations

import json
import statistics
import sys

import run

RUNS = 5
SEED = 0
MAX_SPREAD = 0.10
SMOKE_SCALE = 0.02
CONTRACT = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def measure(workload: str, *flags: str) -> dict:
    """One run of one workload; digests are recorded, not checked."""
    args = run.parse_args(["--seed", str(SEED), *flags])
    if args.seconds is None:
        args.seconds = float(CONTRACT["run_seconds"])
    row = run.run_workload(args, workload, CONTRACT, pinned={})
    if not row["correct"]:
        raise SystemExit(f"{workload} failed: {row['errors']}")
    return row


def summarise(values: list) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "min": min(values), "max": max(values),
            "spread": max(values) / min(values) - 1}


def main() -> int:
    doc = {"runs": RUNS, "seed": SEED,
           "run_seconds": CONTRACT["run_seconds"], "workloads": {},
           "over_spread": []}
    digests = {}
    for w in (wl["name"] for wl in CONTRACT["workloads"]):
        rows = [measure(w) for _ in range(RUNS)]
        traced = measure(w, "--trace", "1")
        smoke = measure(w, "--scale", str(SMOKE_SCALE), "--seconds", "1")
        for row in (rows[0], smoke):
            digests[row["digest_key"]] = row["result"]["plain"]["digest"]
        entry = {
            "metrics": {},
            "trace_overhead_frac":
                traced["metrics"]["trace_overhead_frac"]["value"],
        }
        for m in CONTRACT["end_to_end"]:
            stats = summarise([r["metrics"][m["name"]]["value"] for r in rows])
            entry["metrics"][m["name"]] = stats
            if stats["spread"] > MAX_SPREAD:
                doc["over_spread"].append(f"{w}/{m['name']}")
        for name, (_, unit, _) in rows[0]["result"]["plain"]["extras"].items():
            values = [r["result"]["plain"]["extras"][name][0] for r in rows]
            entry["metrics"][name] = dict(summarise(values), unit=unit) \
                if min(values) > 0 else {"median": statistics.median(values)}
        doc["workloads"][w] = entry
        print(f"{w}: done", file=sys.stderr)
    (run.HERE / "baseline.json").write_text(json.dumps(doc, indent=2) + "\n")
    run.DIGESTS.write_text(json.dumps(digests, indent=2, sort_keys=True)
                           + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
