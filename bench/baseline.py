#!/usr/bin/env python3
"""Run every workload over several seeds and record the baseline.

    python3 bench/baseline.py

Every workload runs once per seed 1..10, each a `bench/run.py --trace 0` run
of BENCHMARK.json's `run_seconds`. For every end-to-end metric, `setup_s`
included, it prints the median over seeds and the spread, (q3 - q1) / median
with `statistics.quantiles(n=4)`, against a target of a third of the metric's
bound. Then two `--trace 1` runs of the first seed give the per-layer metrics
and show whether the counts repeat exactly. The record, written to
bench/baseline.json, also holds Python, numpy, nproc, the commit, and the
thread settings seen.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
from pathlib import Path

from run import CHECKOUT, PER_LAYER, describe_environment
from workloads import NAMES, WHY

BENCH = Path(__file__).resolve().parent
COUNTS = [key for key, unit in PER_LAYER.items() if unit in ("count", "bytes")]
SEEDS = list(range(1, 11))


def one_run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    argv = [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(argv, cwd=CHECKOUT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(argv)} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def spread(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median}


def commit() -> str:
    try:
        head = subprocess.run(["git", "rev-parse", "HEAD"], cwd=CHECKOUT, capture_output=True,
                              text=True, check=True).stdout.strip()
        dirty = subprocess.run(["git", "status", "--porcelain", "src"], cwd=CHECKOUT,
                               capture_output=True, text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"
    return head + (" (src/ modified)" if dirty else "")


def main() -> int:
    spec = json.loads((CHECKOUT / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    record = {"environment": {**describe_environment(), "commit": commit()},
              "run_seconds": seconds, "seeds": SEEDS, "workloads": {}}
    steady = True
    for workload in NAMES:
        runs = [one_run(workload, seed, seconds, 0) for seed in SEEDS]
        failed = sum(r["failed"] for r in runs)
        attempted = sum(r["attempted"] for r in runs)
        print(f"== {workload}: {WHY[workload]}")
        print(f"   failed operations: {failed}/{attempted}")
        end_to_end = {}
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r in runs]
            stats = spread(values)
            unit = runs[0]["metrics"][name]["unit"]
            end_to_end[name] = {**stats, "unit": unit, "values": values}
            ok = stats["spread"] < bound / 3
            steady &= ok
            print(f"   {name:12s} median {stats['median']:.4f} {unit:3s} spread {stats['spread']:.3f} "
                  f"(bound {bound}, target < {bound / 3:.3f}){'' if ok else '  NOT STEADY'}")
        traced = [one_run(workload, SEEDS[0], seconds, 1) for _ in range(2)]
        repeat = {key: traced[0]["metrics"][key]["value"] == traced[1]["metrics"][key]["value"]
                  for key in COUNTS}
        print(f"   per-layer (seed {SEEDS[0]}, first traced run); counts repeat: {all(repeat.values())}")
        for key, m in traced[0]["metrics"].items():
            print(f"     {key:34s} {m['value']!r} {m['unit']}")
        record["workloads"][workload] = {
            "why": WHY[workload],
            "failed": failed,
            "attempted": attempted,
            "end_to_end": end_to_end,
            "per_layer": {key: m["value"] for key, m in traced[0]["metrics"].items()},
            "counts_repeat": repeat,
        }
    print(f"steady: {steady}")
    (BENCH / "baseline.json").write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
