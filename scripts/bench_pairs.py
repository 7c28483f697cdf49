#!/usr/bin/env python3
"""Run the benchmark on a parent and a change checkout in alternating pairs.

    python3 scripts/bench_pairs.py --parent DIR --change DIR --pairs 10 --seed 1 --out BENCH_13.json

Each checkout runs its own ``perfbench/run.py``, unchanged, once per
workload per pair; even pairs run the parent first and odd pairs the
change first.  The workloads, the end-to-end metrics with the direction
that is better, and the run length come from ``BENCHMARK.json`` beside
this script.  The output file holds, per workload and metric, each side's
median, quartiles and every run, and the number of pairs the change won
(ties count for neither side).
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """The result line of one benchmark run in ``checkout``."""
    argv = [sys.executable, "perfbench/run.py", "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds)]
    proc = subprocess.run(argv, cwd=checkout, capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"{checkout}: {workload} exited {proc.returncode}\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summary(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "runs": values}


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, required=True)
    parser.add_argument("--change", type=Path, required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()
    if args.pairs < 2:
        parser.error("--pairs must be at least 2")
    workloads = [w["name"] for w in bench["workloads"]]
    seconds = bench["run_seconds"]
    sides = {"parent": args.parent, "change": args.change}
    results = {w: {side: [] for side in sides} for w in workloads}
    for i in range(args.pairs):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for w in workloads:
            for side in order:
                result = run_once(sides[side], w, args.seed, seconds)
                results[w][side].append(result)
                wall = result["metrics"]["wall_cal"]["value"]
                print(f"pair {i + 1}/{args.pairs} {w:<15} {side:<6} wall_cal {wall:7.1f}", file=sys.stderr)
    out = {"seed": args.seed, "seconds": seconds, "pairs": args.pairs, "workloads": {}}
    for w in workloads:
        runs = results[w]
        row = {side: {"attempted": sum(r["attempted"] for r in runs[side]),
                      "failed": sum(r["failed"] for r in runs[side])} for side in sides}
        for metric in bench["end_to_end"]:
            name, sign = metric["name"], 1 if metric["better"] == "lower" else -1
            parent, change = ([r["metrics"][name]["value"] for r in runs[side]] for side in sides)
            row[name] = {
                "unit": metric["unit"],
                "better": metric["better"],
                "parent": summary(parent),
                "change": summary(change),
                "change_wins": sum(sign * (p - c) > 0 for p, c in zip(parent, change)),
            }
        out["workloads"][w] = row
    args.out.write_text(json.dumps(out, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
