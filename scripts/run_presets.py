#!/usr/bin/env python3
"""Run every preset's default check list and print a summary table.

Writes one output directory per preset under --out (default ./runs).
"""

import argparse
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from nervelim.cli import main as cli_main
from nervelim.presets import PRESETS


def run(out_root: Path, seed: int, nets: int | None) -> int:
    worst = 0
    rows = []
    for name in PRESETS:
        out = out_root / name
        args = ["check", "--space", name, "--out", str(out), "--seed", str(seed)]
        if nets is not None:
            args += ["--nets", str(nets)]
        code = cli_main(args)
        worst = max(worst, code)
        report = json.loads((out / "report.json").read_text())
        skipped = [c["check"] for c in report["checks"] if c["details"].get("skipped")]
        failed = [
            c["check"] for c in report["checks"] if not c["pass"] and c["check"] not in skipped
        ]
        rows.append((name, len(report["checks"]), failed, skipped))
    print()
    print(f"{'preset':<16} {'checks':>6}  {'failures':<32} skipped")
    for name, n, failed, skipped in rows:
        print(
            f"{name:<16} {n:>6}  {', '.join(failed) or '-':<32} {', '.join(skipped) or '-'}"
        )
    return worst


if __name__ == "__main__":
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out", type=Path, default=Path("runs"))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--nets", type=int, default=None, help="override Cauchy sweep size")
    ns = ap.parse_args()
    raise SystemExit(run(ns.out, ns.seed, ns.nets))
