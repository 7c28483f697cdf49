#!/usr/bin/env python3
"""Run one fixed list of nervelim commands in two checkouts and compare.

    python3 scripts/compare_runs.py --parent DIR --change DIR [--work DIR]

Each checkout runs, from its own directory under the work directory:

- for each preset, ``check --seed 7 --nets 1000 --homotopy-samples 5``,
  then ``report`` and ``build``; the sample options stay because both
  sides must accept them;
- circle-a3's ``check --checks fiber_homotopy,cauchy_sweep``, the two
  thread checks on a family with no resolved point;
- ``perfbench/inputs.py --seed 7`` for the benchmark families, then the
  benchmark's operations on them: ``build`` of cantor-d6 (chain) and
  circle-24-thick (all levels), and the homology-chain ``check`` of
  circle-24-3812;
- ``build`` of circle-48 (arcs 3/6/12/24, overlap 0) at all 15 levels and
  ``--max-dim 16``, its input written by the checkout's own library: the
  largest family whose nerves are their flag complexes at every level but
  the base one; then its default ``check`` at ``--max-dim 16``, every
  check, where ``nerve_absorption`` reads every level's maximal cliques;
- ``build`` of circle-96 (arcs 3/6/12/24/48, overlap 0) at ``--max-dim
  16``, its input written with circle-48's: the top level {0,1,2,3,4} has
  a clique of 32 vertices, so ``build`` exits 2 with the guard message and
  writes no output directory, after 30 levels that pass the guard; then
  its default ``check`` at ``--max-dim 16``, all 15 checks over its 31
  levels, where ``nerve_absorption`` and ``betti_stabilization`` are
  skipped with that guard's message;
- ``check --checks equivalence_classes,quotient_comparison`` of one-class,
  three points under one cover of one element, its input written with
  circle-48's: one thread class for three points, so the comparison fails
  with "no bijection";
- ``check --checks star_conditions,equivalence_classes,quotient_comparison``
  of star-300, 300 points under one cover of the elements {0, i}, its
  input written with circle-48's: the one level is a clique of 299
  vertices, so both thread checks pass with one large class; then
  ``check --checks simpliciality,fibers,fiber_homotopy`` of star-300: its
  one bond, the identity, is tested on point fibers, and point 0's fiber
  holds all 299 vertices; then ``check --checks
  flag_reconstruction,skeleton_equality,fibers`` of star-300, the level's
  graph and fibers read against its wedges and against each other;
- ``check --checks star_conditions,equivalence_classes,quotient_comparison``
  of clique-path, 7 points under the covers {0,1}, {0,2}, {3,4}, {4,5},
  {5,6} and {0,1,2}, {3,4,5,6}, its input written with circle-48's: the
  top graph is a clique on threads 0 and 1, which share one closed star,
  then a path 2 - 3 - 4, so the thread checks reuse a star before they
  fail at thread 2;
- ``build`` and ``check`` of circle-24-thick at ``--max-dim 3``.  ``build``
  stops at the clique guard of level {0,1} and exits 2, so a change to the
  clique search is compared on its failure bytes as well; ``check`` runs
  every check, reports the two that read maximal cliques
  (``nerve_absorption``, ``betti_stabilization``) as skipped with that
  guard's message, and exits 1;
- circle-a3612's ``check --checks nerve_absorption,betti_stabilization``
  at ``--max-dim 0``: level {0} is past the guard both by a clique and by
  a point fiber, so the skip messages show that both checks meet the
  level's clique guard first.

A command that starts with ``-c`` is Python source, run with its
arguments by the interpreter.  Output paths are relative, so stdout names
the same paths on both sides.  The script prints each command whose exit code, stdout or stderr differs,
each file that differs by sha256 or exists on one side only, and for a
differing JSON file the key paths whose values differ.  It exits 1 on any
difference and 0 when the two runs agree.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

PRESETS = ("cantor-d3", "interval-g8", "circle-a3612", "circle-a3", "wedge2")
SAMPLES = ("--seed", "7", "--nets", "1000", "--homotopy-samples", "5")

# writes the space and covers files of circle-48, of circle-96, of
# one-class (3 points under one element), of star-300 and of clique-path
# into the directory argv[1]
WRITE_INPUTS = """
import sys
from fractions import Fraction
from pathlib import Path
from nervelim.ground import (Arcs, CircleGrid, CoverFamily, GroundSpace, cover_from_pointsets,
                             family_to_json, generate_cover, generate_space, space_to_json)
from nervelim.report import dump_json
out = Path(sys.argv[1])
space = generate_space(CircleGrid(), 48)
arcs = tuple(generate_cover(space, Arcs(n, Fraction(0)), cover_id=i)
             for i, n in enumerate((3, 6, 12, 24)))
(out / "circle-48.space.json").write_text(dump_json(space_to_json(space)))
(out / "circle-48.covers.json").write_text(dump_json(family_to_json(CoverFamily(arcs, space))))
space = generate_space(CircleGrid(), 96)
arcs = tuple(generate_cover(space, Arcs(n, Fraction(0)), cover_id=i)
             for i, n in enumerate((3, 6, 12, 24, 48)))
(out / "circle-96.space.json").write_text(dump_json(space_to_json(space)))
(out / "circle-96.covers.json").write_text(dump_json(family_to_json(CoverFamily(arcs, space))))
space = GroundSpace(3)
one = CoverFamily((cover_from_pointsets(0, [{0, 1, 2}]),), space)
(out / "one-class.space.json").write_text(dump_json(space_to_json(space)))
(out / "one-class.covers.json").write_text(dump_json(family_to_json(one)))
space = GroundSpace(300)
star = CoverFamily((cover_from_pointsets(0, [{0, i} for i in range(1, 300)]),), space)
(out / "star-300.space.json").write_text(dump_json(space_to_json(space)))
(out / "star-300.covers.json").write_text(dump_json(family_to_json(star)))
space = GroundSpace(7)
clique_path = CoverFamily((cover_from_pointsets(0, [{0, 1}, {0, 2}, {3, 4}, {4, 5}, {5, 6}]),
                           cover_from_pointsets(1, [{0, 1, 2}, {3, 4, 5, 6}])), space)
(out / "clique-path.space.json").write_text(dump_json(space_to_json(space)))
(out / "clique-path.covers.json").write_text(dump_json(family_to_json(clique_path)))
"""


def _family(name: str) -> tuple[str, ...]:
    return ("--space", f"inputs/{name}.space.json", "--covers", f"inputs/{name}.covers.json")


def commands() -> list[tuple[str, ...]]:
    """The argument lists, in run order; ``nervelim`` commands start with
    the command name, a script with its path in the checkout and Python
    source with ``-c``."""
    out: list[tuple[str, ...]] = []
    for name in PRESETS:
        out += [
            ("check", "--space", name, "--out", f"{name}-check", *SAMPLES),
            ("report", "--out", f"{name}-check"),
            ("build", "--space", name, "--out", f"{name}-build"),
        ]
    out.append(("check", "--space", "circle-a3", "--checks", "fiber_homotopy,cauchy_sweep",
                "--out", "circle-a3-threads", *SAMPLES))
    families = "cantor-d6,circle-24-thick,circle-24-3812"
    out += [
        ("perfbench/inputs.py", "--families", families, "--seed", "7", "--out", "inputs"),
        ("build", *_family("cantor-d6"), "--lambdas", "chain", "--max-dim", "16",
         "--out", "cantor-d6-build"),
        ("build", *_family("circle-24-thick"), "--lambdas", "all", "--max-dim", "16",
         "--out", "circle-24-thick-build"),
        ("check", *_family("circle-24-3812"), "--checks", "betti_stabilization",
         "--max-dim", "16", "--seed", "7", "--out", "circle-24-3812-check"),
        ("-c", WRITE_INPUTS, "inputs"),
        ("build", *_family("circle-48"), "--lambdas", "all", "--max-dim", "16",
         "--out", "circle-48-build"),
        ("check", *_family("circle-48"), "--max-dim", "16", "--out", "circle-48-check"),
        ("build", *_family("circle-96"), "--max-dim", "16", "--out", "circle-96-build"),
        ("check", *_family("circle-96"), "--max-dim", "16", "--out", "circle-96-check"),
        ("check", *_family("one-class"), "--checks", "equivalence_classes,quotient_comparison",
         "--out", "one-class-check"),
        ("check", *_family("star-300"),
         "--checks", "star_conditions,equivalence_classes,quotient_comparison",
         "--out", "star-300-check"),
        ("check", *_family("star-300"), "--checks", "simpliciality,fibers,fiber_homotopy",
         "--out", "star-300-bonds"),
        ("check", *_family("star-300"),
         "--checks", "flag_reconstruction,skeleton_equality,fibers", "--out", "star-300-wedges"),
        ("check", *_family("clique-path"),
         "--checks", "star_conditions,equivalence_classes,quotient_comparison",
         "--out", "clique-path-check"),
        ("build", *_family("circle-24-thick"), "--max-dim", "3", "--out", "guard-build"),
        ("check", *_family("circle-24-thick"), "--max-dim", "3", "--out", "guard-check"),
        ("check", "--space", "circle-a3612", "--max-dim", "0",
         "--checks", "nerve_absorption,betti_stabilization", "--out", "guard-order-check"),
    ]
    return out


def run_all(checkout: Path, cwd: Path) -> list[tuple[int, str, str]]:
    """Exit code, stdout and stderr of every command, run in ``cwd``."""
    cwd.mkdir(parents=True)
    env = {**os.environ, "PYTHONPATH": str(checkout / "src")}
    results = []
    for args in commands():
        if args[0] == "-c":
            argv = [sys.executable, *args]
        elif args[0].endswith(".py"):
            argv = [sys.executable, str(checkout / args[0]), *args[1:]]
        else:
            argv = [sys.executable, "-m", "nervelim.cli", *args]
        p = subprocess.run(argv, cwd=cwd, env=env, capture_output=True, text=True)
        results.append((p.returncode, p.stdout, p.stderr))
    return results


def digests(root: Path) -> dict[str, str]:
    return {
        str(f.relative_to(root)): hashlib.sha256(f.read_bytes()).hexdigest()
        for f in sorted(root.rglob("*"))
        if f.is_file()
    }


def json_diff(a: object, b: object, path: str = "") -> list[str]:
    """The key paths at which two JSON values differ."""
    if isinstance(a, dict) and isinstance(b, dict):
        return [p for k in sorted(a.keys() | b.keys(), key=str)
                for p in json_diff(a.get(k, "<absent>"), b.get(k, "<absent>"), f"{path}.{k}")]
    if isinstance(a, list) and isinstance(b, list) and len(a) == len(b):
        return [p for i, (x, y) in enumerate(zip(a, b)) for p in json_diff(x, y, f"{path}[{i}]")]
    return [] if a == b else [path or "."]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, required=True, help="checkout to compare against")
    parser.add_argument("--change", type=Path, required=True, help="checkout under test")
    parser.add_argument("--work", type=Path, default=None, help="empty work directory (default: a temporary one)")
    args = parser.parse_args()
    work = args.work or Path(tempfile.mkdtemp(prefix="compare_runs-"))
    sides = {side: (getattr(args, side).resolve(), work / side) for side in ("parent", "change")}
    results = {side: run_all(checkout, cwd) for side, (checkout, cwd) in sides.items()}
    differences = 0
    for cmd, old, new in zip(commands(), results["parent"], results["change"]):
        for what, x, y in zip(("exit code", "stdout", "stderr"), old, new):
            if x != y:
                differences += 1
                print(f"{what} differs: {' '.join(cmd)}\n  parent: {x!r}\n  change: {y!r}")
    files = {side: digests(cwd) for side, (_, cwd) in sides.items()}
    for name in sorted(files["parent"].keys() | files["change"].keys()):
        old, new = files["parent"].get(name), files["change"].get(name)
        if old == new:
            continue
        differences += 1
        if old is None or new is None:
            print(f"file on one side only: {name} ({'change' if old is None else 'parent'})")
            continue
        print(f"file differs: {name}")
        if name.endswith(".json"):
            a, b = (json.loads((cwd / name).read_text()) for _, cwd in sides.values())
            for path in json_diff(a, b):
                print(f"  at {path}")
    n_files = len(files["parent"].keys() | files["change"].keys())
    print(f"{len(commands())} commands, {n_files} files, {differences} differences (work: {work})")
    return 1 if differences else 0


if __name__ == "__main__":
    raise SystemExit(main())
