#!/usr/bin/env python3
"""Run tier-1 against a fixed list of one-line mutants of ``src/``.

    python3 scripts/mutants.py [--list]

Each mutant names a file under ``src/nervelim``, one line of it (compared
without its indentation) and the line that replaces it (indented as the
original).  Before anything runs, every line must be found exactly once.
Each mutant is then applied in a fresh temporary copy of the repository,
where tier-1 runs with ``-x -p no:cacheprovider``, less the tier-1 test
that finds every line (it fails on any mutated copy).  A failing run kills
the mutant; a passing one lets it survive.  The script prints ``killed``
(with the first failing test) or ``survived`` for each mutant, and exits 1
if any survived or a run ended other than by passing or failing tests.
``--list`` prints the mutants and checks their lines without running.

A surviving mutant is answered by a new test, never by leaving it out.
"""

from __future__ import annotations

import argparse
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# tier-1 less the test that finds every mutated line, which a mutant's own
# change makes fail
GUARD = "tests/test_mutants.py::test_every_mutant_line_is_found_once"
TIER1 = ("-m", "pytest", "-q", "--continue-on-collection-errors", "-x", "-p", "no:cacheprovider",
         "--deselect", GUARD)

# (file under src/nervelim, line, replacement)
MUTANTS: list[tuple[str, str, str]] = [
    # the nerve's append test: every clique kept, so the nerve is the flag complex
    ("complexes.py", "elif shared:", "else:"),
    # the nerve always, and never, the flag complex's own tuple
    ("complexes.py",
     "return flag, flag if not missed else tuple(sub)",
     "return flag, flag"),
    ("complexes.py",
     "return flag, flag if not missed else tuple(sub)",
     "return flag, tuple(sub)"),
    # a clique whose wedges share no point left uncounted, so the nerve is
    # taken for the flag complex; and the nerve's search not pruned there
    ("complexes.py", "missed += 1", "pass"),
    ("complexes.py", "if pruned:", "if False:"),
    # a clique's row text left without its close, and the clique size not
    # stepped, so that no clique meets the guard
    ("complexes.py", "row = label + close", "row = label"),
    ("complexes.py",
     "extend(label + rest[v], k + 1, c & up[v], shared & points[v])",
     "extend(label + rest[v], k, c & up[v], shared & points[v])"),
    # the streaming search's flush bound: never met before the end, so
    # every row is held, and met one row late
    ("complexes.py", "if len(out) == _CHUNK:", "if False:"),
    ("complexes.py", "if len(out) == _CHUNK:", "if len(out) == _CHUNK + 1:"),
    # row text written at any indent
    ("report.py", "if nl != _ROWS_NL:", "if False:"),
    # streamed rows written with no comma between two lists of them, and
    # an empty list written as a comma
    ("report.py", "lead = between", "lead = between[1:]"),
    ("report.py", "if rows:", "if True:"),
    # a nerve always copied from the flag complex, and never: searched again
    ("report.py", "if nerve and span[2]:", "if nerve:"),
    ("report.py", "if nerve and span[2]:", "if False:"),
    # the copied text ending one byte, or one piece, short
    ("report.py", "start, end = span[:2]", "start, end = span[0], span[1] - 1"),
    # check leaving an earlier run's Betti table and quotient in place
    ("cli.py", "if fname not in extras:", "if False:"),
    # build leaving an earlier build's level files in place
    ("cli.py", "if path.name not in written:", "if False:"),
    # build without its guard-first pass over the levels
    ("cli.py", "maximal_cliques(lv.lam, lv.adjacency, system.max_dim)", "pass"),
    # the selection search without its triple test
    ("ground.py",
     "if any(map(s.isdisjoint, sets)) or any(map(s.isdisjoint, meets)):",
     "if any(map(s.isdisjoint, sets)):"),
    # a bool let into the emitter's fast path for int lists
    ("report.py", "_INTS = {int}", "_INTS = {int, bool}"),
    # the clique search's root candidates taking every neighbour, not the higher ones
    ("complexes.py",
     "up = [a >> (v + 1) << (v + 1) for v, a in enumerate(adj)]",
     "up = list(adj)"),
    # dict keys sorted after their conversion to JSON strings
    ("report.py",
     "for k, v in sorted(o.items()):",
     "for k, v in sorted(o.items(), key=lambda kv: _quote(kv[0])):"),
    # a fiber resolves a point when the point is merely among its common points
    ("systems.py",
     "if carrier_wedge(top.wedges, top.fibers[x]) == 1 << x",
     "if carrier_wedge(top.wedges, top.fibers[x]) >> x & 1"),
    # canonical_map reading the point id as its bit
    ("systems.py",
     "if not carrier_wedge(level.wedges, fiber) >> x & 1:",
     "if not carrier_wedge(level.wedges, fiber) & x:"),
    # no bond ever maps a fiber outside a fiber
    ("systems.py",
     "if not fibers[i].issuperset(map(system.bond(i, j).__getitem__, levels[j].fibers[x])):",
     "if False:"),
    # the Cauchy sweep's identity test always holding
    ("cells.py", "if system.bond(i, i) != tuple(range(len(level.wedges))):", "if False:"),
    # domination made strict: of two equal rows, neither is dropped
    ("homology.py", "if w < v or rows[w] != mask:", "if rows[w] != mask:"),
    # an induced rank that counts the target's boundaries as well
    ("homology.py",
     "out.append(gf2_rank(target.boundaries[k] + images) - target.ranks[k])",
     "out.append(gf2_rank(target.boundaries[k] + images))"),
    # a chain bond read on the cores without the target's retraction
    ("homology.py",
     "vertex_map = [core_i.retraction[bond[v]] for v in core_j.vertices]",
     "vertex_map = [bond[v] for v in core_j.vertices]"),
    # flag_reconstruction without its graph comparison
    ("systems.py", "if level.adjacency != wedge_graph(level.wedges):", "if False:"),
    # flag_reconstruction comparing the fibers' count, not the fibers
    ("systems.py",
     "if level.fibers != wedge_fibers(level.wedges, n_points):",
     "if len(level.fibers) != len(wedge_fibers(level.wedges, n_points)):"),
    # the wedge graph joining every two vertices, and the wedge fibers
    # reading the point id as its bit
    ("systems.py", "if v & w:", "if v | w:"),
    ("systems.py",
     "return [tuple(i for i, w in enumerate(wedges) if w >> x & 1) for x in range(n_points)]",
     "return [tuple(i for i, w in enumerate(wedges) if w & x) for x in range(n_points)]"),
    # skeleton_equality never comparing the nerve's edges with the flag complex's
    ("systems.py",
     "if wedge_adjacency(level.fibers, len(level.wedges)) != level.adjacency:",
     "if False:"),
    # nerve_absorption taking the first level that does not absorb
    ("systems.py",
     "if unmapped(system.bond(i, j), cliques[j], target) is None:",
     "if unmapped(system.bond(i, j), cliques[j], target) is not None:"),
    # the level guard and the vertex guard, each off by one; and the
    # vertex guard's test of a point's element tuples gone, so that they
    # are enumerated before the running count refuses them
    ("systems.py", "if n_levels > MAX_LEVELS:", "if n_levels >= MAX_LEVELS:"),
    ("complexes.py",
     "if (tuples := reduce(mul, map(len, pools))) > MAX_VERTICES:  # before they are enumerated",
     "if (tuples := reduce(mul, map(len, pools))) >= MAX_VERTICES:"),
    ("complexes.py",
     "if (tuples := reduce(mul, map(len, pools))) > MAX_VERTICES:  # before they are enumerated",
     "if False:"),
    ("complexes.py", "if len(wedges) > MAX_VERTICES:", "if len(wedges) >= MAX_VERTICES:"),
    # the system vertex guard off by one
    ("systems.py",
     "if (total := total + len(verts)) > MAX_SYSTEM_VERTICES:  # before its adjacency is built",
     "if (total := total + len(verts)) >= MAX_SYSTEM_VERTICES:"),
    # the --max-dim bound off by one, and gone
    ("cli.py", "if args.max_dim > MAX_DIM_LIMIT:", "if args.max_dim >= MAX_DIM_LIMIT:"),
    ("cli.py", "if args.max_dim > MAX_DIM_LIMIT:", "if False:"),
    # local_refinement asking for a star strictly inside the neighbourhood
    ("ground.py", "if star_union(cover, x) <= u:", "if star_union(cover, x) < u:"),
    # functoriality without its composite test
    ("systems.py",
     "if system.bond(i, k) != tuple(outer[v] for v in system.bond(j, k)):",
     "if False:"),
    # build_system without its bond assertion
    ("systems.py",
     "bad = fiber_escape(system, family.ground.points, system.pairs)",
     "bad = None"),
    # the fiber scan naming an escaping bond's pair the wrong way round,
    # and fiber_homotopy naming the top level for the one it escapes at
    ("systems.py", "return x, (i, j)", "return x, (j, i)"),
    ("systems.py", "x, (i, _) = escape", "x, (_, i) = escape"),
    # the comparable pairs without the identities, and each level's in
    # descending order
    ("systems.py",
     "self.pairs = pairs = [(i, j) for i, up in enumerate(self.above) for j in up]",
     "self.pairs = pairs = [(i, j) for i, up in enumerate(self.above) for j in up if i != j]"),
    ("systems.py",
     "self.pairs = pairs = [(i, j) for i, up in enumerate(self.above) for j in up]",
     "self.pairs = pairs = [(i, j) for i, up in enumerate(self.above) for j in reversed(up)]"),
    # simpliciality passing every bond without its nerve half, and naming
    # every failing bond a nerve-only failure
    ("systems.py",
     "if unmapped(bond, levels[j].fibers, levels[i].wedges) is None:",
     "if True:"),
    ("systems.py",
     'kind = "N" if unmapped(bond, edges, levels[i].wedges) is None else "F"',
     'kind = "N"'),
    # section_identity taking an image that holds the point for its singleton
    ("systems.py", "if image != 1 << x:", "if not image >> x & 1:"),
    # star_conditions finding every projected double star inside the
    # single star, projecting it by the top level's own ids, and taking
    # the single star for the double
    ("cells.py", "if image & ~target:", "if False:"),
    ("cells.py",
     "images[star] = [reduce(or_, [1 << vm[v] for v in vs]) for vm in downs]",
     "images[star] = [reduce(or_, [1 << v for v in vs]) for vm in downs]"),
    ("cells.py",
     "double = reduce(or_, map(top.__getitem__, members(star)), star)",
     "double = star"),
    # a closed star without its centre
    ("cells.py", "return adj[v] | 1 << v", "return adj[v]"),
    # the thread relation read at the base level, not the top
    ("cells.py",
     "rows = [_star(adjs[t], i) for i in range(n)]",
     "rows = [_star(adjs[0], i) for i in range(n)]"),
    # equivalence_classes without its transitivity test, blind to a broken
    # triple whose i and j are unrelated, and naming a broken triple in
    # the wrong order, twice
    ("cells.py", "if breaking:", "if False:"),
    ("cells.py",
     "breaking = (row ^ rows[j] if linked else row & rows[j]) >> (j + 1)",
     "breaking = (row ^ rows[j] if linked else 0) >> (j + 1)"),
    ("cells.py", "elif rows[j] >> k & 1:", "elif True:"),
    ("cells.py", "witness = (i, k, j)", "witness = (i, j, k)"),
    # the maximal-clique search letting a clique one vertex past the guard
    # through, listing cliques that the branched-on vertices extend, and
    # branching on the pivot's neighbours instead of the others
    ("complexes.py",
     "if clique.bit_count() > max_dim + 1:",
     "if clique.bit_count() > max_dim + 2:"),
    ("complexes.py", "if not rest:", "if not candidates:"),
    ("complexes.py",
     "for v in members(candidates & ~adjacency[pivot]):",
     "for v in members(candidates & adjacency[pivot]):"),
    # quotient_comparison without its bijection test
    ("cells.py",
     "bijection = len(set(h)) == len(points) == len(quotient.classes)",
     "bijection = True"),
    # each validation of a record, gone or weakened
    ("ground.py", "if n_points < 1:", "if n_points < 0:"),
    ("ground.py", "if coords is not None and len(coords) != n_points:", "if False:"),
    ("ground.py", "if labels is not None and len(labels) != n_points:", "if False:"),
    ("ground.py", "if not pointset:", "if False:"),
    ("ground.py", "if ids != list(range(len(ids))):", "if False:"),
    ("ground.py", "if not covers:", "if False:"),
    ("ground.py", "if [c.id for c in covers] != list(range(len(covers))):", "if False:"),
    ("ground.py",
     "if len(union) != n or not 0 <= min(union) <= max(union) < n:",
     "if False:"),
    # a cover taken to cover the space when it has as many points, wherever they lie
    ("ground.py",
     "if len(union) != n or not 0 <= min(union) <= max(union) < n:",
     "if len(union) != n:"),
    # a covers file's point ids let one past the space's last point, and below 0
    ("ground.py",
     "outside = sorted(p for p in cover.union() if not 0 <= p < space.n_points)",
     "outside = sorted(p for p in cover.union() if not 0 <= p <= space.n_points)"),
    ("ground.py",
     "outside = sorted(p for p in cover.union() if not 0 <= p < space.n_points)",
     "outside = sorted(p for p in cover.union() if not p < space.n_points)"),
    ("complexes.py", "if not cover_ids:", "if False:"),
    ("complexes.py",
     "if list(cover_ids) != sorted(set(cover_ids)):",
     "if list(cover_ids) != sorted(cover_ids):"),
    ("homology.py", "if any(b < 0 for b in numbers):", "if False:"),
    # record equality across classes, equality ignoring the fields, and a
    # hash that is not the field tuple's
    ("records.py", "if type(other) is not type(self):", "if not isinstance(other, Record):"),
    ("records.py", "return self._values() == other._values()", "return True"),
    ("records.py", "return hash(self._values())", "return hash(type(self))"),
    # a record built from too few values, and a field assignment let through
    ("records.py", "if len(values) != len(self.__slots__):", "if False:"),
    ("records.py",
     'raise AttributeError(f"cannot assign to field {name!r} of a {type(self).__name__}")',
     "object.__setattr__(self, name, value)"),
]


def locate(root: Path, name: str, line: str) -> tuple[Path, list[str], int]:
    """The file, its lines and the index of the one line equal to ``line``
    once indentation is stripped; exits if there is not exactly one."""
    path = root / "src" / "nervelim" / name
    lines = path.read_text().splitlines(keepends=True)
    found = [k for k, text in enumerate(lines) if text.strip() == line]
    if len(found) != 1:
        raise SystemExit(f"{name}: {line!r} found {len(found)} times, not once")
    return path, lines, found[0]


def apply(root: Path, name: str, line: str, replacement: str) -> int:
    """Replace the line in the copy at ``root``; its 1-based number."""
    path, lines, k = locate(root, name, line)
    text = lines[k]
    indent = text[: len(text) - len(text.lstrip())]
    lines[k] = indent + replacement + "\n"
    path.write_text("".join(lines))
    return k + 1


def run_mutant(name: str, line: str, replacement: str) -> tuple[str, int, str]:
    """Apply one mutant in a temporary copy and run tier-1 there: the
    verdict, the line number and the first failing test, if any."""
    ignore = shutil.ignore_patterns(".git", "__pycache__", ".hypothesis", ".pytest_cache")
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        copy = Path(tmp) / "repo"
        shutil.copytree(ROOT, copy, ignore=ignore)
        lineno = apply(copy, name, line, replacement)
        env = {**os.environ, "PYTHONPATH": str(copy / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
        p = subprocess.run([sys.executable, *TIER1], cwd=copy, env=env,
                           capture_output=True, text=True)
    failed = next((s for s in p.stdout.splitlines() if s.startswith(("FAILED", "ERROR"))), "")
    verdict = {0: "survived", 1: "killed"}.get(p.returncode, f"error (pytest exit {p.returncode})")
    return verdict, lineno, failed


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--list", action="store_true", help="check and print the mutants only")
    args = parser.parse_args()
    for name, line, _ in MUTANTS:
        locate(ROOT, name, line)
    if args.list:
        for name, line, replacement in MUTANTS:
            print(f"{name}: {line}\n  -> {replacement}")
        return 0
    bad = 0
    for name, line, replacement in MUTANTS:
        verdict, lineno, failed = run_mutant(name, line, replacement)
        bad += verdict != "killed"
        print(f"{verdict:<9} {name}:{lineno}  {replacement}", flush=True)
        if failed:
            print(f"          {failed}", flush=True)
    print(f"{len(MUTANTS) - bad} of {len(MUTANTS)} mutants killed")
    return 1 if bad else 0


if __name__ == "__main__":
    raise SystemExit(main())
