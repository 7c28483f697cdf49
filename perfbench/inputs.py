"""Seeded benchmark inputs: cover families written as space/covers JSON.

Each family is built from the library's own generators.  The workload
seed permutes the point labels and the element order of every cover, which
moves vertex and simplex ids (and so the column order of the GF(2)
reduction) while leaving every size unchanged.

Run as a script, it is the timed set-up step of a benchmark run: start the
interpreter, import nervelim, generate the inputs of one workload and
write them out.

    python3 perfbench/inputs.py --families cantor-d6,circle-24-thick --seed 7 --out DIR

With no families, it builds the presets in-process instead.
"""

from __future__ import annotations

import argparse
import random
import sys
from fractions import Fraction
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from nervelim.ground import (  # noqa: E402
    Arcs,
    CantorDepth,
    CircleGrid,
    CoverFamily,
    Cylinders,
    GroundSpace,
    cover_from_pointsets,
    family_to_json,
    generate_cover,
    generate_space,
    space_to_json,
)
from nervelim.presets import PRESETS  # noqa: E402
from nervelim.report import dump_json  # noqa: E402


def _cantor_d6() -> CoverFamily:
    space = generate_space(CantorDepth(), 6)
    return CoverFamily(
        tuple(generate_cover(space, Cylinders(k), cover_id=k - 1) for k in range(1, 7)),
        space,
    )


def _circle(points: int, arcs: tuple[tuple[int, Fraction], ...]) -> CoverFamily:
    space = generate_space(CircleGrid(), points)
    return CoverFamily(
        tuple(generate_cover(space, Arcs(n, o), cover_id=i) for i, (n, o) in enumerate(arcs)),
        space,
    )


FAMILIES = {
    "cantor-d6": _cantor_d6,
    "circle-24-thick": lambda: _circle(
        24, ((3, Fraction(1)), (6, Fraction(1, 4)), (12, Fraction(1, 4)))
    ),
    "circle-24-3812": lambda: _circle(
        24, ((3, Fraction(1, 2)), (8, Fraction(1, 4)), (12, Fraction(1, 4)))
    ),
}


def permute_family(family: CoverFamily, rng: random.Random) -> CoverFamily:
    """Relabel the points and reorder each cover's elements at random."""
    g = family.ground
    new_id = list(g.points)
    rng.shuffle(new_id)
    old_at = sorted(g.points, key=new_id.__getitem__)
    space = GroundSpace(
        g.n_points,
        None if g.coords is None else tuple(g.coords[p] for p in old_at),
        g.metric,
        None if g.labels is None else tuple(g.labels[p] for p in old_at),
    )
    covers = []
    for cover in family.covers:
        pointsets = [frozenset(new_id[p] for p in e.pointset) for e in cover.elements]
        rng.shuffle(pointsets)
        covers.append(cover_from_pointsets(cover.id, pointsets))
    return CoverFamily(tuple(covers), space)


def write_family(name: str, seed: int, out: Path) -> None:
    """Write family ``name`` under ``seed`` as ``<name>.space.json`` and
    ``<name>.covers.json`` in ``out``."""
    family = permute_family(FAMILIES[name](), random.Random(f"{name}/{seed}"))
    (out / f"{name}.space.json").write_text(dump_json(space_to_json(family.ground)))
    (out / f"{name}.covers.json").write_text(dump_json(family_to_json(family)))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--families", default="", help="comma separated family names")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()
    args.out.mkdir(parents=True, exist_ok=True)
    names = [n for n in args.families.split(",") if n]
    for name in names:
        write_family(name, args.seed, args.out)
    if not names:
        # presets are built in-process by the program; loading them is the
        # set-up cost of a workload that has no generated inputs
        for preset in PRESETS.values():
            preset.factory()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
