"""Cell structures: level graphs, thread equivalence, Cauchy nets.

Each level's graph, the 1-skeleton of its flag complex and of its nerve,
is held as ``Level.adjacency`` and read with loops.  Bonds are graph
homomorphisms: ``build_system`` verifies that every bond sends each
source edge to an edge or to one vertex.  Threads are identified up to
levelwise adjacency, and the quotient is compared against the ground
space point for point.  Threads and nets are tuples of vertex ids aligned
with ``system.levels``.

A net is Cauchy when, at every base level i, the projections to i of its
vertices at the levels above i are pairwise adjacent there; it converges
to a thread adjacent to it at every level.  With a maximum level t the
levels above i include i itself and t, and ``bond(i, i)`` is the
identity, so a Cauchy net's vertex at i is adjacent to the projection of
its top vertex: the net converges to the vertex thread through its top
vertex.  ``cauchy_sweep`` checks the two facts this rests on.  The
condition has content only on directed sets with no maximum, which
nervelim does not build.
"""

from __future__ import annotations

from itertools import combinations
from typing import NamedTuple

from .complexes import LambdaIndex, members
from .report import Report
from .systems import (
    InverseSystem,
    _top,
    canonical_map,
    thread_image,
    vertex_threads,
)


def _adjacent(adj: list[int], a: int, b: int) -> bool:
    return a == b or bool(adj[a] >> b & 1)


def _star(adj: list[int], v: int) -> int:
    """The closed neighbourhood of v as a bitmask."""
    return adj[v] | 1 << v


# ---------------------------------------------------------------------------
# the star conditions


def check_star_contraction(system: InverseSystem, z: tuple[int, ...], i: int) -> int | None:
    """The position of a level above position i whose double star of the
    thread projects into the single star at i, or None."""
    target = _star(system.levels[i].adjacency, z[i])
    for j in system.above[i]:
        adj = system.levels[j].adjacency
        double = 0
        for v in members(_star(adj, z[j])):
            double |= _star(adj, v)
        vm = system.bond(i, j)
        image = 0
        for v in members(double):
            image |= 1 << vm[v]
        if not image & ~target:
            return j
    return None


def check_star_conditions(system: InverseSystem) -> Report:
    threads = vertex_threads(system)
    t = system.top
    bad = None
    max_star = 0
    for z in threads:
        for i, level in enumerate(system.levels):
            if check_star_contraction(system, z, i) is None:
                bad = {"thread_top": z[t], "lambda": list(level.lam.cover_ids)}
                break
            max_star = max(max_star, _star(level.adjacency, z[i]).bit_count())
        if bad:
            break
    return Report(
        "star_conditions",
        bad is None,
        counterexample=bad,
        details={
            "threads": len(threads),
            "finiteness": "vacuous on finite ground models",
            "max_star": max_star,
        },
    )


# ---------------------------------------------------------------------------
# thread equivalence and the quotient


class QuotientSpace(NamedTuple):
    classes: tuple[tuple[int, ...], ...]  # thread ids, here top vertex ids
    class_of: tuple[int, ...]
    adjacency: dict[LambdaIndex, frozenset[tuple[int, int]]]

    def to_json(self) -> dict:
        return {
            "classes": [list(c) for c in self.classes],
            "adjacency": {
                lam.json_key(): sorted(list(p) for p in pairs)
                for lam, pairs in self.adjacency.items()
            },
        }


class EquivalenceResult(NamedTuple):
    """The quotient when the thread relation is transitive, and otherwise
    a triple of threads that breaks transitivity."""

    witness: tuple[int, int, int] | None
    quotient: QuotientSpace | None


def equivalence_classes(system: InverseSystem) -> EquivalenceResult:
    """Relate threads adjacent at every level; verify the relation is an
    equivalence before quotienting.  Failures are reported, not repaired.

    Thread i's row is the bitmask of the threads related to it.  A triple
    i < j < k breaks transitivity exactly when two of its three pairs are
    related.  So for each pair i < j in order, the first such k is the
    lowest bit above j of ``rows[i] ^ rows[j]`` when i ~ j, and of
    ``rows[i] & rows[j]`` when not.  The witness is the first breaking
    triple in ``combinations`` order, in the first of the orders
    (i, j, k), (j, i, k), (i, k, j) that is a chain a ~ b ~ c with a and c
    unrelated.  When no triple breaks, each row is its thread's class.
    """
    threads = vertex_threads(system)
    adjs = [level.adjacency for level in system.levels]
    n = len(threads)

    def related(i: int, j: int) -> bool:
        return all(map(_adjacent, adjs, threads[i], threads[j]))

    rows = [sum(1 << j for j in range(n) if related(i, j)) for i in range(n)]
    if any(not row >> i & 1 for i, row in enumerate(rows)):
        raise AssertionError("reflexivity cannot fail on a reflexive graph")
    for i, row in enumerate(rows):
        for j in range(i + 1, n):
            linked = row >> j & 1
            breaking = (row ^ rows[j] if linked else row & rows[j]) >> (j + 1)
            if breaking:
                k = j + (breaking & -breaking).bit_length()
                if not linked:
                    witness = (i, k, j)
                elif rows[j] >> k & 1:
                    witness = (i, j, k)
                else:
                    witness = (j, i, k)
                return EquivalenceResult(witness, None)

    classes = [tuple(members(row)) for row in dict.fromkeys(rows)]
    class_of = [0] * n
    for idx, cls in enumerate(classes):
        for j in cls:
            class_of[j] = idx
    # classes ci <= cj are adjacent at a level when the closed stars of
    # ci's vertices there meet cj's vertices; each class meets its own
    adjacency = {}
    for p, (level, adj) in enumerate(zip(system.levels, adjs)):
        stars, masks = [], []
        for cls in classes:
            star = mask = 0
            for i in cls:
                star |= _star(adj, threads[i][p])
                mask |= 1 << threads[i][p]
            stars.append(star)
            masks.append(mask)
        adjacency[level.lam] = frozenset(
            (ci, cj)
            for ci, star in enumerate(stars)
            for cj in range(ci, len(classes))
            if star & masks[cj]
        )
    return EquivalenceResult(None, QuotientSpace(tuple(classes), tuple(class_of), adjacency))


def check_equivalence(result: EquivalenceResult) -> Report:
    quotient = result.quotient
    if quotient is None:
        return Report(
            "equivalence_classes",
            False,
            counterexample={"witness_triple": list(result.witness)},
            details={"classes": None},
        )
    return Report("equivalence_classes", True, details={"classes": len(quotient.classes)})


def point_classes(system: InverseSystem, quotient: QuotientSpace) -> list[int]:
    """Per ground point, the class of the vertex thread through the first
    carrier vertex of its canonical image at the top level."""
    t = _top(system)
    return [
        quotient.class_of[canonical_map(system, t, x)[0]]
        for x in system.family.ground.points
    ]


def compare_quotient_to_ground(system: InverseSystem, result: EquivalenceResult) -> Report:
    """Match the quotient classes of ``equivalence_classes(system)`` with
    ground points.

    Sends a point to the class of a vertex thread through the support of
    its canonical image at the top level, then checks the assignment is a
    bijection, that a thread's class matches its image point, and that two
    points share a level element exactly when their classes share a vertex
    there.
    """
    quotient = result.quotient
    if quotient is None:
        return Report(
            "quotient_comparison",
            False,
            details={"skipped": "thread relation is not transitive"},
        )
    t = _top(system)
    points = list(system.family.ground.points)
    h = point_classes(system, quotient)

    bijection = len(set(h)) == len(points) == len(quotient.classes)
    if not bijection:
        return Report(
            "quotient_comparison",
            False,
            details={"classes": len(quotient.classes), "points": len(points)},
            counterexample={"reason": "no bijection"},
        )

    threads = vertex_threads(system)
    for i, z in enumerate(threads):
        image = thread_image(system, z)
        if len(image) != 1:
            return Report(
                "quotient_comparison",
                False,
                details={"skipped": "a vertex thread has a non-singleton image"},
            )
        (x,) = image
        if h[x] != quotient.class_of[z[t]]:
            return Report(
                "quotient_comparison",
                False,
                counterexample={"thread": i, "point": x},
                details={"reason": "class of thread disagrees with its image point"},
            )

    # Shared-element consistency: x and y lie in a common wedge of the level
    # exactly when their classes share a vertex there.
    class_vertices = [
        [{threads[i][p] for i in cls} for p in range(len(system.levels))]
        for cls in quotient.classes
    ]
    for p, level in enumerate(system.levels):
        fibers = level.fibers
        fiber_sets = [set(f) for f in fibers]
        for x, y in combinations(points, 2):
            common = not fiber_sets[x].isdisjoint(fibers[y])
            shared = bool(class_vertices[h[x]][p] & class_vertices[h[y]][p])
            if common != shared:
                return Report(
                    "quotient_comparison",
                    False,
                    counterexample={"points": [x, y], "lambda": list(level.lam.cover_ids)},
                    details={"reason": "shared-element consistency"},
                )
    return Report(
        "quotient_comparison",
        True,
        details={"classes": len(quotient.classes), "points": len(points)},
    )


# ---------------------------------------------------------------------------
# nets: one vertex per level, with no compatibility required


def cauchy_sweep(system: InverseSystem) -> Report:
    """Every Cauchy net converges: the levels have a top, and every
    ``bond(i, i)`` is the identity (see the module docstring)."""
    _top(system)
    bad = None
    for i, level in enumerate(system.levels):
        if system.bond(i, i) != tuple(range(len(level.vertices))):
            reason = "bond to itself is not the identity"
            bad = {"lambda": list(level.lam.cover_ids), "reason": reason}
            break
    return Report(
        "cauchy_sweep",
        bad is None,
        counterexample=bad,
        details={
            "witness": "each Cauchy net converges to the vertex thread through its top vertex"
        },
    )
