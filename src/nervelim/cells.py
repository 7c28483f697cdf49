"""Cell structures: level graphs, thread equivalence, Cauchy nets.

Each level's graph, the 1-skeleton of its flag complex and of its nerve,
is held as ``Level.adjacency`` and read with loops.  Bonds are graph
homomorphisms: every edge lies in a point fiber, and ``build_system``
verifies that every bond maps each point's fiber into that point's
fiber.  Threads are identified up to levelwise adjacency, and the
quotient matches the ground space when sending each point to its class
is a bijection: since projections only widen wedges, that one test
decides the comparison.  The thread relation and the star conditions are
read at the top level alone, and both hold exactly when its graph is a
disjoint union of cliques.  A vertex thread is named by its top vertex
id v: its vertex at position i is ``bond(i, t)[v]``, for the top position
t.  A net is a tuple of vertex ids aligned with ``system.levels``.

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

from functools import reduce
from operator import or_
from typing import NamedTuple

from .complexes import LambdaIndex, members
from .report import Report
from .systems import InverseSystem, _top, canonical_map


def _star(adj: list[int], v: int) -> int:
    """The closed neighbourhood of v as a bitmask."""
    return adj[v] | 1 << v


# ---------------------------------------------------------------------------
# the star conditions


def check_star_conditions(system: InverseSystem) -> Report:
    """Some level above each level i projects each vertex thread's double
    star into its single star at i.  Only the top level t is tried: a bond
    maps a double star into the double star of its image, and bonds
    compose, so if a level above i works, t does.  ``functoriality``
    reports bonds that do not compose, and ``cauchy_sweep`` a ``bond(t, t)``
    that is not the identity.  A closed star fixes the double star and its
    images on any bonds, so each distinct one is read once.  The scans are
    ``tests/oracles.py::every_level_star_conditions`` and
    ``thread_scan_star_conditions``."""
    t = _top(system)
    top = system.levels[t].adjacency
    downs = [system.bond(i, t) for i in range(len(system.levels))]
    images: dict[int, list[int]] = {}
    bad = None
    max_star = 0
    for u in range(len(top)):
        star = _star(top, u)
        if star not in images:
            double = reduce(or_, map(top.__getitem__, members(star)), star)
            vs = members(double)
            images[star] = [reduce(or_, [1 << vm[v] for v in vs]) for vm in downs]
        for level, vm, image in zip(system.levels, downs, images[star]):
            target = _star(level.adjacency, vm[u])
            if image & ~target:
                bad = {"thread_top": u, "lambda": list(level.lam.cover_ids)}
                break
            max_star = max(max_star, target.bit_count())
        if bad:
            break
    return Report(
        "star_conditions",
        bad is None,
        counterexample=bad,
        details={
            "threads": len(top),
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

    Threads are related when their top vertices are equal or adjacent:
    each ``bond(p, t)`` sends an edge to an edge or to one vertex, and
    ``bond(t, t)`` is the identity (``cauchy_sweep`` reports one that is
    not).  The relation read at every level is
    ``tests/oracles.py::triple_scan_equivalence_classes``.

    Thread i's row is the bitmask of the threads related to it.  A triple
    i < j < k breaks transitivity exactly when two of its three pairs are
    related.  So for each pair i < j in order, the first such k is the
    lowest bit above j of ``rows[i] ^ rows[j]`` when i ~ j, and of
    ``rows[i] & rows[j]`` when not.  The witness is the first breaking
    triple in ``combinations`` order, in the first of the orders
    (i, j, k), (j, i, k), (i, k, j) that is a chain a ~ b ~ c with a and c
    unrelated.  A thread whose row repeats an earlier one relates to each
    later pair as that one, which broke no triple, so it is skipped (the
    search over every pair is ``tests/oracles.py::pair_scan_equivalence_classes``).
    When no triple breaks, each row is its thread's class.
    """
    t = _top(system)
    adjs = [level.adjacency for level in system.levels]
    n = len(adjs[t])
    rows = [_star(adjs[t], i) for i in range(n)]
    index: dict[int, int] = {}
    for i, row in enumerate(rows):
        if row in index:
            continue
        index[row] = len(index)
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

    classes = [tuple(members(row)) for row in index]
    class_of = [index[row] for row in rows]
    # classes ci <= cj are adjacent at a level when the closed stars of
    # ci's vertices there meet cj's vertices; each class meets its own
    adjacency = {}
    for p, (level, adj) in enumerate(zip(system.levels, adjs)):
        vm = system.bond(p, t)
        stars, masks = [], []
        for cls in classes:
            star = mask = 0
            for i in cls:
                star |= _star(adj, vm[i])
                mask |= 1 << vm[i]
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
    ground points: ``point_classes`` must be a bijection.

    On a system that ``build_system`` makes, the bijection decides the
    rest.  A bond only forgets covers, so a projection only widens a
    wedge: a vertex thread's image is its top vertex's wedge, and the
    threads through two top vertices whose wedges hold a common x share x
    at every level, so they are one class.  Every class thus holds the
    thread through the first vertex of some top fiber, which is its
    point's class: the map is onto the classes, and each term of the
    test alone decides it.  Once the map is also one to one, each vertex
    thread's image is the one point of its class, and a class's vertices
    at each level are its point's fiber there, so two points share a
    level element exactly when their classes share a vertex.  Tests of
    those facts could fail only on a system whose fibers disagree with
    its wedges, which ``check_flag_reconstruction`` reports; they are kept
    in ``tests/oracles.py::full_compare_quotient_to_ground``.
    """
    quotient = result.quotient
    if quotient is None:
        return Report(
            "quotient_comparison",
            False,
            details={"skipped": "thread relation is not transitive"},
        )
    points = system.family.ground.points
    h = point_classes(system, quotient)
    details = {"classes": len(quotient.classes), "points": len(points)}
    bijection = len(set(h)) == len(points) == len(quotient.classes)
    if not bijection:
        return Report(
            "quotient_comparison",
            False,
            details=details,
            counterexample={"reason": "no bijection"},
        )
    return Report("quotient_comparison", True, details=details)


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
