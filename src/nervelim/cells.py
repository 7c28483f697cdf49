"""Cell structures: level graphs, thread equivalence, Cauchy nets.

Each level's graph, the 1-skeleton of its flag complex and of its nerve,
is held as ``Level.adjacency`` and read with loops.  Bonds are graph
homomorphisms: ``build_system`` verifies that every bond sends each
source edge to an edge or to one vertex.  Threads are identified up to
levelwise adjacency, and the quotient is compared against the ground
space point for point.  Threads and nets are tuples of vertex ids aligned
with ``system.levels``.

On a finite index set with a maximum level the eventual ("there exists a
level such that ...") quantifier of the Cauchy and convergence definitions
is satisfied vacuously by the top level, which would make every net Cauchy
and convergent.  The checks below therefore use the uniform finite
surrogate: the adjacency requirements must hold at every level.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import combinations

from .complexes import LambdaIndex, members
from .report import Report
from .systems import (
    InverseSystem,
    _top,
    canonical_map,
    thread_image,
    vertex_thread,
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


@dataclass(frozen=True)
class QuotientSpace:
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


@dataclass
class EquivalenceResult:
    """The quotient when the thread relation is transitive, and otherwise
    a triple of threads that breaks transitivity."""

    witness: tuple[int, int, int] | None
    quotient: QuotientSpace | None


def equivalence_classes(system: InverseSystem) -> EquivalenceResult:
    """Relate threads adjacent at every level; verify the relation is an
    equivalence before quotienting.  Failures are reported, not repaired."""
    threads = vertex_threads(system)
    adjs = [level.adjacency for level in system.levels]
    n = len(threads)

    def related(i: int, j: int) -> bool:
        return all(map(_adjacent, adjs, threads[i], threads[j]))

    rel = [[related(i, j) for j in range(n)] for i in range(n)]
    for i in range(n):
        if not rel[i][i]:
            raise AssertionError("reflexivity cannot fail on a reflexive graph")
    for i, j, k in combinations(range(n), 3):
        for a, b, c in ((i, j, k), (j, i, k), (i, k, j)):
            if rel[a][b] and rel[b][c] and not rel[a][c]:
                return EquivalenceResult((a, b, c), None)

    class_of = [-1] * n
    classes: list[tuple[int, ...]] = []
    for i in range(n):
        if class_of[i] >= 0:
            continue
        cls = tuple(j for j in range(n) if rel[i][j])
        idx = len(classes)
        classes.append(cls)
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
        quotient.class_of[canonical_map(system, t, x).carrier[0]]
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


def is_cauchy(system: InverseSystem, y: tuple[int, ...]) -> bool:
    """Projections of any two levels above a base must be adjacent there."""
    bond = system.bond
    for i, (level, up) in enumerate(zip(system.levels, system.above)):
        projected = 0
        for j in up:
            projected |= 1 << bond(i, j)[y[j]]
        if projected & (projected - 1):  # more than one vertex
            adj = level.adjacency
            for a in members(projected):
                if projected & ~_star(adj, a):
                    return False
    return True


def converge(system: InverseSystem, y: tuple[int, ...]) -> tuple[int, ...] | None:
    """Search the vertex threads, by ascending top vertex, for one levelwise
    adjacent to the net; None when there is none.

    Such a thread's top vertex is adjacent to the net's, so only the closed
    star of ``y[top]`` is searched.
    """
    if not is_cauchy(system, y):
        raise ValueError("convergence is only defined for Cauchy nets")
    t = _top(system)
    adjs = [level.adjacency for level in system.levels]
    down = [system.bond(i, t) for i in range(len(system.levels))]
    for v in members(_star(adjs[t], y[t])):
        if all(_adjacent(adj, vm[v], b) for adj, vm, b in zip(adjs, down, y)):
            return vertex_thread(system, v)
    return None


def _non_max(system: InverseSystem) -> list[int]:
    """The positions of the levels other than the top one."""
    return [i for i in range(len(system.levels)) if i != system.top]


def perturbed_thread_net(
    system: InverseSystem, z: tuple[int, ...], rng: random.Random, non_max: list[int]
) -> tuple[int, ...]:
    """Move one non-maximal level of a thread to an adjacent vertex; with
    no level below the top, the thread itself.  ``non_max`` must be
    ``_non_max(system)``."""
    if not non_max:
        return z
    i = non_max[rng.randrange(len(non_max))]
    star = members(_star(system.levels[i].adjacency, z[i]))
    return z[:i] + (star[rng.randrange(len(star))],) + z[i + 1 :]


def sample_cauchy_nets(system: InverseSystem, count: int, seed: int) -> list[tuple[int, ...]]:
    """Seeded mix of perturbed threads and random nets kept when Cauchy,
    from at most 50 * count candidates."""
    rng = random.Random(seed)
    threads = vertex_threads(system)
    sizes = [len(level.vertices) for level in system.levels]
    non_max = _non_max(system)
    verdicts: dict[tuple[int, ...], bool] = {}  # is_cauchy, by distinct candidate
    nets: list[tuple[int, ...]] = []
    attempts = 0
    while len(nets) < count and attempts < 50 * count:
        attempts += 1
        if rng.random() < 0.5:
            z = threads[rng.randrange(len(threads))]
            candidate = perturbed_thread_net(system, z, rng, non_max)
        else:
            candidate = tuple(rng.randrange(n) for n in sizes)
        ok = verdicts.get(candidate)
        if ok is None:
            ok = verdicts[candidate] = is_cauchy(system, candidate)
        if ok:
            nets.append(candidate)
    return nets


def cauchy_sweep(system: InverseSystem, count: int, seed: int) -> Report:
    """Every sampled Cauchy net converges; each distinct net is searched
    once, and a failure names its first index in the sample."""
    nets = sample_cauchy_nets(system, count, seed)
    if len(nets) < count:
        return Report(
            "cauchy_sweep",
            False,
            details={"reason": "not enough Cauchy nets", "found": len(nets)},
        )
    converges: dict[tuple[int, ...], bool] = {}
    bad = None
    for i, y in enumerate(nets):
        ok = converges.get(y)
        if ok is None:
            ok = converges[y] = converge(system, y) is not None
        if not ok:
            bad = {"net": i}
            break
    return Report(
        "cauchy_sweep",
        bad is None,
        counterexample=bad,
        details={"nets": count, "seed": seed},
    )
