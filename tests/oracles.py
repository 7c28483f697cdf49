"""Independent reference constructions used to pin expected test values.

Everything here is built directly from first principles (explicit
triangulations, raw subset enumeration, sympy GF(2) ranks) so the values
frozen into the tests do not depend on the code paths they check.  The
seeded samplers that the thread checks used before they were decided
exactly are kept here too, with the barycentric points they move, and so
is Betti stabilization on the full complexes, from before it was computed
on their cores, and the two clique searches that built a level's flag
complex and nerve one after the other, the second pruned to the cliques
whose wedges share a point and guarded by its point fibers.  So are the
flag reconstruction and skeleton checks that rebuilt and compared every
complex, from before they compared the builders' inputs; a level's own
complexes come from ``conftest``'s ``level_flag`` and ``level_nerve``.
Each vertex's wedge is read here as a point set too, as vertices held it
before it was a point bitmask.  The quotient comparison keeps here the
tests it made after its bijection test, which the bijection decides on
every system ``build_system`` makes.  From before one maximal-clique
search served them, here are the nerve absorption check that built every
flag complex whole, the branch-and-bound clique number that padded the
flag Betti rows, and the flag core that reduced the level graph by closed
neighbourhoods.  The star conditions that tried every level above each
level, from before they read the top level alone, are here as well.
So are vertex threads as tuples of vertex ids, from before a vertex
thread was named by its top vertex; the edge walk that decided the flag
half of simpliciality, from before ``unmapped`` read the edges; and the
fibers check that scanned every vertex thread for every point.  The two
thread checks that read every thread's closed star anew, from before
they read each distinct one once, are here, and so is the one-ball scan
from before ``GroundSpace.balls`` read one distance row for every radius.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, product
from typing import Iterable, Mapping, Sequence

from conftest import level_flag, level_flags, level_nerve
from nervelim.complexes import (
    Complex,
    LambdaIndex,
    Simplex,
    Vertex,
    _level_name,
    build_flag,
    carrier_wedge,
    graph_edges,
    members,
    wedge_adjacency,
)
from nervelim.cells import EquivalenceResult, QuotientSpace, point_classes
from nervelim.errors import GuardExceeded
from nervelim.ground import CoverFamily, GroundSpace, Metric, PointId
from nervelim.homology import betti, boundary_matrix, drop_dominated, gf2_rank, gf2_reduce
from nervelim.report import Report, _fraction
from nervelim.systems import (
    InverseSystem,
    _top,
    canonical_map,
    fiber_escape,
    find_nerve_absorbing_level,
    thread_image,
    wedge_fibers,
    wedge_graph,
)


def from_maximal(n_vertices: int, maximal: Iterable[Sequence[int]]) -> Complex:
    """The downward closure of the given simplices, with every vertex, in
    lexicographic order."""
    closed: set[tuple[int, ...]] = {(v,) for v in range(n_vertices)}
    for m in maximal:
        m = tuple(sorted(set(m)))
        for k in range(1, len(m) + 1):
            closed.update(combinations(m, k))
    return tuple(sorted(closed))


def k_simplices(cx: Complex, k: int) -> list[Simplex]:
    """The k-simplices of a complex, sorted."""
    return sorted(s for s in cx if len(s) == k + 1)


def top_dim(cx: Complex) -> int:
    """The dimension of a nonempty complex."""
    return max(map(len, cx)) - 1


def skeleton_adjacency(cx: Complex) -> list[int]:
    """The 1-skeleton of a complex as per-vertex neighbour bitmasks, read
    from its edge simplices."""
    adj = [0] * len(k_simplices(cx, 0))
    for a, b in k_simplices(cx, 1):
        adj[a] |= 1 << b
        adj[b] |= 1 << a
    return adj


def complex_from_json(data: dict) -> Complex:
    """Read back a complex written by ``complexes.complex_to_json``.

    The program builds its complexes closed, so a complex read from a file
    is checked here: sorted simplices on vertex ids 0..n-1, listed once
    each in lexicographic order, every vertex a simplex, and every face of
    a simplex a simplex.  A vertex list given with its level must hold one
    vertex per id, each with one element per cover of the level and a
    nonempty wedge.
    """
    listed = tuple(tuple(s) for s in data["simplices"])
    for s in listed:
        if list(s) != sorted(set(s)):
            raise ValueError(f"simplex {s} is not a sorted id tuple")
        if s and s[0] < 0:
            raise ValueError(f"simplex {s} has out-of-range vertices")
    for a, b in zip(listed, listed[1:]):
        if not a < b:
            raise ValueError(f"simplex {b} is repeated or out of lexicographic order")
    simplices = frozenset(listed)
    n = max((s[-1] for s in simplices if s), default=-1) + 1
    for v in range(n):
        if (v,) not in simplices:
            raise ValueError(f"vertex {v} is missing as a singleton simplex")
    for s in simplices:
        if len(s) > 1:
            for f in combinations(s, len(s) - 1):
                if f not in simplices:
                    raise ValueError(f"face {f} of {s} is missing")
    if data.get("vertices") and data.get("lambda"):
        width = len(LambdaIndex.of(data["lambda"]).cover_ids)
        for v in data["vertices"]:
            if len(v["tuple"]) != width:
                raise ValueError("one element per cover id required")
            Vertex(tuple(v["tuple"]), point_mask(v["wedge"]))  # checks the wedge
        if len(data["vertices"]) != n:
            raise ValueError("vertex list length mismatch")
    return listed


# ---------------------------------------------------------------------------
# barycentric points


@dataclass(frozen=True)
class BarycentricPoint:
    """A point of a level complex: its carrier simplex plus positive
    coordinates.  Whoever makes a point knows its carrier is a simplex of
    the complex it is meant for."""

    carrier: Simplex
    coords: tuple[tuple[int, Fraction], ...]

    def __post_init__(self) -> None:
        ids = tuple(v for v, _ in self.coords)
        if ids != self.carrier or list(ids) != sorted(set(ids)):
            raise ValueError("coordinates must be keyed by the carrier, sorted")
        total = Fraction(0)
        for _, w in self.coords:
            if w <= 0:
                raise ValueError("barycentric coordinates must be positive")
            total += w
        if total != 1:
            raise ValueError(f"coordinates sum to {total}, not 1")

    @classmethod
    def from_dict(cls, coords: Mapping[int, Fraction]) -> "BarycentricPoint":
        items = tuple(sorted((v, w) for v, w in coords.items() if w != 0))
        return cls(tuple(v for v, _ in items), items)


def convex_combination(
    t: Fraction, target: BarycentricPoint, source: BarycentricPoint
) -> BarycentricPoint:
    """t * target + (1 - t) * source, for two points of one complex."""
    t = Fraction(t)
    if not 0 <= t <= 1:
        raise ValueError("parameter must lie in [0, 1]")
    coords = {v: t * w for v, w in target.coords}
    rest = 1 - t
    for v, w in source.coords:
        coords[v] = coords[v] + rest * w if v in coords else rest * w
    return BarycentricPoint.from_dict(coords)


def push_point(vertex_map: Sequence[int], point: BarycentricPoint) -> BarycentricPoint:
    """Push a barycentric point forward along a vertex map, summing merged
    coordinates."""
    coords: dict[int, Fraction] = {}
    for v, w in point.coords:
        img = vertex_map[v]
        coords[img] = coords.get(img, Fraction(0)) + w
    return BarycentricPoint.from_dict(coords)


def vertex_point(v: int) -> BarycentricPoint:
    """The point at vertex v."""
    return BarycentricPoint((v,), ((v, Fraction(1)),))


def is_compatible(system: InverseSystem, z: tuple) -> bool:
    """Every bond carries the thread's value at its source to the value at
    its target."""
    for i, up in enumerate(system.above):
        for j in up:
            bond, value = system.bond(i, j), z[j]
            if isinstance(value, BarycentricPoint):
                image = push_point(bond, value)
            else:
                image = bond[value]
            if image != z[i]:
                return False
    return True


# ---------------------------------------------------------------------------
# vertex threads as tuples of vertex ids


def vertex_thread(system: InverseSystem, top_vid: int) -> tuple[int, ...]:
    """The vertex thread through vertex ``top_vid`` of the top level."""
    t = _top(system)
    return tuple(system.bond(i, t)[top_vid] for i in range(len(system.levels)))


def vertex_threads(system: InverseSystem) -> list[tuple[int, ...]]:
    t = _top(system)
    return [vertex_thread(system, v) for v in range(len(system.levels[t].vertices))]


def vertex_thread_image(system: InverseSystem, z: tuple[int, ...]) -> int:
    """``thread_image`` of a vertex thread, its vertices read as singleton
    carriers."""
    return thread_image(system, tuple((v,) for v in z))


def path_complex(n_vertices: int) -> Complex:
    """A path: the standard triangulation of an interval."""
    edges = [(i, i + 1) for i in range(n_vertices - 1)]
    return from_maximal(n_vertices, edges)


def cycle_complex(n_vertices: int) -> Complex:
    """An n-gon: the standard triangulation of a circle."""
    edges = [(i, (i + 1) % n_vertices) for i in range(n_vertices)]
    return from_maximal(n_vertices, edges)


def wedge_graph_complex(arms: int, n_per_circle: int) -> Complex:
    """Cycles of equal length glued at vertex 0."""
    edges = []
    next_id = 1
    for _ in range(arms):
        ring = [0] + list(range(next_id, next_id + n_per_circle - 1))
        next_id += n_per_circle - 1
        edges += [(ring[i], ring[(i + 1) % len(ring)]) for i in range(len(ring))]
    n = next_id
    return from_maximal(n, edges)


def discrete_complex(n_vertices: int) -> Complex:
    return from_maximal(n_vertices, [])


def sphere_boundary_complex() -> Complex:
    """Boundary of a 3-simplex: a triangulated 2-sphere."""
    faces = list(combinations(range(4), 3))
    return from_maximal(4, faces)


# ---------------------------------------------------------------------------
# brute-force complex construction from covers


def point_mask(points: Iterable[PointId]) -> int:
    """A set of points as a point bitmask: bit x is set when x is in it."""
    return sum(1 << x for x in set(points))


def element_wedges(
    family: CoverFamily, lam: LambdaIndex, vertices: Sequence[Vertex]
) -> list[frozenset[PointId]]:
    """Each vertex's wedge as a point set: the intersection of the point
    sets of its chosen elements, one per cover of the level.  This is the
    wedge as vertices held it before it was a point bitmask, read from the
    covers and not from ``build_vertices``."""
    covers = [family.covers[i] for i in lam.cover_ids]
    return [
        frozenset.intersection(*(c.elements[e].pointset for c, e in zip(covers, v.elements)))
        for v in vertices
    ]


def brute_vertices(pointsets_per_cover: list[list[frozenset[int]]]) -> list[tuple[tuple[int, ...], frozenset[int]]]:
    """All element-index tuples with nonempty intersection, lex order."""
    out = []
    for choice in product(*[range(len(ps)) for ps in pointsets_per_cover]):
        sets = [pointsets_per_cover[c][i] for c, i in enumerate(choice)]
        wedge = frozenset.intersection(*sets)
        if wedge:
            out.append((choice, wedge))
    return out


def brute_nerve_simplices(wedges: list[frozenset[int]], max_size: int) -> set[tuple[int, ...]]:
    """Subsets of vertices whose wedges share a point, by raw enumeration."""
    out: set[tuple[int, ...]] = set()
    for size in range(1, max_size + 1):
        for subset in combinations(range(len(wedges)), size):
            if frozenset.intersection(*[wedges[i] for i in subset]):
                out.add(subset)
    return out


def brute_flag_simplices(wedges: list[frozenset[int]], max_size: int) -> set[tuple[int, ...]]:
    """Subsets whose wedges meet pairwise, by raw enumeration."""
    out: set[tuple[int, ...]] = set()
    for size in range(1, max_size + 1):
        for subset in combinations(range(len(wedges)), size):
            if all(wedges[i] & wedges[j] for i, j in combinations(subset, 2)):
                out.add(subset)
    return out


def set_clique_flag(
    adjacency: Sequence[int], max_dim: int, where: str = ""
) -> frozenset[Simplex]:
    """The clique complex as ``complexes.build_flag`` built it before the
    search kept its order: every clique up to max_dim+1 vertices, gathered
    in a set, with the same guard and a message that starts with ``where``."""
    out: set[Simplex] = set()

    def extend(clique: tuple[int, ...], candidates: int) -> None:
        if len(clique) > max_dim + 1:
            size = len(clique)
            while candidates:
                v = (candidates & -candidates).bit_length() - 1
                candidates &= adjacency[v]
                size += 1
            raise GuardExceeded(
                f"{where}a clique of {size} vertices exceeds the dimension guard"
                f" (max_dim {max_dim} allows {max_dim + 1})"
            )
        out.add(clique)
        c = candidates
        while c:
            v = (c & -c).bit_length() - 1
            c &= c - 1
            extend(clique + (v,), candidates & adjacency[v] & ~((1 << (v + 1)) - 1))

    for v in range(len(adjacency)):
        extend((v,), adjacency[v] & ~((1 << (v + 1)) - 1))
    return frozenset(out)


def fiber_subset_nerve(
    fibers: Sequence[tuple[int, ...]], max_dim: int, where: str = ""
) -> frozenset[Simplex]:
    """The nerve as ``complexes.build_nerve`` built it before the clique
    search: every nonempty subset of every point fiber, deduplicated in a
    set, with the same guard and a message that starts with ``where``."""
    simplices: set[Simplex] = set()
    for x, carrier in enumerate(fibers):
        if len(carrier) > max_dim + 1:
            raise GuardExceeded(
                f"{where}point {x} lies in a fiber of {len(carrier)} wedges,"
                f" past the dimension guard (max_dim {max_dim} allows {max_dim + 1})"
            )
        for k in range(1, len(carrier) + 1):
            simplices.update(combinations(carrier, k))
    return frozenset(simplices)


def pruned_nerve(
    lam: LambdaIndex, adjacency: Sequence[int], fibers: Sequence[tuple[int, ...]], max_dim: int
) -> Complex:
    """The nerve of a level, or of a core on its own vertex ids, as
    ``complexes.build_nerve`` built it before one clique search served
    both complexes: each point fiber checked against the guard, since a
    nerve simplex lies in one fiber, then the cliques of ``adjacency`` in
    lexicographic order, each branch dropped once its vertices' wedges,
    read from ``fibers``, share no point.  Every clique it enters lies in
    a fiber, so it needs no clique guard."""
    wedges = [0] * len(adjacency)  # per vertex, the points whose fibers hold it
    for x, carrier in enumerate(fibers):
        if len(carrier) > max_dim + 1:
            raise GuardExceeded(
                f"{_level_name(lam)}: point {x} lies in a fiber of {len(carrier)} wedges,"
                f" past the dimension guard (max_dim {max_dim} allows {max_dim + 1})"
            )
        for v in carrier:
            wedges[v] |= 1 << x
    out: list[Simplex] = []

    def extend(clique: tuple[int, ...], candidates: int, shared: int) -> None:
        if shared:
            out.append(clique)
        c = candidates
        while c:
            v = (c & -c).bit_length() - 1
            c &= c - 1
            if shared & wedges[v]:
                extend(clique + (v,), candidates & adjacency[v] & ~((1 << (v + 1)) - 1),
                       shared & wedges[v])

    for v in range(len(adjacency)):
        extend((v,), adjacency[v] & ~((1 << (v + 1)) - 1), wedges[v])
    return tuple(out)


def pruned_core_nerve(level, core_vertices: Sequence[int], max_dim: int) -> Complex:
    """The nerve of a level's core, on the core's vertex ids, from
    ``pruned_nerve``: the level's point fibers cut down to the kept
    vertices ``core_vertices``.  It keeps the points the core reduction
    drops, since a dropped point's kept vertices all share a kept point
    and so change neither the core's graph nor its nerve."""
    index = {v: c for c, v in enumerate(core_vertices)}
    fibers = [tuple(index[v] for v in fiber if v in index) for fiber in level.fibers]
    return pruned_nerve(level.lam, wedge_adjacency(fibers, len(index)), fibers, max_dim)


def two_search_build(
    lam: LambdaIndex, adjacency: Sequence[int], fibers: Sequence[tuple[int, ...]], max_dim: int
) -> tuple[Complex, Complex]:
    """A level's flag complex and nerve as ``build`` made them before one
    clique search served both: ``build_flag`` and then ``pruned_nerve``,
    each walking the clique tree on its own."""
    return build_flag(lam, adjacency, max_dim), pruned_nerve(lam, adjacency, fibers, max_dim)


def product_scan_vertices(family: CoverFamily, lam: LambdaIndex) -> list[Vertex]:
    """Level vertices by scanning the full product of element choices, one
    per cover, in lexicographic order: the construction before point
    fibers, linear in the product of the cover sizes."""
    covers = [family.covers[i] for i in lam.cover_ids]
    out = []
    for choice in product(*(c.elements for c in covers)):
        wedge = frozenset.intersection(*(e.pointset for e in choice))
        if wedge:
            out.append(Vertex(tuple(e.id for e in choice), point_mask(wedge)))
    return out


def product_scan_selection(family: CoverFamily) -> Report:
    """Selection completeness by scanning the full element product, one
    element per cover, in lexicographic order: the check before the pruned
    search, linear in the product of the cover sizes."""
    pools = [c.elements for c in family.covers]
    counterexample = None
    fip_selections = 0
    for sel in product(*pools):
        sets = [e.pointset for e in sel]
        if not all(a & b for a, b in combinations(sets, 2)):
            continue
        if not all(a & b & c for a, b, c in combinations(sets, 3)):
            continue
        fip_selections += 1
        if not frozenset.intersection(*sets):
            counterexample = [[c, e.id] for c, e in enumerate(sel)]
            break
    return Report(
        "selection_completeness",
        counterexample is None,
        counterexample=counterexample,
        details={
            "selection_space": math.prod(len(pool) for pool in pools),
            "with_intersection_property": fip_selections,
        },
    )


def scan_ball(space: GroundSpace, center: PointId, radius: Fraction) -> frozenset[PointId]:
    """``GroundSpace.ball`` as it was before ``GroundSpace.balls`` read one
    row of distances for every radius: the closed ball, one comparison per
    point, of squared distances under the euclidean metric."""
    r = Fraction(radius)
    if space.metric is Metric.EUCLIDEAN:
        rsq = r * r
        return frozenset(p for p in space.points if space.distance_sq(center, p) <= rsq)
    return frozenset(p for p in space.points if space.distance(center, p) <= r)


def full_bond_check(vm: Sequence[int], source: Complex, target: Complex) -> bool:
    """Simpliciality by pushing every simplex of the source forward."""
    target = set(target)
    return all(tuple(sorted({vm[v] for v in s})) in target for s in source)


def unmapped_edge(
    vertex_map: Sequence[int], source: Sequence[int], target: Sequence[int]
) -> tuple[int, int] | None:
    """The first edge of the graph ``source``, in ``graph_edges`` order,
    whose image is neither one vertex nor an edge of ``target``, or None.

    On level graphs this decides whether the map is simplicial on the flag
    complexes: the target flag complex holds every clique of its graph up
    to the guard (``build_flag`` raises rather than leave one out), and
    every source simplex is a clique of source edges.
    """
    for a, b in graph_edges(source):
        fa, fb = vertex_map[a], vertex_map[b]
        if fa != fb and not target[fa] >> fb & 1:
            return a, b
    return None


def full_check_simpliciality(system: InverseSystem) -> Report:
    """The simpliciality check on every flag and nerve simplex of every
    bond's source, in the order and with the witness of the library's
    check."""
    bad = None
    for i, j in ((i, j) for i, up in enumerate(system.above) for j in up):
        bond = system.bond(i, j)
        lo, hi = system.levels[i], system.levels[j]
        for kind, build in (("F", level_flag), ("N", level_nerve)):
            source, target = build(hi, system.max_dim), build(lo, system.max_dim)
            if not full_bond_check(bond, source, target):
                names = {"lambda": list(lo.lam.cover_ids), "mu": list(hi.lam.cover_ids)}
                bad = {**names, "complex": kind}
                break
        if bad:
            break
    return Report("simpliciality", bad is None, counterexample=bad)


def full_check_flag_reconstruction(system: InverseSystem) -> Report:
    """The flag reconstruction check as it was before it compared the
    builders' inputs: each level's flag complex rebuilt from the wedge
    graph, and its nerve from that graph and the wedge fibers, against the
    complexes built from the level's own graph and fibers."""
    bad = None
    n_points = system.family.ground.n_points
    for level in system.levels:
        lam, graph = level.lam, wedge_graph(level.vertices)
        if build_flag(lam, graph, system.max_dim) != level_flag(level, system.max_dim):
            bad = {"lambda": list(lam.cover_ids), "reason": "flag reconstruction"}
            break
        fibers = wedge_fibers(level.vertices, n_points)
        if pruned_nerve(lam, graph, fibers, system.max_dim) != level_nerve(level, system.max_dim):
            bad = {"lambda": list(lam.cover_ids), "reason": "nerve reconstruction"}
            break
    return Report("flag_reconstruction", bad is None, counterexample=bad)


def full_check_skeleton_equality(system: InverseSystem) -> Report:
    """The skeleton equality check as it was before it compared graphs:
    the edge simplices of each level's flag complex and nerve, and the
    level graph, against the wedge graph."""
    bad = None
    for level in system.levels:
        graph = wedge_graph(level.vertices)
        edges = set(graph_edges(graph))
        complexes = (level_flag(level, system.max_dim), level_nerve(level, system.max_dim))
        if level.adjacency != graph or any(
            {s for s in cx if len(s) == 2} != edges for cx in complexes
        ):
            bad = {"lambda": list(level.lam.cover_ids)}
            break
    return Report("skeleton_equality", bad is None, counterexample=bad)


def full_check_nerve_absorption(system: InverseSystem) -> Report:
    """The nerve absorption check as it was before it read maximal cliques:
    every level's whole flag complex, built in level order, so the first
    level past the guard raises, and each pushed down the bonds simplex by
    simplex."""
    flags = level_flags(system)
    rows = []
    for i, level in enumerate(system.levels):
        j = find_nerve_absorbing_level(system, i, flags)
        rows.append(
            {
                "lambda": list(level.lam.cover_ids),
                "found": j is not None,
                "mu": None if j is None else list(system.levels[j].lam.cover_ids),
            }
        )
    return Report("nerve_absorption", all(r["found"] for r in rows), details={"levels": rows})


def maximal_simplices(cx: Iterable[Simplex]) -> set[Simplex]:
    """The simplices of a complex that are faces of no other."""
    cx = set(cx)
    vertices = {v for s in cx for v in s}
    return {s for s in cx if not any(tuple(sorted(s + (v,))) in cx for v in vertices - set(s))}


def clique_number(adjacency: Sequence[int], cap: int) -> int:
    """The number of vertices of a largest clique of a graph given as
    neighbour bitmasks, or ``cap`` when that is smaller, without
    enumerating the cliques: the search stops at the first clique of
    ``cap`` vertices, as a caller asking whether a guard is passed needs
    no more.

    A branch-and-bound search over the lexicographic clique tree of
    ``complexes._all_cliques``: a node is a clique and the larger vertices
    adjacent to all of it that are not yet branched on.  A node is dropped
    when its clique and all those vertices together would not beat the
    largest clique found (the bound of Carraghan and Pardalos, "An exact
    algorithm for the maximum clique problem", Oper. Res. Lett. 1990).
    """
    best = 0
    stack = [(0, (1 << len(adjacency)) - 1)]
    while stack and best < cap:
        size, candidates = stack.pop()
        best = max(best, size)
        if size + candidates.bit_count() <= best:
            continue
        v = (candidates & -candidates).bit_length() - 1
        rest = candidates & (candidates - 1)
        stack.append((size, rest))
        stack.append((size + 1, rest & adjacency[v]))
    return best


def graph_flag_core(level, max_dim: int) -> Complex:
    """The flag core as ``homology.flag_core`` built it before it reduced
    the vertex-maximal-clique relation: the clique complex of the level
    graph once every vertex whose closed neighbourhood lies inside
    another's is removed, repeatedly."""
    closed = [a | 1 << v for v, a in enumerate(level.adjacency)]
    kept = (1 << len(closed)) - 1
    while True:
        left = drop_dominated([c & kept for c in closed], closed, kept, {})
        if left == kept:
            break
        kept = left
    index = {v: c for c, v in enumerate(members(kept))}
    adjacency = [sum(1 << index[u] for u in members(closed[v] & kept & ~(1 << v))) for v in index]
    return build_flag(level.lam, adjacency, max_dim)


# ---------------------------------------------------------------------------
# GF(2) ranks: the former re-sorted-basis reduction, and sympy


def basis_gf2_rank(vectors: list[int]) -> int:
    """Rank by reducing each vector against the whole basis, kept sorted
    in decreasing order: the library's rank before pivot indexing."""
    basis: list[int] = []
    rank = 0
    for v in vectors:
        for b in basis:
            v = min(v, v ^ b)
        if v:
            basis.append(v)
            basis.sort(reverse=True)
            rank += 1
    return rank


def boundary_composition_is_zero(cx: Complex, k: int) -> bool:
    """d_k . d_{k+1} = 0, checked column by column."""
    middle = k_simplices(cx, k)
    outer = boundary_matrix(k_simplices(cx, k - 1), middle)
    inner = boundary_matrix(middle, k_simplices(cx, k + 1))
    outer_index = {s: outer.column_bits[i] for i, s in enumerate(outer.cols)}
    for s, mask in zip(inner.cols, inner.column_bits):
        acc = 0
        i = 0
        m = mask
        while m:
            if m & 1:
                acc ^= outer_index[middle[i]]
            m >>= 1
            i += 1
        if acc:
            return False
    return True


def sympy_gf2_rank(cx: Complex, k: int) -> int:
    from sympy import GF, Matrix
    from sympy.polys.matrices import DomainMatrix

    rows = k_simplices(cx, k - 1)
    cols = k_simplices(cx, k)
    if not rows or not cols:
        return 0
    row_index = {s: i for i, s in enumerate(rows)}
    m = [[0] * len(cols) for _ in rows]
    for j, s in enumerate(cols):
        for drop in range(len(s)):
            face = s[:drop] + s[drop + 1 :]
            m[row_index[face]][j] = 1
    dm = DomainMatrix.from_Matrix(Matrix(m)).convert_to(GF(2))
    return dm.rank()


def sympy_betti(cx: Complex) -> tuple[int, ...]:
    top = top_dim(cx)
    counts = [len(k_simplices(cx, k)) for k in range(top + 2)]
    ranks = [0] + [sympy_gf2_rank(cx, k) for k in range(1, top + 2)]
    return tuple(counts[k] - ranks[k] - ranks[k + 1] for k in range(top + 1))


# ---------------------------------------------------------------------------
# Betti stabilization on the full complexes


def full_induced_ranks(
    source: Complex, target: Complex, vertex_map: Sequence[int], width: int
) -> list[int]:
    """For k below ``width``, the rank of the map from H_k(source) to
    H_k(target) that a simplicial vertex map induces, read on the two
    complexes themselves: the rank its images of the source's k-cycles add
    to the target's k-boundaries."""
    out = []
    for k in range(width):
        if k > min(top_dim(source), top_dim(target)):
            out.append(0)
            continue
        faces = k_simplices(source, k)
        if k == 0:
            cycles = [1 << p for p in range(len(faces))]
        else:
            _, cycles = gf2_reduce(
                list(boundary_matrix(k_simplices(source, k - 1), faces).column_bits)
            )
        rows = k_simplices(target, k)
        position = {s: p for p, s in enumerate(rows)}
        bounds = list(boundary_matrix(rows, k_simplices(target, k + 1)).column_bits)
        images = []
        for z in cycles:
            image = 0
            for p in members(z):
                s = tuple(sorted({vertex_map[v] for v in faces[p]}))
                if len(s) == k + 1:
                    image ^= 1 << position[s]
            images.append(image)
        out.append(gf2_rank(bounds + images) - gf2_rank(bounds))
    return out


def full_betti_stabilization(system: InverseSystem, chain: list[int]) -> dict:
    """The JSON of ``betti_stabilization``'s table, with every Betti row
    read off the level's full complex and every bond's ranks off the full
    nerves, through the bond itself; stabilized when the last bond's ranks
    equal both of its nerves' Betti numbers."""
    levels = [system.levels[i] for i in chain]
    rows, nerves = [], []
    full_nerves = [level_nerve(level, system.max_dim) for level in levels]
    for level, nerve in zip(levels, full_nerves):
        ids = list(level.lam.cover_ids)
        nerves.append(list(betti(nerve).numbers))
        rows.append({"level": ids, "complex": "N", "betti": nerves[-1]})
        flag = level_flag(level, system.max_dim)
        rows.append({"level": ids, "complex": "F", "betti": list(betti(flag).numbers)})
    bonds = []
    for k in range(1, len(chain)):
        target, source = levels[k - 1], levels[k]
        bond = system.bond(chain[k - 1], chain[k])
        bonds.append({
            "source": list(source.lam.cover_ids),
            "target": list(target.lam.cover_ids),
            "ranks": full_induced_ranks(full_nerves[k], full_nerves[k - 1], bond, len(nerves[k])),
        })
    stabilized = False
    if bonds:
        width = max(map(len, nerves[-2:]))
        last = [bonds[-1]["ranks"]] + nerves[-2:]
        stabilized = len({tuple(r + [0] * (width - len(r))) for r in last}) == 1
    return {"rows": rows, "bonds": bonds, "nerve_stabilized": stabilized}


# ---------------------------------------------------------------------------
# per-point and per-net queries: the scans before point fibers and memos


def product_weights(
    family: CoverFamily, lam: LambdaIndex, vertices: Sequence[Vertex], x: PointId
) -> dict[Vertex, Fraction]:
    """Per-vertex products of the covers' even splits at x, over the
    vertices of level ``lam``.

    A cover's split gives 1/(number of its elements containing x) to each
    element that contains x and 0 to every other, read from cover
    membership alone; the products sum to 1 exactly.
    """
    if not vertices:
        raise ValueError("level has no vertices")
    out: dict[Vertex, Fraction] = {}
    for v in vertices:
        w = Fraction(1)
        for cover_id, eid in zip(lam.cover_ids, v.elements):
            elements = family.covers[cover_id].elements
            if x not in elements[eid].pointset:
                w = Fraction(0)
                break
            w /= sum(x in e.pointset for e in elements)
        out[v] = w
    return out


def scan_canonical_map(system: InverseSystem, i: int, x: PointId) -> BarycentricPoint:
    """The canonical map by product weights over every vertex of the level
    at position i, computed afresh on each call."""
    level = system.levels[i]
    weights = product_weights(system.family, level.lam, level.vertices, x)
    return BarycentricPoint.from_dict(
        {k: weights[v] for k, v in enumerate(level.vertices) if weights[v] > 0}
    )


def pairwise_is_cauchy(system: InverseSystem, y: tuple[int, ...]) -> bool:
    """Projections of any two levels above a base are adjacent there, by
    testing every pair of levels."""
    for i, up in enumerate(system.above):
        adj = system.levels[i].adjacency
        for j, k in combinations(up, 2):
            a = system.bond(i, j)[y[j]]
            b = system.bond(i, k)[y[k]]
            if a != b and not adj[a] >> b & 1:
                return False
    return True


def scan_converge(system: InverseSystem, y: tuple[int, ...]) -> tuple[int, ...] | None:
    """Convergence by trying every top vertex's thread in ascending order:
    the first thread levelwise adjacent to the net, or None."""
    if not pairwise_is_cauchy(system, y):
        raise ValueError("convergence is only defined for Cauchy nets")
    adjs = [level.adjacency for level in system.levels]
    for v in range(len(system.levels[system.top].vertices)):
        z = vertex_thread(system, v)
        if all(a == b or adj[a] >> b & 1 for adj, a, b in zip(adjs, z, y)):
            return z
    return None


def every_level_star_conditions(system: InverseSystem) -> Report:
    """``cells.check_star_conditions`` as it was before it read the top level
    alone: for each vertex thread and each level i, the levels above i are
    tried in order, each rebuilding the thread's double star there, until
    one projects it into the thread's single star at i."""
    threads = vertex_threads(system)
    t = system.top
    bad = None
    max_star = 0
    for z in threads:
        for i, level in enumerate(system.levels):
            target = _star(level.adjacency, z[i])
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
                    break
            else:
                bad = {"thread_top": z[t], "lambda": list(level.lam.cover_ids)}
                break
            max_star = max(max_star, target.bit_count())
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


def thread_scan_star_conditions(system: InverseSystem) -> Report:
    """``cells.check_star_conditions`` as it was before it read each distinct
    closed star once: every top vertex's double star, and its image under
    every ``bond(i, t)``, rebuilt for each thread."""
    t = _top(system)
    top = system.levels[t].adjacency
    bad = None
    max_star = 0
    for u in range(len(top)):
        double = 0
        for v in members(_star(top, u)):
            double |= _star(top, v)
        for i, level in enumerate(system.levels):
            vm = system.bond(i, t)
            image = 0
            for v in members(double):
                image |= 1 << vm[v]
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


def pair_scan_equivalence_classes(system: InverseSystem) -> EquivalenceResult:
    """``cells.equivalence_classes`` as it was before it skipped a thread
    whose row repeats an earlier one: every pair i < j is searched for a
    breaking triple, and each thread's class is set from the members of
    each class's row."""
    t = _top(system)
    adjs = [level.adjacency for level in system.levels]
    n = len(adjs[t])
    rows = [_star(adjs[t], i) for i in range(n)]
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


def triple_scan_equivalence_classes(system: InverseSystem) -> EquivalenceResult:
    """``cells.equivalence_classes`` as it was before its pairwise search and
    before it read the top level alone: the relation, adjacency at every
    level, as a table of bools, transitivity by scanning every triple,
    and each class read off the row of its first thread; the class
    adjacency is ``pairwise_class_adjacency``."""
    threads = vertex_threads(system)
    adjs = [level.adjacency for level in system.levels]
    n = len(threads)

    def related(i: int, j: int) -> bool:
        return all(a == b or bool(adj[a] >> b & 1) for adj, a, b in zip(adjs, threads[i], threads[j]))

    rel = [[related(i, j) for j in range(n)] for i in range(n)]
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
        for j in cls:
            class_of[j] = len(classes)
        classes.append(cls)
    adjacency = pairwise_class_adjacency(system, classes)
    return EquivalenceResult(None, QuotientSpace(tuple(classes), tuple(class_of), adjacency))


def pairwise_class_adjacency(
    system: InverseSystem, classes: Sequence[tuple[int, ...]]
) -> dict[LambdaIndex, frozenset[tuple[int, int]]]:
    """Per level, the pairs ci <= cj of thread classes with some member
    threads equal or adjacent there, by testing every pair of members."""
    threads = vertex_threads(system)
    out = {}
    for p, level in enumerate(system.levels):
        adj = level.adjacency
        pairs = {(ci, ci) for ci in range(len(classes))}
        for ci, cj in combinations(range(len(classes)), 2):
            if any(
                a == b or adj[a] >> b & 1
                for a in (threads[i][p] for i in classes[ci])
                for b in (threads[j][p] for j in classes[cj])
            ):
                pairs.add((ci, cj))
        out[level.lam] = frozenset(pairs)
    return out


def full_compare_quotient_to_ground(system: InverseSystem, result: EquivalenceResult) -> Report:
    """``cells.compare_quotient_to_ground`` as it was before it was cut to
    its bijection test: after the bijection, each vertex thread must have a
    singleton image whose point's class is the thread's, and two points
    must share an element of a level exactly when their classes share a
    vertex there, read from ``level.fibers``."""
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
        image = vertex_thread_image(system, z)
        if image.bit_count() != 1:
            return Report(
                "quotient_comparison",
                False,
                details={"skipped": "a vertex thread has a non-singleton image"},
            )
        x = image.bit_length() - 1
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


def tuple_scan_fiber_escape(
    system: InverseSystem, x: PointId, pairs: Sequence[tuple[int, int]]
) -> tuple[int, int] | None:
    """``systems.fiber_escape`` as it was before it made each fiber a set:
    each image vertex is looked up in the target fiber's tuple."""
    for i, j in pairs:
        vm, fiber = system.bond(i, j), system.levels[i].fibers[x]
        if any(vm[v] not in fiber for v in system.levels[j].fibers[x]):
            return i, j
    return None


def thread_scan_check_fibers(system: InverseSystem) -> Report:
    """``systems.check_fibers`` as it was before it read each thread's image
    once: for each point, every vertex thread's image is tested for it."""
    bad = None
    t = system.top
    threads = vertex_threads(system) if t is not None else []
    images = [vertex_thread_image(system, z) for z in threads]
    pairs = [(i, j) for i, up in enumerate(system.above) for j in up]
    for x in system.family.ground.points:
        escape = fiber_escape(system, x, pairs)
        if escape is not None:
            lam, mu = (system.levels[p].lam for p in escape)
            bad = {"point": x, "lam": list(lam.cover_ids), "mu": list(mu.cover_ids)}
            break
        if t is not None:
            through_x = {z[t] for z, pts in zip(threads, images) if pts >> x & 1}
            if through_x != set(system.levels[t].fibers[x]):
                bad = {"point": x, "reason": "top fiber not realized by threads"}
                break
    return Report("fibers", bad is None, counterexample=bad)


def sweep_every_net(system: InverseSystem, count: int, seed: int) -> Report:
    """The Cauchy sweep with neither memo: every candidate is tested and
    every kept net searched, with the library's draws and report."""
    rng = random.Random(seed)
    threads = vertex_threads(system)
    sizes = [len(level.vertices) for level in system.levels]
    non_max = non_max_levels(system)
    nets = []
    attempts = 0
    while len(nets) < count and attempts < 50 * count:
        attempts += 1
        if rng.random() < 0.5:
            z = threads[rng.randrange(len(threads))]
            candidate = perturbed_thread_net(system, z, rng, non_max)
        else:
            candidate = tuple(rng.randrange(n) for n in sizes)
        if pairwise_is_cauchy(system, candidate):
            nets.append(candidate)
    if len(nets) < count:
        details = {"reason": "not enough Cauchy nets", "found": len(nets)}
        return Report("cauchy_sweep", False, details=details)
    bad = next(({"net": i} for i, y in enumerate(nets) if scan_converge(system, y) is None), None)
    return Report(
        "cauchy_sweep", bad is None, counterexample=bad, details={"nets": count, "seed": seed}
    )


# ---------------------------------------------------------------------------
# the sampled thread checks: the homotopy on seeded point threads and the
# sweep over seeded Cauchy nets, as the library ran them before it decided
# both checks exactly


def canonical_point(system: InverseSystem, i: int, x: PointId) -> BarycentricPoint:
    """x's canonical point at position i: the barycentre of its carrier."""
    carrier = canonical_map(system, i, x)
    share = Fraction(1, len(carrier))
    return BarycentricPoint(carrier, tuple((v, share) for v in carrier))


def canonical_points(system: InverseSystem, x: PointId) -> tuple[BarycentricPoint, ...]:
    """x's canonical thread as barycentric points."""
    return tuple(canonical_point(system, i, x) for i in range(len(system.levels)))


def point_thread(
    system: InverseSystem, top_point: BarycentricPoint
) -> tuple[BarycentricPoint, ...]:
    """The point thread through a barycentric point of the top level."""
    t = _top(system)
    return tuple(push_point(system.bond(i, t), top_point) for i in range(len(system.levels)))


def point_image(system: InverseSystem, z: tuple[BarycentricPoint, ...]) -> int:
    """The image of a point thread, read from its carriers, as a point bitmask."""
    return thread_image(system, tuple(point.carrier for point in z))


def fiber_homotopy(
    system: InverseSystem, z: tuple[BarycentricPoint, ...], t: Fraction
) -> tuple[BarycentricPoint, ...]:
    """Levelwise convex combination pulling a thread onto its canonical
    image without moving its ground point."""
    image = point_image(system, z)
    if image.bit_count() != 1:
        raise ValueError("thread image is not a single ground point")
    x = image.bit_length() - 1
    entries = []
    for i, (level, point) in enumerate(zip(system.levels, z)):
        target = canonical_point(system, i, x)
        moved = convex_combination(Fraction(t), target, point)
        if not carrier_wedge(level.vertices, point.carrier + target.carrier):
            raise AssertionError("homotopy leaves the nerve")
        entries.append(moved)
    return tuple(entries)


def sampled_check_homotopy(system: InverseSystem, count: int, seed: int) -> Report:
    """Seeded sample of resolved point threads: endpoints and image
    preservation of the homotopy, with exact equality."""
    rng = random.Random(seed)
    level = system.levels[_top(system)]
    candidates = level_nerve(level, system.max_dim)
    threads = []  # (thread, its image)
    attempts = 0
    while len(threads) < count and attempts < 50 * count:
        attempts += 1
        s = candidates[rng.randrange(len(candidates))]
        weights = [Fraction(rng.randint(1, 9)) for _ in s]
        total = sum(weights)
        point = BarycentricPoint.from_dict({v: w / total for v, w in zip(s, weights)})
        z = point_thread(system, point)
        image = point_image(system, z)
        if image.bit_count() == 1:
            threads.append((z, image))
    if len(threads) < count:
        return Report(
            "fiber_homotopy",
            False,
            details={"reason": "not enough resolved threads", "found": len(threads)},
        )
    stages = [Fraction(0), Fraction(1, 4), Fraction(1, 2), Fraction(3, 4), Fraction(1)]
    bad = None
    for i, (z, image) in enumerate(threads):
        x = image.bit_length() - 1
        # Whether a stage raises does not depend on t, so computing every
        # stage up front raises exactly where the t=0 endpoint test would.
        moved = [fiber_homotopy(system, z, t) for t in stages]
        if moved[0] != z:
            bad = {"thread": i, "reason": "t=0 moved the thread"}
        elif moved[-1] != canonical_points(system, x):
            bad = {"thread": i, "reason": "t=1 missed the canonical thread"}
        else:
            for t, w in zip(stages, moved):
                if point_image(system, w) != image:
                    bad = {"thread": i, "t": t, "reason": "image moved"}
                    break
        if bad:
            break
    return Report(
        "fiber_homotopy",
        bad is None,
        counterexample=bad,
        details={"threads": len(threads), "stages": stages, "seed": seed},
    )


def _star(adj: Sequence[int], v: int) -> int:
    return adj[v] | 1 << v


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
        if all(a == b or adj[a] >> b & 1 for adj, a, b in zip(adjs, (vm[v] for vm in down), y)):
            return vertex_thread(system, v)
    return None


def non_max_levels(system: InverseSystem) -> list[int]:
    """The positions of the levels other than the top one."""
    return [i for i in range(len(system.levels)) if i != system.top]


def perturbed_thread_net(
    system: InverseSystem, z: tuple[int, ...], rng: random.Random, non_max: list[int]
) -> tuple[int, ...]:
    """Move one non-maximal level of a thread to an adjacent vertex; with
    no level below the top, the thread itself.  ``non_max`` must be
    ``non_max_levels(system)``."""
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
    non_max = non_max_levels(system)
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


def sampled_cauchy_sweep(system: InverseSystem, count: int, seed: int) -> Report:
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


def dump_json_oracle(obj) -> str:
    """``report.dump_json`` as the standard library writes it: the
    pure-Python ``json`` encoder that ``indent`` selects."""
    return json.dumps(obj, sort_keys=True, indent=2, default=_fraction) + "\n"
