"""Inverse systems of flag/nerve levels with coordinate-projection bonds.

With finitely many covers the index set has a maximum level, so limit
objects are computed at the top and consistency with lower levels is
verified rather than assumed.  Threads are bond-compatible assignments of
a vertex (or barycentric point) to every built level.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations
from typing import Iterable, Sequence

from .complexes import (
    BarycentricPoint,
    LambdaIndex,
    SimplicialComplex,
    SimplicialMap,
    Vertex,
    build_flag,
    build_nerve,
    build_vertices,
    carrier_wedge,
    convex_combination,
    flag_completion,
    point_fibers,
    product_weights,
)
from .ground import CoverFamily, PointId, WeightTable, partition_tables
from .report import Report


@dataclass
class Level:
    lam: LambdaIndex
    vertices: tuple[Vertex, ...]
    flag: SimplicialComplex
    nerve: SimplicialComplex
    index_of: dict[tuple[int, ...], int]


@dataclass
class InverseSystem:
    family: CoverFamily
    lambdas: list[LambdaIndex]
    levels: dict[LambdaIndex, Level]
    max_dim: int
    tables: dict[int, WeightTable]
    _bonds: dict[tuple[LambdaIndex, LambdaIndex], SimplicialMap] = field(default_factory=dict)

    @property
    def top(self) -> LambdaIndex | None:
        """The maximum built level, when one exists."""
        best = max(self.lambdas, key=lambda l: l.sort_key)
        return best if all(l <= best for l in self.lambdas) else None

    def comparable_pairs(self) -> list[tuple[LambdaIndex, LambdaIndex]]:
        return [
            (a, b)
            for a in self.lambdas
            for b in self.lambdas
            if a <= b
        ]

    def chains(self) -> list[tuple[LambdaIndex, LambdaIndex, LambdaIndex]]:
        return [
            (a, b, c)
            for a in self.lambdas
            for b in self.lambdas
            for c in self.lambdas
            if a <= b and b <= c
        ]


def all_lambdas(n_covers: int) -> list[LambdaIndex]:
    out = []
    for k in range(1, n_covers + 1):
        out.extend(LambdaIndex.of(ids) for ids in combinations(range(n_covers), k))
    return sorted(out, key=lambda l: l.sort_key)


def build_system(
    family: CoverFamily,
    lambdas: Sequence[LambdaIndex] | None = None,
    max_dim: int = 8,
) -> InverseSystem:
    """Construct all selected levels and verify every bond is simplicial.

    Each bond is checked on the edges of its source.  The target is a flag
    complex from ``build_flag``, which holds every clique of its 1-skeleton
    up to the guard (it raises rather than leave one out), and every source
    simplex is a clique of source edges.  So the image of each simplex is a
    target simplex once the image of each edge is an edge or one vertex.
    """
    lams = sorted(
        all_lambdas(len(family.covers)) if lambdas is None else lambdas,
        key=lambda l: l.sort_key,
    )
    levels = {}
    for lam in lams:
        verts = build_vertices(family, lam)
        flag = build_flag(family, lam, max_dim, verts)
        nerve = build_nerve(family, lam, max_dim, verts)
        levels[lam] = Level(lam, tuple(verts), flag, nerve, {v.elements: i for i, v in enumerate(verts)})
    system = InverseSystem(family, lams, levels, max_dim, partition_tables(family))
    edges = {lam: level.flag.edges() for lam, level in levels.items()}
    for lam, mu in system.comparable_pairs():
        bonding_map(system, lam, mu).verify(edges[mu])
    return system


def bonding_map(system: InverseSystem, lam: LambdaIndex, mu: LambdaIndex) -> SimplicialMap:
    """The coordinate projection from level mu down to level lam."""
    if not lam <= mu:
        raise ValueError(f"{lam} is not below {mu}")
    key = (lam, mu)
    if key in system._bonds:
        return system._bonds[key]
    src, dst = system.levels[mu], system.levels[lam]
    positions = [mu.cover_ids.index(i) for i in lam.cover_ids]
    vm = []
    for v in src.vertices:
        dropped = tuple(v.elements[p] for p in positions)
        vm.append(dst.index_of[dropped])
    m = SimplicialMap(src.flag, dst.flag, tuple(vm))
    system._bonds[key] = m
    return m


# ---------------------------------------------------------------------------
# threads


@dataclass(frozen=True)
class VertexThread:
    """A bond-compatible choice of one vertex per level."""

    entries: tuple[tuple[LambdaIndex, int], ...]

    def at(self, lam: LambdaIndex) -> int:
        for l, v in self.entries:
            if l == lam:
                return v
        raise KeyError(lam)

    @classmethod
    def from_top(cls, system: InverseSystem, top_vid: int) -> "VertexThread":
        top = system.top
        if top is None:
            raise ValueError("system has no maximum level")
        entries = []
        for lam in system.lambdas:
            entries.append((lam, bonding_map(system, lam, top).apply(top_vid)))
        return cls(tuple(sorted(entries, key=lambda e: e[0].sort_key)))

    def is_compatible(self, system: InverseSystem) -> bool:
        for lam, mu in system.comparable_pairs():
            if bonding_map(system, lam, mu).apply(self.at(mu)) != self.at(lam):
                return False
        return True


@dataclass(frozen=True)
class PointThread:
    """A bond-compatible choice of one barycentric point per level."""

    entries: tuple[tuple[LambdaIndex, BarycentricPoint], ...]

    def at(self, lam: LambdaIndex) -> BarycentricPoint:
        for l, p in self.entries:
            if l == lam:
                return p
        raise KeyError(lam)

    @classmethod
    def from_top(cls, system: InverseSystem, top_point: BarycentricPoint) -> "PointThread":
        top = system.top
        if top is None:
            raise ValueError("system has no maximum level")
        entries = []
        for lam in system.lambdas:
            entries.append((lam, bonding_map(system, lam, top).push_point(top_point)))
        return cls(tuple(sorted(entries, key=lambda e: e[0].sort_key)))

    def is_compatible(self, system: InverseSystem) -> bool:
        for lam, mu in system.comparable_pairs():
            if bonding_map(system, lam, mu).push_point(self.at(mu)) != self.at(lam):
                return False
        return True


def vertex_threads(system: InverseSystem) -> list[VertexThread]:
    top = system.top
    if top is None:
        raise ValueError("system has no maximum level")
    return [VertexThread.from_top(system, v) for v in range(len(system.levels[top].vertices))]


# ---------------------------------------------------------------------------
# the maps between system and space


def canonical_map(system: InverseSystem, lam: LambdaIndex, x: PointId) -> BarycentricPoint:
    """Barycentric point of level lam whose coordinates are the product
    weights of x; its support always spans a nerve simplex."""
    level = system.levels[lam]
    weights = product_weights(system.family, level.vertices, x, system.tables)
    coords = {
        level.index_of[v.elements]: w for v, w in weights.items() if w > 0
    }
    point = BarycentricPoint.from_dict(level.flag, coords)
    if point.carrier not in level.nerve.simplices:
        raise AssertionError("canonical image does not span a nerve simplex")
    for vid in point.carrier:
        if x not in level.vertices[vid].wedge:
            raise AssertionError("canonical support must contain the point")
    return point


def canonical_thread(system: InverseSystem, x: PointId) -> PointThread:
    entries = tuple(
        (lam, canonical_map(system, lam, x))
        for lam in sorted(system.lambdas, key=lambda l: l.sort_key)
    )
    return PointThread(entries)


@dataclass(frozen=True)
class PiResult:
    """Finite-level image of a thread: the intersection of carrier wedges."""

    points: frozenset[PointId]
    resolved: bool
    off_nerve: bool = False

    def to_json(self) -> dict:
        return {
            "points": sorted(self.points),
            "resolved": self.resolved,
            "off_nerve": self.off_nerve,
        }


def thread_image(system: InverseSystem, z: VertexThread | PointThread) -> PiResult:
    """Intersect the carrier wedges of all levels of the thread.

    A point thread whose top carrier only spans a flag simplex (not a nerve
    one) is flagged off_nerve and yields the empty set.
    """
    common: frozenset[PointId] | None = None
    off_nerve = False
    for lam, entry in z.entries:
        level = system.levels[lam]
        if isinstance(entry, BarycentricPoint):
            wedge = carrier_wedge(entry)
            if entry.carrier not in level.nerve.simplices:
                off_nerve = True
        else:
            wedge = level.vertices[entry].wedge
        common = wedge if common is None else common & wedge
    assert common is not None
    return PiResult(frozenset(common), len(common) == 1, off_nerve)


def check_section_identity(system: InverseSystem) -> Report:
    """Every ground point must come back as the singleton image of its
    canonical thread."""
    unresolved = []
    for x in system.family.ground.points:
        res = thread_image(system, canonical_thread(system, x))
        if not (res.resolved and res.points == {x}):
            unresolved.append({"point": x, "image": sorted(res.points)})
    return Report(
        "section_identity",
        not unresolved,
        counterexample=unresolved[0] if unresolved else None,
        details={"points": system.family.ground.n_points, "unresolved": unresolved},
    )


# ---------------------------------------------------------------------------
# fibers


@dataclass(frozen=True)
class Fiber:
    carrier_vertices: tuple[int, ...]  # all vertices whose wedge contains x
    simplex: tuple[int, ...]

    def __iter__(self):
        return iter((self.carrier_vertices, self.simplex))


def fiber(system: InverseSystem, x: PointId, lam: LambdaIndex) -> Fiber:
    """All vertices over x and the nerve simplex they span."""
    level = system.levels[lam]
    c = tuple(i for i, v in enumerate(level.vertices) if x in v.wedge)
    if not c:
        raise AssertionError("covers cover, so the fiber set cannot be empty")
    if c not in level.nerve.simplices:
        raise AssertionError("fiber vertices fail to span a nerve simplex")
    return Fiber(c, c)


def check_fibers(system: InverseSystem) -> Report:
    """Fiber sets project into each other along every bond, and the top
    fiber is realized by exactly the vertex threads through x."""
    bad = None
    top = system.top
    threads = vertex_threads(system) if top is not None else []
    images = [thread_image(system, z).points for z in threads]
    for x in system.family.ground.points:
        fibers = {lam: fiber(system, x, lam) for lam in system.lambdas}
        for lam, mu in system.comparable_pairs():
            bond = bonding_map(system, lam, mu)
            image = {bond.apply(v) for v in fibers[mu].carrier_vertices}
            if not image <= set(fibers[lam].carrier_vertices):
                bad = {"point": x, "lam": list(lam.cover_ids), "mu": list(mu.cover_ids)}
                break
        if bad:
            break
        if top is not None:
            through_x = {
                z.at(top) for z, pts in zip(threads, images) if x in pts
            }
            if through_x != set(fibers[top].carrier_vertices):
                bad = {"point": x, "reason": "top fiber not realized by threads"}
                break
    return Report("fibers", bad is None, counterexample=bad)


# ---------------------------------------------------------------------------
# the fiberwise homotopy


def fiber_homotopy(system: InverseSystem, z: PointThread, t: Fraction) -> PointThread:
    """Levelwise convex combination pulling a thread onto its canonical
    image without moving its ground point."""
    res = thread_image(system, z)
    if not res.resolved:
        raise ValueError("thread image is not a single ground point")
    (x,) = res.points
    entries = []
    for lam, point in z.entries:
        level = system.levels[lam]
        target = canonical_map(system, lam, x)
        moved = convex_combination(Fraction(t), target, point)
        ambient = tuple(sorted(set(point.carrier) | set(target.carrier)))
        if ambient not in level.nerve.simplices:
            raise AssertionError("homotopy leaves the nerve")
        entries.append((lam, moved))
    return PointThread(tuple(entries))


def check_homotopy(
    system: InverseSystem, count: int = 50, seed: int = 0
) -> Report:
    """Seeded sample of resolved point threads: endpoints and image
    preservation of the homotopy, with exact equality."""
    import random

    top = system.top
    if top is None:
        raise ValueError("system has no maximum level")
    rng = random.Random(seed)
    level = system.levels[top]
    candidates = sorted(level.nerve.simplices)
    threads = []
    attempts = 0
    while len(threads) < count and attempts < 50 * count:
        attempts += 1
        s = candidates[rng.randrange(len(candidates))]
        weights = [Fraction(rng.randint(1, 9)) for _ in s]
        total = sum(weights)
        point = BarycentricPoint.from_dict(
            level.flag, {v: w / total for v, w in zip(s, weights)}
        )
        z = PointThread.from_top(system, point)
        if thread_image(system, z).resolved:
            threads.append(z)
    if len(threads) < count:
        return Report(
            "fiber_homotopy",
            False,
            details={"reason": "not enough resolved threads", "found": len(threads)},
        )
    stages = [Fraction(0), Fraction(1, 4), Fraction(1, 2), Fraction(3, 4), Fraction(1)]
    bad = None
    for i, z in enumerate(threads):
        image = thread_image(system, z)
        (x,) = image.points
        if fiber_homotopy(system, z, Fraction(0)) != z:
            bad = {"thread": i, "reason": "t=0 moved the thread"}
            break
        if fiber_homotopy(system, z, Fraction(1)) != canonical_thread(system, x):
            bad = {"thread": i, "reason": "t=1 missed the canonical thread"}
            break
        for t in stages:
            if thread_image(system, fiber_homotopy(system, z, t)).points != image.points:
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


# ---------------------------------------------------------------------------
# eventual absorption of the flag complex into the nerve


def find_nerve_absorbing_level(
    system: InverseSystem, lam: LambdaIndex
) -> tuple[bool, LambdaIndex | None]:
    """Smallest built level above lam whose whole flag complex projects
    into the nerve of lam."""
    nerve = system.levels[lam].nerve
    for mu in sorted((m for m in system.lambdas if lam <= m), key=lambda l: l.sort_key):
        bond = bonding_map(system, lam, mu)
        if all(
            bond.image_simplex(s) in nerve.simplices
            for s in system.levels[mu].flag.simplices
        ):
            return True, mu
    return False, None


def check_nerve_absorption(system: InverseSystem) -> Report:
    rows = []
    passed = True
    for lam in system.lambdas:
        found, mu = find_nerve_absorbing_level(system, lam)
        rows.append(
            {
                "lambda": list(lam.cover_ids),
                "found": found,
                "mu": None if mu is None else list(mu.cover_ids),
            }
        )
        passed = passed and found
    return Report("nerve_absorption", passed, details={"levels": rows})


# ---------------------------------------------------------------------------
# iterated stars


def _iterated_star(
    wedges: Sequence[frozenset[PointId]], x: PointId, n: int
) -> list[frozenset[PointId]]:
    star = [w for w in wedges if x in w]
    for _ in range(n - 1):
        current = star
        star = [w for w in wedges if any(w & s for s in current)]
    return star


def iterated_star_witness(
    system: InverseSystem, x: PointId, n: int, nbhd: Iterable[PointId]
) -> tuple[bool, LambdaIndex | None]:
    """Find a built level whose n-fold star of x stays inside the
    neighborhood."""
    u = frozenset(nbhd)
    if x not in u:
        raise ValueError("neighborhood does not contain its point")
    if n < 1:
        raise ValueError("star depth must be positive")
    for lam in sorted(system.lambdas, key=lambda l: l.sort_key):
        wedges = sorted(
            {v.wedge for v in system.levels[lam].vertices}, key=sorted
        )
        union: set[PointId] = set()
        for w in _iterated_star(wedges, x, n):
            union |= w
        if union <= u:
            return True, lam
    return False, None


# ---------------------------------------------------------------------------
# adjacency characterization of equal images


def check_fiber_adjacency(system: InverseSystem) -> Report:
    """For vertex threads: equal singleton images exactly when the wedges
    meet at every level.  Needs every thread image to be a singleton."""
    threads = vertex_threads(system)
    images = []
    for z in threads:
        res = thread_image(system, z)
        if not res.resolved:
            return Report(
                "fiber_adjacency",
                False,
                details={
                    "skipped": "a vertex thread has a non-singleton image",
                    "image": sorted(res.points),
                },
            )
        images.append(res.points)
    bad = None
    for i, j in combinations(range(len(threads)), 2):
        adjacent_everywhere = True
        for lam in system.lambdas:
            level = system.levels[lam]
            wi = level.vertices[threads[i].at(lam)].wedge
            wj = level.vertices[threads[j].at(lam)].wedge
            if not wi & wj:
                adjacent_everywhere = False
                break
        if (images[i] == images[j]) != adjacent_everywhere:
            bad = {"threads": [i, j], "equal_image": images[i] == images[j]}
            break
    return Report(
        "fiber_adjacency", bad is None, counterexample=bad, details={"threads": len(threads)}
    )


# ---------------------------------------------------------------------------
# structural checks


def check_functoriality(system: InverseSystem) -> Report:
    bad = None
    count = 0
    for lam, mu, nu in system.chains():
        count += 1
        direct = bonding_map(system, lam, nu)
        through = bonding_map(system, lam, mu).compose(bonding_map(system, mu, nu))
        if direct.vertex_map != through.vertex_map:
            bad = {
                "lambda": list(lam.cover_ids),
                "mu": list(mu.cover_ids),
                "nu": list(nu.cover_ids),
            }
            break
    return Report("functoriality", bad is None, counterexample=bad, details={"chains": count})


def check_simpliciality(system: InverseSystem) -> Report:
    """Every bond is simplicial on the flag complexes and on the nerves.

    The flag half is decided on edges, as in ``build_system``.  The nerve
    half is decided on point fibers: the nerve is the downward closure of
    its fibers, the image of a face is a face of the image, and the target
    nerve is downward closed.
    """
    n_points = system.family.ground.n_points
    edges = {lam: system.levels[lam].flag.edges() for lam in system.lambdas}
    fibers = {
        lam: point_fibers(system.levels[lam].vertices, n_points) for lam in system.lambdas
    }
    bad = None
    for lam, mu in system.comparable_pairs():
        bond = bonding_map(system, lam, mu)
        if bond.unmapped(edges[mu]) is not None:
            bad = {"lambda": list(lam.cover_ids), "mu": list(mu.cover_ids), "complex": "F"}
            break
        nerve_lo, nerve_hi = system.levels[lam].nerve, system.levels[mu].nerve
        nerve_bond = SimplicialMap(nerve_hi, nerve_lo, bond.vertex_map)
        if nerve_bond.unmapped(fibers[mu]) is not None:
            bad = {"lambda": list(lam.cover_ids), "mu": list(mu.cover_ids), "complex": "N"}
            break
    return Report("simpliciality", bad is None, counterexample=bad)


def check_flag_reconstruction(system: InverseSystem) -> Report:
    """The flag complex must equal the clique complex of its own 1-skeleton,
    and the nerve must sit inside it with the same 1-skeleton."""
    bad = None
    for lam in system.lambdas:
        level = system.levels[lam]
        graph = _SkeletonGraph(level.flag)
        rebuilt = flag_completion(graph, system.max_dim)
        if rebuilt.simplices != level.flag.simplices:
            bad = {"lambda": list(lam.cover_ids), "reason": "flag reconstruction"}
            break
        if not level.nerve.is_subcomplex_of(level.flag):
            bad = {"lambda": list(lam.cover_ids), "reason": "nerve not a subcomplex"}
            break
    return Report("flag_reconstruction", bad is None, counterexample=bad)


def check_skeleton_equality(system: InverseSystem) -> Report:
    bad = None
    for lam in system.lambdas:
        level = system.levels[lam]
        if level.nerve.skeleton(1).simplices != level.flag.skeleton(1).simplices:
            bad = {"lambda": list(lam.cover_ids)}
            break
    return Report("skeleton_equality", bad is None, counterexample=bad)


class _SkeletonGraph:
    def __init__(self, cx: SimplicialComplex):
        self.n_vertices = cx.n_vertices
        self.edges = {frozenset(e) for e in cx.k_simplices(1)}
