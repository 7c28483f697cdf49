"""Inverse systems of flag/nerve levels with coordinate-projection bonds.

With finitely many covers the index set has a maximum level, so limit
objects are computed at the top and consistency with lower levels is
verified rather than assumed.  A thread is a tuple of carrier simplices
aligned with ``system.levels``, bond-compatible when built from the top:
the canonical thread of a point, or the vertex thread through a vertex v
of the top level t, whose carrier at position i is ``(bond(i, t)[v],)``.
A vertex thread is named by its top vertex id alone.
"""

from __future__ import annotations

from functools import reduce
from itertools import combinations
from operator import and_, itemgetter, or_
from typing import Iterable, NamedTuple, Sequence

from .complexes import (DEFAULT_MAX_DIM, LambdaIndex, Simplex, build_vertices, carrier_wedge,
                        graph_edges, maximal_cliques, members, point_fibers, unmapped,
                        wedge_adjacency)
from .errors import GuardExceeded, PreconditionUnmet
from .ground import CoverFamily, ElementId, PointId
from .report import Report

MAX_LEVELS = 1023  # the level guard, checked before any level is listed: all levels of 10 covers
MAX_SYSTEM_VERTICES = 1 << 16  # over all levels: with MAX_VERTICES, 256 MiB of adjacency at most


class Level(NamedTuple):
    """One level: its name, its vertices, and their wedge relation, from
    which a reader builds a complex (``build_flag``, ``build_complexes``)."""

    lam: LambdaIndex
    # per vertex id, its element tuple, read by the bonds and the level files
    # alone, and its wedge: the keys and values of ``complexes.build_vertices``
    elements: tuple[tuple[ElementId, ...], ...]
    wedges: tuple[int, ...]
    # the level graph, shared by the flag 1-skeleton and the nerve's, as
    # ``complexes.wedge_adjacency`` gives it
    adjacency: list[int]
    # per ground point, the vertices whose wedge contains it, as
    # ``complexes.point_fibers`` gives them
    fibers: list[tuple[int, ...]]


class InverseSystem:
    """Levels ordered by size and then by cover ids.

    A level is named by its position in ``levels``; ``levels[i].lam`` is
    its name for output, and ``position`` turns a name a user gives into a
    position.  ``above[i]`` lists, ascending, the positions of the levels
    at or above position i, and ``pairs`` every comparable pair (i, j),
    identities included, by i and then j.  ``bond(i, j)`` is the bond down
    from position j to i: its vertex map, entry v the image of vertex v of
    level j.  All of these, and ``top`` (the position of the maximum level,
    when one exists), are computed from ``levels``: the bonds by
    ``_projection`` over ``pairs``, each identity as ``range``.
    """

    __slots__ = ("family", "levels", "max_dim", "_bonds", "position", "above", "pairs", "top")

    def __init__(self, family: CoverFamily, levels: list[Level], max_dim: int) -> None:
        position = {level.lam: i for i, level in enumerate(levels)}
        if len(position) != len(levels):
            raise ValueError("a level is listed twice")
        self.family = family
        self.levels = levels
        self.max_dim = max_dim
        self.position = position
        ids = [frozenset(level.lam.cover_ids) for level in levels]
        self.above = [tuple(j for j, b in enumerate(ids) if a <= b) for a in ids]
        self.pairs = pairs = [(i, j) for i, up in enumerate(self.above) for j in up]
        last = len(levels) - 1
        has_top = levels and all(up[-1] == last for up in self.above)
        self.top = last if has_top else None
        index_of = [{e: k for k, e in enumerate(level.elements)} for level in levels]
        self._bonds = {
            (i, j): tuple(range(len(levels[i].elements))) if i == j
            else _projection(levels[i], levels[j], index_of[i])
            for i, j in pairs
        }

    def bond(self, i: int, j: int) -> tuple[int, ...]:
        """The bond from the level at position j down to position i."""
        return self._bonds[(i, j)]


def all_lambdas(n_covers: int) -> list[LambdaIndex]:
    """Every level index, by size and then by cover ids, as combinations come:
    2 ** n_covers - 1 of them, the count ``build_system`` guards before listing."""
    ks = range(1, n_covers + 1)
    return [LambdaIndex(ids) for k in ks for ids in combinations(range(n_covers), k)]


def build_system(
    family: CoverFamily,
    lambdas: Sequence[LambdaIndex] | None = None,
    max_dim: int = DEFAULT_MAX_DIM,
) -> InverseSystem:
    """Construct all selected levels, and with them every bond, and verify
    that each bond is simplicial.  No complex is enumerated, so the
    ``max_dim`` guard is applied by whatever builds one.

    Each bond must map x's fiber into x's fiber, for every point x
    (``fiber_escape``).  A level graph is ``wedge_adjacency`` of its fibers,
    so each edge, lying in a fiber, goes to an edge or one vertex: the bond
    is a reflexive graph homomorphism, hence simplicial on the flag complexes.
    """
    n_levels = 2 ** len(family.covers) - 1 if lambdas is None else len(lambdas)
    if n_levels > MAX_LEVELS:
        raise GuardExceeded(f"{n_levels} levels exceed the level guard ({MAX_LEVELS} levels)")
    lams = sorted(
        all_lambdas(len(family.covers)) if lambdas is None else lambdas,
        key=lambda l: l.sort_key,
    )
    levels, total = [], 0
    for lam in lams:
        verts = build_vertices(family, lam)
        if (total := total + len(verts)) > MAX_SYSTEM_VERTICES:  # before its adjacency is built
            raise GuardExceeded(f"{total} vertices in {len(levels) + 1} levels exceed"
                                f" the system vertex guard ({MAX_SYSTEM_VERTICES} vertices)")
        wedges = tuple(verts.values())
        fibers = point_fibers(wedges, family.ground.n_points)
        levels.append(Level(lam, tuple(verts), wedges, wedge_adjacency(fibers, len(wedges)), fibers))
    system = InverseSystem(family, levels, max_dim)
    bad = fiber_escape(system, family.ground.points, system.pairs)
    if bad is not None:
        x, pair = bad
        lam, mu = (list(levels[p].lam.cover_ids) for p in pair)
        raise AssertionError(f"the bond from {mu} to {lam} maps point {x}'s fiber outside it")
    return system


def _projection(dst: Level, src: Level, index_of: dict[tuple[int, ...], int]) -> tuple[int, ...]:
    """The vertex map forgetting the covers of ``src`` that ``dst`` lacks;
    ``index_of`` gives each vertex id of ``dst`` by its elements."""
    positions = [src.lam.cover_ids.index(i) for i in dst.lam.cover_ids]
    if len(positions) == 1:  # an itemgetter of one position gives the bare element
        keep = itemgetter(slice(positions[0], positions[0] + 1))
    else:
        keep = itemgetter(*positions)
    return tuple(map(index_of.__getitem__, map(keep, src.elements)))


# ---------------------------------------------------------------------------
# threads


def _top(system: InverseSystem) -> int:
    if system.top is None:
        raise PreconditionUnmet("the selected levels have no maximum level")
    return system.top


# ---------------------------------------------------------------------------
# the maps between system and space


def canonical_map(system: InverseSystem, i: int, x: PointId) -> tuple[int, ...]:
    """x's canonical point in the level at position i, as its carrier:
    x's point fiber.

    The point takes the product weights of the partitions of unity that
    split each cover evenly among the elements containing x.  The fiber
    is every tuple of such elements, one per cover, so each of its
    vertices weighs 1/|fiber| and every other vertex has a factor 0: the
    point is the barycentre of its carrier, and no caller needs the
    weights.
    """
    level = system.levels[i]
    fiber = level.fibers[x]
    if not carrier_wedge(level.wedges, fiber) >> x & 1:
        raise AssertionError("canonical support must span a nerve simplex at the point")
    return fiber


def canonical_thread(system: InverseSystem, x: PointId) -> tuple[tuple[int, ...], ...]:
    return tuple(canonical_map(system, i, x) for i in range(len(system.levels)))


def thread_image(system: InverseSystem, z: tuple) -> int:
    """Intersect the carrier wedges of all levels of the thread: its
    finite-level image, as a point bitmask.  The thread is resolved when
    that is one point.

    A carrier that only spans a flag simplex (not a nerve one) yields 0: a
    carrier spans a nerve simplex exactly when its wedges share a point.
    """
    return reduce(and_, [carrier_wedge(level.wedges, s) for level, s in zip(system.levels, z)])


def check_section_identity(system: InverseSystem) -> Report:
    """Every ground point must come back as the singleton image of its
    canonical thread."""
    unresolved = []
    for x in system.family.ground.points:
        image = thread_image(system, canonical_thread(system, x))
        if image != 1 << x:
            unresolved.append({"point": x, "image": members(image)})
    return Report(
        "section_identity",
        not unresolved,
        counterexample=unresolved[0] if unresolved else None,
        details={"points": system.family.ground.n_points, "unresolved": unresolved},
    )


# ---------------------------------------------------------------------------
# fibers


def fiber_escape(
    system: InverseSystem, points: Iterable[PointId], pairs: Sequence[tuple[int, int]]
) -> tuple[PointId, tuple[int, int]] | None:
    """The first point x of ``points`` with a pair (i, j) of ``pairs`` whose
    bond from position j down to i maps a vertex of x's fiber at j outside
    x's fiber at i, and the first such pair; or None.

    x's fiber at each level is made a set once per point, so each pair
    costs the size of its source fiber;
    ``tests/oracles.py::tuple_scan_fiber_escape`` looks each image up in
    the target fiber's tuple."""
    levels = system.levels
    for x in points:
        fibers = [frozenset(level.fibers[x]) for level in levels]
        for i, j in pairs:
            if not fibers[i].issuperset(map(system.bond(i, j).__getitem__, levels[j].fibers[x])):
                return x, (i, j)
    return None


def check_fibers(system: InverseSystem) -> Report:
    """Fiber sets project into each other along every bond.

    The vertex threads through x then realize x's top fiber wherever
    ``flag_reconstruction`` and ``cauchy_sweep`` pass.  With the fibers the
    wedge fibers, a thread holds x exactly when its vertex at each level is
    in x's fiber there; with no fiber escaping, the thread of each v in x's
    top fiber does, and it ends at ``bond(t, t)[v]``, which is v.  The scan
    of every thread's image is ``tests/oracles.py::thread_scan_check_fibers``."""
    bad = None
    escape = fiber_escape(system, system.family.ground.points, system.pairs)
    if escape is not None:
        x, pair = escape
        lam, mu = (system.levels[p].lam for p in pair)
        bad = {"point": x, "lam": list(lam.cover_ids), "mu": list(mu.cover_ids)}
    return Report("fibers", bad is None, counterexample=bad)


# ---------------------------------------------------------------------------
# the fiberwise homotopy


def check_homotopy(system: InverseSystem) -> Report:
    """The fiberwise homotopy, decided on carriers for every resolved point.

    A point thread through a top point with carrier s has the image
    ``carrier_wedge(s)``, since a bond only forgets covers and so widens
    wedges.  It is resolved to x when that wedge is {x}.  Then s lies in
    x's top fiber F_x, and the wedges of F_x share x alone: x is a
    resolved point.
    At each level i the homotopy moves the thread's point along
    t*c + (1-t)*z, with c the canonical point of x, so it starts at the
    thread (t=0) and ends at the canonical thread (t=1).  When
    ``bond(i, top)`` maps F_x into x's fiber at i, every stage's carrier
    lies in that fiber: it stays in the nerve and keeps the image {x}.
    """
    t = _top(system)
    top = system.levels[t]
    resolved = [
        x for x in system.family.ground.points
        if carrier_wedge(top.wedges, top.fibers[x]) == 1 << x
    ]
    if not resolved:
        raise PreconditionUnmet(
            "no point is resolved: no top fiber's wedges share one point alone"
        )
    bad = None
    escape = fiber_escape(system, resolved, [(i, t) for i in range(len(system.levels))])
    if escape is not None:
        x, (i, _) = escape
        bad = {"point": x, "lambda": list(system.levels[i].lam.cover_ids)}
    return Report(
        "fiber_homotopy", bad is None, counterexample=bad, details={"resolved": resolved}
    )


# ---------------------------------------------------------------------------
# eventual absorption of the flag complex into the nerve


def find_nerve_absorbing_level(
    system: InverseSystem, i: int, cliques: Sequence[Sequence[Simplex]]
) -> int | None:
    """Position of the smallest built level above position i whose flag
    complex projects into the nerve of level i, or None.  ``cliques[j]``
    holds flag simplices of level j of which every flag simplex is a face,
    such as its maximal cliques; by ``unmapped``, these decide it."""
    target = system.levels[i].wedges
    for j in system.above[i]:
        if unmapped(system.bond(i, j), cliques[j], target) is None:
            return j
    return None


def check_nerve_absorption(system: InverseSystem) -> Report:
    cliques = [maximal_cliques(lv.lam, lv.adjacency, system.max_dim) for lv in system.levels]
    rows = []
    for i, level in enumerate(system.levels):
        j = find_nerve_absorbing_level(system, i, cliques)
        rows.append(
            {
                "lambda": list(level.lam.cover_ids),
                "found": j is not None,
                "mu": None if j is None else list(system.levels[j].lam.cover_ids),
            }
        )
    return Report("nerve_absorption", all(r["found"] for r in rows), details={"levels": rows})


# ---------------------------------------------------------------------------
# structural checks


def check_functoriality(system: InverseSystem) -> Report:
    """The bond along every chain lam <= mu <= nu of built levels equals
    the composite of the two bonds through mu."""
    chains = ((i, j, k) for i, j in system.pairs for k in system.above[j])
    bad = None
    count = 0
    for i, j, k in chains:
        count += 1
        outer = system.bond(i, j)
        if system.bond(i, k) != tuple(outer[v] for v in system.bond(j, k)):
            lam, mu, nu = (system.levels[p].lam for p in (i, j, k))
            bad = {
                "lambda": list(lam.cover_ids),
                "mu": list(mu.cover_ids),
                "nu": list(nu.cover_ids),
            }
            break
    return Report("functoriality", bad is None, counterexample=bad, details={"chains": count})


def check_simpliciality(system: InverseSystem) -> Report:
    """Every bond is simplicial on the flag complexes and on the nerves.

    Both halves are decided by ``unmapped``.  The nerve half is decided on
    point fibers: the nerve is the downward closure of its fibers, the
    image of a face is a face of the image, and the target nerve is
    downward closed.  The flag half is decided on the source graph's
    edges: an edge's image spans a nerve simplex exactly when it is one
    vertex or an edge of the target graph, and the target flag complex is
    its clique complex.  The nerve half implies the flag half, as in
    ``build_system``, so only a failing bond is walked edge by edge, to
    tell a flag failure ("F") from a nerve-only one ("N").
    """
    levels = system.levels
    bad = None
    for i, j in system.pairs:
        bond = system.bond(i, j)
        if unmapped(bond, levels[j].fibers, levels[i].wedges) is None:
            continue
        edges = graph_edges(levels[j].adjacency)
        kind = "N" if unmapped(bond, edges, levels[i].wedges) is None else "F"
        lam, mu = levels[i].lam, levels[j].lam
        bad = {"lambda": list(lam.cover_ids), "mu": list(mu.cover_ids), "complex": kind}
        break
    return Report("simpliciality", bad is None, counterexample=bad)


def check_flag_reconstruction(system: InverseSystem) -> Report:
    """Each level's graph must join the vertices whose wedges meet, and its
    point fibers hold the vertices whose wedge holds the point.  The
    builders read these alone, so the flag complex is then the clique
    complex of the wedge graph and the nerve the nerve of the wedge fibers,
    inside it: wedges that share a point meet pairwise.

    One pass reads each wedge's bits once into ``holders[x]``, the vertices
    whose wedge holds x, for every bit any wedge has: a bit past the ground
    points joins vertices but is no fiber.  v's neighbours are the holders
    of its wedge's bits, less v.  It calls none of the builder's readers
    (``point_fibers``, ``wedge_adjacency``), so it stays independent of
    what it checks.  ``tests/oracles.py`` keeps the wedges read pair by
    pair (``wedge_graph``) and point by point (``wedge_fibers``)."""
    bad = None
    n_points = system.family.ground.n_points
    for level in system.levels:
        bits = [members(w) for w in level.wedges]
        holders = [0] * max([n_points, *map(int.bit_length, level.wedges)])
        for v, xs in enumerate(bits):
            for x in xs:
                holders[x] |= 1 << v
        graph = [reduce(or_, map(holders.__getitem__, xs), 0) & ~(1 << v)
                 for v, xs in enumerate(bits)]
        if level.adjacency != graph:
            bad = {"lambda": list(level.lam.cover_ids), "reason": "flag reconstruction"}
            break
        if level.fibers != [tuple(members(h)) for h in holders[:n_points]]:
            bad = {"lambda": list(level.lam.cover_ids), "reason": "nerve reconstruction"}
            break
    return Report("flag_reconstruction", bad is None, counterexample=bad)


def check_skeleton_equality(system: InverseSystem) -> Report:
    """The flag complex's edges, the level graph, are the nerve's: the pairs
    of vertices that share a point fiber.  No wedge is read: where the graph
    or the fibers are not the wedges', ``flag_reconstruction`` fails at that
    level.  ``tests/oracles.py::full_check_skeleton_equality`` compares both
    rebuilt complexes and the graph with ``oracles.wedge_graph``."""
    bad = None
    for level in system.levels:
        if wedge_adjacency(level.fibers, len(level.wedges)) != level.adjacency:
            bad = {"lambda": list(level.lam.cover_ids)}
            break
    return Report("skeleton_equality", bad is None, counterexample=bad)
