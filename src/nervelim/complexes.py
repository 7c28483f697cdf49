"""Simplicial complexes: nerves and flag complexes of cover families.

Levels are indexed by nonempty sets of cover ids.  A level's vertices are
the tuples of cover elements (one per cover) with nonempty intersection;
the intersection is the vertex's wedge, held as a point bitmask.  The flag
complex fills in every clique of pairwise-intersecting wedges, the nerve
only the cliques whose wedges share a point; one clique search enumerates
both.  A complex is its
full downward-closed simplex set, as a tuple in lexicographic order.

A map between levels is its vertex map, a tuple whose entry v is the image
of vertex v; it acts on flag complexes and nerves alike and holds neither.
"""

from __future__ import annotations

from functools import reduce
from itertools import product
from operator import and_
from typing import Iterable, Iterator, Sequence

from .errors import GuardExceeded
from .ground import CoverFamily, CoverId, ElementId
from .records import Record

DEFAULT_MAX_DIM = 8
MAX_DIM_LIMIT = 256  # the CLI's largest guard; the clique search recurses once per vertex

Simplex = tuple[int, ...]
# an abstract complex on vertex ids 0..n-1: its simplices, downward closed and
# in lexicographic order; its vertices, name and 1-skeleton belong to its level
Complex = tuple[Simplex, ...]


class LambdaIndex(Record):
    """A nonempty sorted set of cover ids: the name of a level.  The order
    by inclusion is held by ``InverseSystem.above``, over level positions."""

    __slots__ = ("cover_ids",)

    def __init__(self, cover_ids: tuple[CoverId, ...]) -> None:
        if not cover_ids:
            raise ValueError("level index must be nonempty")
        if list(cover_ids) != sorted(set(cover_ids)):
            raise ValueError("cover ids must be sorted and deduplicated")
        Record.__init__(self, cover_ids)

    @classmethod
    def of(cls, ids: Iterable[CoverId]) -> "LambdaIndex":
        return cls(tuple(sorted(set(ids))))

    @property
    def sort_key(self) -> tuple[int, tuple[CoverId, ...]]:
        return (len(self.cover_ids), self.cover_ids)

    def json_key(self) -> str:
        return ",".join(str(i) for i in self.cover_ids)

    def __repr__(self) -> str:
        return "L(" + ",".join(str(i) for i in self.cover_ids) + ")"


class Vertex(Record):
    """One element choice per cover of the level, in cover id order, with
    the cached wedge as a point bitmask: bit x is set when x lies in it.

    Identity is the tuple of element ids; distinct vertices may share a
    wedge and stay distinct.
    """

    __slots__ = ("elements", "wedge")

    def __init__(self, elements: tuple[ElementId, ...], wedge: int) -> None:
        if not wedge:
            raise ValueError("vertex wedge must be nonempty")
        Record.__init__(self, elements, wedge)


# ---------------------------------------------------------------------------
# graphs and vertex maps
#
# A graph on vertex ids 0..n-1 is held as per-vertex neighbour bitmasks:
# bit b of entry a is set when (a, b) is an edge.  Loops are left implicit.


def members(mask: int) -> list[int]:
    """The vertices of a bitmask, ascending."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def graph_edges(adjacency: Sequence[int]) -> Iterator[tuple[int, int]]:
    """The edges (a, b) with a < b, by ascending a and then b."""
    for a, nbrs in enumerate(adjacency):
        for b in members(nbrs >> (a + 1)):
            yield a, a + 1 + b


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


def unmapped(
    vertex_map: Sequence[int], simplices: Iterable[Simplex], target: Sequence[Vertex]
) -> Simplex | None:
    """The first of ``simplices`` whose image's wedges, on the vertices
    ``target``, share no point (it is off their nerve), or None.

    A subset of the source decides simpliciality when every source simplex
    is a face of one of its members, such as the source's point fibers.
    """
    image = [target[w].wedge for w in vertex_map]  # each source vertex's image wedge
    for s in simplices:
        if not reduce(and_, map(image.__getitem__, s)):
            return s
    return None


# ---------------------------------------------------------------------------
# level construction


def build_vertices(family: CoverFamily, lam: LambdaIndex) -> list[Vertex]:
    """All element tuples with nonempty intersection, in lexicographic order.

    A tuple's wedge is the set of points lying in all of its elements, so
    the tuples are exactly those in the product, over the covers, of the
    elements containing some point x; x then belongs to the wedge.  The
    work is the total size of these point fibers, not the product of the
    cover sizes.
    """
    covers = [family.covers[i] for i in lam.cover_ids]
    wedges: dict[tuple[ElementId, ...], int] = {}
    for x in family.ground.points:
        bit = 1 << x
        rows = [[e.id for e in c.elements_containing(x)] for c in covers]
        for choice in product(*rows):
            wedges[choice] = wedges.get(choice, 0) | bit
    return [Vertex(choice, wedges[choice]) for choice in sorted(wedges)]


def point_fibers(vertices: Sequence[Vertex], n_points: int) -> list[tuple[int, ...]]:
    """Per point x, the ids of the vertices whose wedge contains x, ascending."""
    fibers: list[list[int]] = [[] for _ in range(n_points)]
    for i, v in enumerate(vertices):
        for x in members(v.wedge):
            fibers[x].append(i)
    return [tuple(f) for f in fibers]


def _level_name(lam: LambdaIndex) -> str:
    return "level {" + lam.json_key() + "}"


def wedge_adjacency(fibers: Sequence[tuple[int, ...]], n: int) -> list[int]:
    """The graph on n vertices in which two vertices are adjacent when
    their wedges meet, that is, when both lie in one point fiber."""
    adj = [0] * n
    for fib in fibers:
        mask = 0
        for i in fib:
            mask |= 1 << i
        for i in fib:
            adj[i] |= mask & ~(1 << i)
    return adj


def build_flag(lam: LambdaIndex, adjacency: Sequence[int], max_dim: int) -> Complex:
    """Clique complex of a graph given as neighbour bitmasks.  A level's
    flag complex is the clique complex of ``wedge_adjacency``: edges where
    wedges meet."""
    return _all_cliques(adjacency, [-1] * len(adjacency), max_dim, _level_name(lam) + ": ")[0]


def _all_cliques(
    adj: Sequence[int], points: Sequence[int], max_dim: int, where: str, prune: bool = True
) -> tuple[Complex, Complex]:
    """Every clique up to max_dim+1 vertices and, as the first's tuple when
    equal, those whose ``points`` bitmasks share a bit, in lexicographic
    order: a depth-first search adding larger neighbours in ascending
    order, which with ``prune`` enters only the second kind.  Raises past
    the guard; the message starts with ``where`` and gives the size of a
    maximal clique grown greedily from the first clique past the guard.
    """
    out: list[Simplex] = []
    sub: list[Simplex] = []

    def extend(clique: tuple[int, ...], candidates: int, shared: int) -> None:
        if len(clique) > max_dim + 1:
            size = len(clique)
            while candidates:
                v = (candidates & -candidates).bit_length() - 1
                candidates &= adj[v]
                size += 1
            raise GuardExceeded(
                f"{where}a clique of {size} vertices exceeds the dimension guard"
                f" (max_dim {max_dim} allows {max_dim + 1})"
            )
        out.append(clique)
        if shared:
            sub.append(clique)
        c = candidates
        while c:
            v = (c & -c).bit_length() - 1
            c &= c - 1
            common = shared & points[v]
            if common or not prune:
                extend(clique + (v,), candidates & adj[v] & ~((1 << (v + 1)) - 1), common)

    for v in range(len(adj)):
        extend((v,), adj[v] & ~((1 << (v + 1)) - 1), points[v])
    flag = tuple(out)
    return flag, flag if len(sub) == len(out) else tuple(sub)


def clique_number(adjacency: Sequence[int], cap: int) -> int:
    """The number of vertices of a largest clique of a graph given as
    neighbour bitmasks, or ``cap`` when that is smaller, without
    enumerating the cliques: the search stops at the first clique of
    ``cap`` vertices, as a caller asking whether a guard is passed needs
    no more.

    A branch-and-bound search over the lexicographic clique tree of
    ``_all_cliques``: a node is a clique and the larger vertices adjacent
    to all of it that are not yet branched on.  A node is dropped when its
    clique and all those vertices together would not beat the largest
    clique found (the bound of Carraghan and Pardalos, "An exact algorithm
    for the maximum clique problem", Oper. Res. Lett. 1990).  The search is
    exponential in the worst case.
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


def build_nerve(
    lam: LambdaIndex, adjacency: Sequence[int], fibers: Sequence[tuple[int, ...]], max_dim: int
) -> Complex:
    """Nerve of a level, or of a core on its own vertex ids: the cliques of
    ``adjacency`` that lie in one of the point fibers ``fibers``.  A nerve
    simplex lies in a fiber, so the fiber guard bounds it and the search
    enters no other clique."""
    wedges = [0] * len(adjacency)  # per vertex, the points whose fibers hold it
    for x, carrier in enumerate(fibers):
        if len(carrier) > max_dim + 1:
            raise GuardExceeded(
                f"{_level_name(lam)}: point {x} lies in a fiber of {len(carrier)} wedges,"
                f" past the dimension guard (max_dim {max_dim} allows {max_dim + 1})"
            )
        for v in carrier:
            wedges[v] |= 1 << x
    return _all_cliques(adjacency, wedges, max_dim, _level_name(lam) + ": ")[1]


def build_complexes(
    lam: LambdaIndex, adjacency: Sequence[int], wedges: Sequence[int], max_dim: int
) -> tuple[Complex, Complex]:
    """A level's flag complex and nerve, given its vertices' wedges, from
    one search, which guards the flag complex only (a fiber past the guard
    is a clique past it).  A nerve is downward closed, so it is the part of
    the flag complex's lexicographic order whose wedges share a point
    (Zomorodian, "Fast construction of the Vietoris-Rips complex", 2010)."""
    return _all_cliques(adjacency, wedges, max_dim, _level_name(lam) + ": ", False)


def carrier_wedge(vertices: Sequence[Vertex], carrier: Sequence[int]) -> int:
    """Intersection of the carrier vertices' wedges; 0 off the nerve."""
    return reduce(and_, [vertices[v].wedge for v in carrier])


# ---------------------------------------------------------------------------
# serialization


def complex_to_json(lam: LambdaIndex, vertices: Sequence[Vertex], cx: Complex, flag: bool) -> dict:
    """A complex of level ``lam`` on its vertices, as a level file holds it;
    ``flag`` tells the flag complex from the nerve."""
    return {
        "lambda": list(lam.cover_ids),
        "vertices": [{"tuple": list(v.elements), "wedge": members(v.wedge)} for v in vertices],
        "simplices": cx,
        "flag": flag,
    }


def skeleton_dot(adjacency: Sequence[int], name: str) -> str:
    """A graph held as neighbour bitmasks, as a Graphviz graph."""
    lines = [f"graph {name} {{"]
    lines.extend(f"  {v};" for v in range(len(adjacency)))
    lines.extend(f"  {a} -- {b};" for a, b in graph_edges(adjacency))
    lines.append("}")
    return "\n".join(lines) + "\n"
