"""Simplicial complexes: nerves and flag complexes of cover families.

Levels are indexed by nonempty sets of cover ids.  A level's vertices are
the tuples of cover elements (one per cover) with nonempty intersection,
the vertex's wedge, held as a point bitmask; only the bonds and level
files read the tuples.  The flag complex fills in every clique of
pairwise-intersecting wedges, the nerve only the cliques whose wedges
share a point; one clique search enumerates both.  A complex is its full
downward-closed simplex set, as a tuple in lexicographic order.

A map between levels is its vertex map, a tuple whose entry v is the image
of vertex v; it acts on flag complexes and nerves alike and holds neither.
"""

from __future__ import annotations

from functools import reduce
from itertools import product
from operator import and_, mul
from typing import Any, Callable, Iterable, Iterator, Sequence

from .errors import GuardExceeded
from .ground import CoverFamily, CoverId, ElementId
from .records import Record

DEFAULT_MAX_DIM = 8
MAX_DIM_LIMIT = 256  # the CLI's largest guard; the clique search recurses once per vertex
MAX_VERTICES = 1 << 15  # a level's vertex guard: its adjacency then takes at most 128 MiB
_CHUNK = 512  # the cliques a streaming search hands on at once: bounds the rows held

Simplex = tuple[int, ...]
# an abstract complex on vertex ids 0..n-1: its simplices, downward closed and
# in lexicographic order; its vertices, name and 1-skeleton belong to its level
Complex = tuple[Simplex, ...]
# a clique's label in the clique search: the first vertex's step, each further vertex's, the close
Steps = tuple[Sequence[Any], Sequence[Any], Any]


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


def unmapped(
    vertex_map: Sequence[int], simplices: Iterable[Simplex], target_wedges: Sequence[int]
) -> Simplex | None:
    """The first of ``simplices`` whose image's wedges, read from the
    ``target_wedges``, share no point (it is off their nerve), or None.

    A family of source simplices decides simpliciality when every source
    simplex is a face of one of its members, such as the point fibers for
    the nerve or the maximal cliques for the flag complex: the target
    nerve is downward closed, and a face's image is a face of the image.
    """
    image = [target_wedges[w] for w in vertex_map]  # each source vertex's image wedge
    for s in simplices:
        if not reduce(and_, map(image.__getitem__, s)):
            return s
    return None


# ---------------------------------------------------------------------------
# level construction


def build_vertices(family: CoverFamily, lam: LambdaIndex) -> dict[tuple[ElementId, ...], int]:
    """Each element tuple with nonempty intersection, to its wedge, in lexicographic order.

    A tuple's wedge is the set of points lying in all of its elements, so
    the tuples are exactly those in the product, over the covers, of the
    elements containing some point x; x then belongs to the wedge.  The
    work is the total size of these point fibers, not the product of the
    cover sizes.
    """
    covers = [family.covers[i] for i in lam.cover_ids]
    # per cover, the ids of the elements holding each point, in element order
    holding: list[list[list[ElementId]]] = [[[] for _ in family.ground.points] for _ in covers]
    for table, c in zip(holding, covers):
        for e in c.elements:
            for x in e.pointset:
                table[x].append(e.id)
    wedges: dict[tuple[ElementId, ...], int] = {}
    for x in family.ground.points:
        bit = 1 << x
        pools = [table[x] for table in holding]
        if (tuples := reduce(mul, map(len, pools))) > MAX_VERTICES:  # before they are enumerated
            raise GuardExceeded(f"{_level_name(lam)}: point {x} lies in {tuples} element tuples,"
                                f" which exceeds the vertex guard ({MAX_VERTICES} vertices)")
        for choice in product(*pools):
            wedges[choice] = wedges.get(choice, 0) | bit
        if len(wedges) > MAX_VERTICES:
            raise GuardExceeded(f"{_level_name(lam)}: {len(wedges)} vertices by point {x} exceed"
                                f" the vertex guard ({MAX_VERTICES} vertices)")
    return {choice: wedges[choice] for choice in sorted(wedges)}


def point_fibers(wedges: Sequence[int], n_points: int) -> list[tuple[int, ...]]:
    """Per point x, the ids of the vertices whose wedge contains x, ascending."""
    fibers: list[list[int]] = [[] for _ in range(n_points)]
    for i, wedge in enumerate(wedges):
        for x in members(wedge):
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
    return _all_cliques(adjacency, [0] * len(adjacency), max_dim, _level_name(lam) + ": ")[0]


def _all_cliques(adj: Sequence[int], points: Sequence[int], max_dim: int, where: str,
                 steps: Steps | None = None, flush: Callable[[list], Any] | None = None,
                 pruned: bool = False) -> Any:
    """Every clique up to max_dim+1 vertices and, as the first's tuple when
    equal, those whose ``points`` bitmasks share a bit, in lexicographic
    order: a depth-first search adding larger neighbours in ascending
    order, each child's candidates being its parent's above the new vertex
    and among that vertex's higher neighbours, read from a table built
    once.  A clique v < w < ... is ``first[v] + rest[w] + ... + close`` of
    ``steps``, grown from its parent's label by one step; by default the
    simplex tuple.  With ``flush``, it keeps no clique but hands them to
    ``flush`` in lists of ``_CHUNK`` (the last one shorter), and returns
    whether every clique's bitmasks share a bit; ``pruned``, it enters
    only those cliques.  Raises past the guard; the message starts with
    ``where`` and gives the size of a maximal clique grown greedily from
    the first clique past the guard.
    """
    singles = [(v,) for v in range(len(adj))]
    first, rest, close = steps or (singles, singles, ())
    out: list = []
    sub: list = []  # the cliques whose bitmasks share a bit, when kept
    missed = 0  # the cliques whose bitmasks share none
    # each vertex's higher neighbours
    up = [a >> (v + 1) << (v + 1) for v, a in enumerate(adj)]

    def extend(label: Any, k: int, candidates: int, shared: int) -> None:
        nonlocal missed
        if k > max_dim + 1:
            size = k
            while candidates:
                v = (candidates & -candidates).bit_length() - 1
                candidates &= adj[v]
                size += 1
            raise GuardExceeded(
                f"{where}a clique of {size} vertices exceeds the dimension guard"
                f" (max_dim {max_dim} allows {max_dim + 1})"
            )
        if not shared:
            if pruned:
                return
            missed += 1
        row = label + close
        out.append(row)
        if flush:
            if len(out) == _CHUNK:
                flush(out)
                out.clear()
        elif shared:
            sub.append(row)
        c = candidates
        while c:
            low = c & -c
            c ^= low
            v = low.bit_length() - 1
            # the candidates left are those above v
            extend(label + rest[v], k + 1, c & up[v], shared & points[v])

    for v in range(len(adj)):
        extend(first[v], 1, up[v], points[v])
    if flush:
        flush(out)
        return not missed
    flag = tuple(out)
    return flag, flag if not missed else tuple(sub)


def maximal_cliques(lam: LambdaIndex, adjacency: Sequence[int], max_dim: int) -> list[Simplex]:
    """The inclusion-maximal cliques of a graph given as neighbour
    bitmasks, as ascending tuples, by the Bron-Kerbosch search with a
    pivot (Tomita, Tanaka and Takahashi, TCS 2006): a node is a clique, its
    candidates and the vertices already branched on; it branches on the
    candidates off the pivot's neighbours, the pivot being the lowest
    vertex of the last two sets (one step, where a largest-degree pivot
    costs a pass), and its clique is maximal when both are empty.  A
    clique of max_dim+2 vertices stops it, and ``build_flag`` raises the
    guard."""
    out: list[Simplex] = []
    stack = [(0, (1 << len(adjacency)) - 1, 0)]
    while stack:
        clique, candidates, done = stack.pop()
        if clique.bit_count() > max_dim + 1:
            build_flag(lam, adjacency, max_dim)  # raises the guard
        rest = candidates | done
        if not rest:
            out.append(tuple(members(clique)))
            continue
        pivot = (rest & -rest).bit_length() - 1
        for v in members(candidates & ~adjacency[pivot]):
            stack.append((clique | 1 << v, candidates & adjacency[v], done & adjacency[v]))
            candidates, done = candidates & ~(1 << v), done | 1 << v
    return out


def build_complexes(lam: LambdaIndex, adjacency: Sequence[int], wedges: Sequence[int], max_dim: int,
                    steps: Steps | None = None, flush: Callable[[list], Any] | None = None,
                    nerve: bool = False) -> Any:
    """A level's flag complex and nerve, or a core's on its own vertex ids,
    given the vertices' wedges, from one search, which guards the flag
    complex (a nerve simplex is a clique).  A nerve is downward closed, so
    it is the part of the flag complex's lexicographic order whose wedges
    share a point (Zomorodian, "Fast construction of the Vietoris-Rips
    complex", 2010).  ``steps`` label the simplices, and ``flush`` takes
    the flag complex or the ``nerve``, as in ``_all_cliques``."""
    return _all_cliques(adjacency, wedges, max_dim, _level_name(lam) + ": ", steps, flush, nerve)


def carrier_wedge(wedges: Sequence[int], carrier: Sequence[int]) -> int:
    """Intersection of the carrier vertices' wedges; 0 off the nerve."""
    return reduce(and_, [wedges[v] for v in carrier])


# ---------------------------------------------------------------------------
# serialization


def complex_to_json(lam: LambdaIndex, elements: Sequence[tuple[ElementId, ...]],
                    wedges: Sequence[int], cx: Any, flag: bool) -> dict:
    """A complex of level ``lam`` on the vertices of these element tuples and
    wedges, as a level file holds it; ``cx`` is the complex or its writer
    from ``report.level_rows``, and ``flag`` tells the flag complex from the nerve."""
    return {
        "lambda": list(lam.cover_ids),
        "vertices": [{"tuple": list(e), "wedge": members(w)} for e, w in zip(elements, wedges)],
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
