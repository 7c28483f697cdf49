"""Simplicial homology over GF(2), computed on the strong-collapse core of
each level.

Betti numbers are the instrument for homotopy-type agreement checks: the
GF(2) ranks of the boundary maps of a downward-closed complex.  All target
examples here are torsion free, so GF(2) ranks determine the answer.

A level's complexes are not reduced whole.  Removing a vertex dominated by
another is a strong collapse and keeps the homotopy type (Barmak & Minian,
"Strong homotopy types, nerves and collapses", DCG 2012), so each level
gives a core a few dozen simplices large.  Each complex is the nerve of a
relation, reduced on both sides by one function: the nerve's is "point x
lies in vertex v's wedge", the flag complex's "vertex v lies in maximal
clique k" of the level graph.  The nerve core keeps its retraction, which
sends each vertex onto the core vertex it collapses to, so a bond read
through the retractions is simplicial on the cores and induces the bond's
map on homology (Chowdhury & Mémoli, "A functorial Dowker theorem and
persistent homology of asymmetric networks", J. Appl. Comput. Topology
2018).  A chain has stabilized when its last bond induces an isomorphism.
"""

from __future__ import annotations

from typing import NamedTuple, Sequence

from .complexes import (Complex, LambdaIndex, Simplex, build_complexes, maximal_cliques, members,
                        wedge_adjacency)
from .records import Record
from .systems import InverseSystem, Level


class BoundaryMatrix(NamedTuple):
    """Boundary map from k-simplices to (k-1)-simplices over GF(2).

    Columns are the k-simplices in the order given; each column is stored
    as an integer bitmask over the (k-1)-simplices it was built against.
    """

    cols: tuple[Simplex, ...]
    column_bits: tuple[int, ...]


def boundary_matrix(rows: Sequence[Simplex], cols: Sequence[Simplex]) -> BoundaryMatrix:
    """The boundary of each simplex of ``cols`` over ``rows``, which must
    hold every one of their facets; row i is bit i."""
    row_index = {s: i for i, s in enumerate(rows)}
    bits = []
    for s in cols:
        mask = 0
        for drop in range(len(s)):
            face = s[:drop] + s[drop + 1 :]
            mask |= 1 << row_index[face]
        bits.append(mask)
    return BoundaryMatrix(tuple(cols), tuple(bits))


def gf2_reduce(vectors: Sequence[int]) -> tuple[int, list[int]]:
    """Rank of a set of GF(2) vectors encoded as integer bitmasks, and a
    basis of the kernel.

    Column reduction with pivots indexed by leading bit: each incoming
    vector is XORed with the stored vector at its current leading bit until
    it vanishes or its leading bit is free, and is then stored there.  Each
    step lowers the leading bit, so the work follows the pivots met, not
    the size of the basis.  The rank is the number of pivots.

    Each stored vector carries the set of input positions it is the sum of,
    as a bitmask.  A vector that vanishes leaves its set as a kernel vector
    (Zomorodian & Carlsson, "Computing persistent homology", DCG 2005); its
    highest bit is its own position, so these vectors are independent, and
    there are as many as the vectors that vanish.
    """
    pivots: dict[int, tuple[int, int]] = {}
    kernel = []
    for i, v in enumerate(vectors):
        combo = 1 << i
        while v:
            lead = v.bit_length()
            pivot = pivots.get(lead)
            if pivot is None:
                pivots[lead] = (v, combo)
                break
            v ^= pivot[0]
            combo ^= pivot[1]
        else:
            kernel.append(combo)
    return len(pivots), kernel


def gf2_rank(vectors: Sequence[int]) -> int:
    """Rank of a set of GF(2) vectors encoded as integer bitmasks."""
    return gf2_reduce(vectors)[0]


class BettiVector(Record):
    __slots__ = ("numbers",)

    def __init__(self, numbers: tuple[int, ...]) -> None:
        if any(b < 0 for b in numbers):
            raise ValueError("negative Betti number")
        Record.__init__(self, numbers)

    def padded(self, length: int) -> tuple[int, ...]:
        """Exactly ``length`` entries; refuses to drop a nonzero one."""
        if any(self.numbers[length:]):
            raise ValueError("nonzero entries beyond the requested length")
        return (self.numbers + (0,) * length)[:length]

    def support(self) -> int:
        """One past the highest index with a nonzero entry."""
        return max((k + 1 for k, b in enumerate(self.numbers) if b), default=0)

    def agrees_with(self, other: tuple[int, ...]) -> bool:
        """Equal to ``other`` once both are padded with zeros to the longer
        length."""
        width = max(len(self.numbers), len(other))
        return self.padded(width) == BettiVector(other).padded(width)


class ChainComplex(NamedTuple):
    """The GF(2) chains of a complex, by dimension k: ``simplices[k]``
    lists its k-simplices, and chains in dimension k are bitmasks over
    that list.  ``boundaries[k]`` holds the boundary of each
    (k+1)-simplex, ``ranks[k]`` their rank, and ``cycles[k]`` a basis of
    the k-cycles."""

    simplices: list[list[Simplex]]
    boundaries: list[list[int]]
    ranks: list[int]
    cycles: list[list[int]]

    def betti(self) -> BettiVector:
        """b_k = dim Z_k - dim B_k."""
        return BettiVector(tuple(len(z) - r for z, r in zip(self.cycles, self.ranks)))


def chain_complex(cx: Complex) -> ChainComplex:
    """The chains, boundaries and cycles of a nonempty downward-closed
    complex, with one column reduction per boundary map.

    The simplices are grouped by dimension in one pass, in the complex's
    order.  A downward-closed complex has k-simplices in every dimension
    up to its top; every vertex is a 0-cycle.
    """
    simplices: list[list[Simplex]] = [[] for _ in range(max(map(len, cx)))]
    for s in cx:
        simplices[len(s) - 1].append(s)
    boundaries, ranks = [], []
    cycles = [[1 << v for v in range(len(simplices[0]))]]
    for k in range(1, len(simplices)):
        cols = list(boundary_matrix(simplices[k - 1], simplices[k]).column_bits)
        rank, kernel = gf2_reduce(cols)
        boundaries.append(cols)
        ranks.append(rank)
        cycles.append(kernel)
    boundaries.append([])
    ranks.append(0)
    return ChainComplex(simplices, boundaries, ranks, cycles)


def betti(cx: Complex) -> BettiVector:
    """GF(2) Betti numbers b_0..b_top via rank-nullity on bitset matrices.
    Ranks do not depend on order, so a set of simplices does as well as a
    level's tuple."""
    return chain_complex(cx).betti()


def induced_ranks(
    source: ChainComplex, target: ChainComplex, vertex_map: Sequence[int], width: int
) -> tuple[int, ...]:
    """For k below ``width``, the rank of the map from H_k(source) to
    H_k(target) induced by a vertex map that is simplicial between them:
    rank [B_k | f(Z_k)] - rank B_k, with B_k the target's k-boundaries and
    Z_k the source's k-cycles.  A simplex whose image has fewer vertices
    maps to zero."""
    out = []
    for k in range(width):
        if k >= len(source.simplices) or k >= len(target.simplices):
            out.append(0)
            continue
        index = {s: p for p, s in enumerate(target.simplices[k])}
        images = []
        for z in source.cycles[k]:
            chain = 0
            for p in members(z):
                image = tuple(sorted({vertex_map[v] for v in source.simplices[k][p]}))
                if len(image) == k + 1:
                    chain ^= 1 << index[image]
            images.append(chain)
        out.append(gf2_rank(target.boundaries[k] + images) - target.ranks[k])
    return tuple(out)


# ---------------------------------------------------------------------------
# cores


def drop_dominated(
    rows: Sequence[int], cols: Sequence[int], alive: int, dominator: dict[int, int]
) -> int:
    """Drop, in ascending order, each row of ``alive`` whose bitmask lies
    inside the bitmask of another row still alive (of a lower id, when the
    two are equal), and record that row in ``dominator``.  Returns the
    rows left alive.  ``cols`` is the same relation read by columns: bit r
    of ``cols[c]`` is set when row r holds column c, so the rows holding a
    whole row are the intersection of its columns.

    A row is tested against the rows left at that moment, so each drop is
    a strong collapse of what remains, towards a row still there.  Bitmasks
    read before earlier drops only lose columns later, which keeps every
    containment.
    """
    for v in members(alive):
        mask = rows[v]
        holders = alive & ~(1 << v)
        for c in members(mask):
            holders &= cols[c]
        for w in members(holders):
            if w < v or rows[w] != mask:
                dominator[v] = w
                alive ^= 1 << v
                break
    return alive


class Core(NamedTuple):
    """The core of a relation's nerve, a complex on its own vertex ids:
    ``vertices`` lists the rows it keeps (core vertex c is
    ``vertices[c]``), and ``retraction`` sends each row onto the core
    vertex it collapses to."""

    vertices: tuple[int, ...]
    retraction: tuple[int, ...]
    cx: Complex


def dowker_core(lam: LambdaIndex, rows: Sequence[int], cols: Sequence[int], max_dim: int) -> Core:
    """Reduce a relation, given by rows and by columns as for
    ``drop_dominated``, until nothing changes: drop each row whose bitmask
    lies inside a kept row's, then each column whose kept rows lie inside
    another kept column's.  The relation's nerve holds the sets of rows
    that share a column.  Dropping such a column leaves it as it is, and
    dropping such a row is a strong collapse, so the core, the nerve of
    what is left, is a subcomplex with its homotopy type.  Two kept rows
    are adjacent in the core only where they share a kept column, so its
    clique search meets no guard the full nerve's graph passes."""
    kept, points = (1 << len(rows)) - 1, (1 << len(cols)) - 1
    dominator: dict[int, int] = {}
    while True:
        new_kept = drop_dominated([r & points for r in rows], cols, kept, dominator)
        new_points = drop_dominated([c & new_kept for c in cols], rows, points, {})
        if (new_kept, new_points) == (kept, points):
            break
        kept, points = new_kept, new_points
    index = {v: c for c, v in enumerate(members(kept))}
    fibers = [
        tuple(index[v] for v in members(c & kept)) if points >> x & 1 else ()
        for x, c in enumerate(cols)
    ]
    adjacency = wedge_adjacency(fibers, len(index))
    cx = build_complexes(lam, adjacency, [rows[v] & points for v in index], max_dim)[1]
    retraction = []
    for v in range(len(rows)):
        while v in dominator:
            v = dominator[v]
        retraction.append(index[v])
    return Core(tuple(index), tuple(retraction), cx)


def nerve_core(level: Level, max_dim: int) -> Core:
    """The core of the level nerve, the nerve of "point x lies in vertex
    v's wedge"."""
    carriers = [sum(1 << v for v in fiber) for fiber in level.fibers]
    return dowker_core(level.lam, level.wedges, carriers, max_dim)


def flag_core(level: Level, cliques: Sequence[Simplex], max_dim: int) -> Complex:
    """The core of the level's flag complex, given the level graph's
    maximal cliques: the flag complex is the nerve of "vertex v lies in
    clique k".  A vertex is dropped when every maximal clique holding it
    holds another kept vertex, that is, when its closed neighbourhood lies
    inside that vertex's."""
    rows = [0] * len(level.wedges)
    for k, clique in enumerate(cliques):
        for v in clique:
            rows[v] |= 1 << k
    cols = [sum(1 << v for v in clique) for clique in cliques]
    return dowker_core(level.lam, rows, cols, max_dim).cx


# ---------------------------------------------------------------------------
# stabilization tables


class StabilizationRow(NamedTuple):
    lam: LambdaIndex
    complex_kind: str  # "N" or "F"
    bettis: BettiVector


class BondRanks(NamedTuple):
    """The ranks the bond from ``source`` down to ``target`` induces on
    the nerves' homology, one per entry of the source's Betti row."""

    source: LambdaIndex
    target: LambdaIndex
    ranks: tuple[int, ...]


class StabilizationTable(NamedTuple):
    rows: list[StabilizationRow]
    bonds: list[BondRanks]
    nerve_stabilized: bool

    def to_json(self) -> dict:
        return {
            "rows": [
                {
                    "level": list(r.lam.cover_ids),
                    "complex": r.complex_kind,
                    "betti": list(r.bettis.numbers),
                }
                for r in self.rows
            ],
            "bonds": [
                {
                    "source": list(b.source.cover_ids),
                    "target": list(b.target.cover_ids),
                    "ranks": list(b.ranks),
                }
                for b in self.bonds
            ],
            "nerve_stabilized": self.nerve_stabilized,
        }

    def csv(self) -> str:
        """Columns b0..b{m-1}, with m at least 3 and past every nonzero
        Betti number of the table."""
        width = max([3] + [r.bettis.support() for r in self.rows])
        lines = ["level,complex," + ",".join(f"b{k}" for k in range(width))]
        for r in self.rows:
            level = "|".join(str(i) for i in r.lam.cover_ids)
            numbers = ",".join(str(b) for b in r.bettis.padded(width))
            lines.append(f"{level},{r.complex_kind},{numbers}")
        return "\n".join(lines) + "\n"


def betti_stabilization(system: InverseSystem, chain: list[int]) -> StabilizationTable:
    """Betti vectors of nerve and flag complexes along a chain of level
    positions, each at or above the one before, and the ranks each bond of
    the chain induces on the nerves, all computed on the cores.  The chain
    is stabilized when the last bond induces an isomorphism: its rank
    equals both nerves' Betti numbers in every dimension.

    Each row is padded to the length of its full complex's Betti vector:
    the largest point fiber for a nerve, whose every simplex lies in a
    fiber, and the largest maximal clique of the level graph for a flag
    complex.  Each level's maximal cliques are found before its cores,
    whose graphs are subgraphs of the level graph, are built, so past the
    guard that search raises ``GuardExceeded`` as the full build does.
    """
    for i, j in zip(chain, chain[1:]):
        if j not in system.above[i]:
            raise ValueError("chain must be increasing")
    rows, cores, nerve_rows = [], [], []
    for i in chain:
        level = system.levels[i]
        cliques = maximal_cliques(level.lam, level.adjacency, system.max_dim)
        core = nerve_core(level, system.max_dim)
        chains = chain_complex(core.cx)
        bn = BettiVector(chains.betti().padded(max(map(len, level.fibers))))
        width = max(map(len, cliques))
        bf = BettiVector(betti(flag_core(level, cliques, system.max_dim)).padded(width))
        rows.append(StabilizationRow(level.lam, "N", bn))
        rows.append(StabilizationRow(level.lam, "F", bf))
        cores.append((core, chains))
        nerve_rows.append(bn)
    bonds = []
    for k in range(1, len(chain)):
        i, j = chain[k - 1], chain[k]
        (core_i, chains_i), (core_j, chains_j) = cores[k - 1], cores[k]
        bond = system.bond(i, j)
        vertex_map = [core_i.retraction[bond[v]] for v in core_j.vertices]
        ranks = induced_ranks(chains_j, chains_i, vertex_map, len(nerve_rows[k].numbers))
        bonds.append(BondRanks(system.levels[j].lam, system.levels[i].lam, ranks))
    stabilized = bool(bonds) and all(
        BettiVector(bonds[-1].ranks).agrees_with(b.numbers) for b in nerve_rows[-2:]
    )
    return StabilizationTable(rows, bonds, stabilized)
