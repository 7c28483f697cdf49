"""Simplicial homology over GF(2) with bitset Gaussian elimination.

Betti numbers are the instrument for homotopy-type agreement checks: the
GF(2) ranks of the boundary maps of a downward-closed complex.  All target
examples here are torsion free, so GF(2) ranks determine the answer.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .complexes import Complex, LambdaIndex, Simplex
from .systems import InverseSystem


@dataclass(frozen=True)
class BoundaryMatrix:
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


def gf2_rank(vectors: list[int]) -> int:
    """Rank of a set of GF(2) vectors encoded as integer bitmasks.

    Column reduction with pivots indexed by leading bit: each incoming
    vector is XORed with the stored vector at its current leading bit until
    it vanishes or its leading bit is free, and is then stored there.  Each
    step lowers the leading bit, so the work follows the pivots met, not
    the size of the basis.  The rank is the number of pivots.
    """
    pivots: dict[int, int] = {}
    for v in vectors:
        while v:
            lead = v.bit_length()
            pivot = pivots.get(lead)
            if pivot is None:
                pivots[lead] = v
                break
            v ^= pivot
    return len(pivots)


@dataclass(frozen=True)
class BettiVector:
    numbers: tuple[int, ...]

    def __post_init__(self) -> None:
        if any(b < 0 for b in self.numbers):
            raise ValueError("negative Betti number")

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


def betti(cx: Complex) -> BettiVector:
    """GF(2) Betti numbers b_0..b_top via rank-nullity on bitset matrices.

    The simplices are grouped by dimension in one pass; ``groups[k]`` holds
    the k-simplices.  Ranks do not depend on order, so a set of simplices
    does as well as a level's tuple.  A downward-closed complex has
    k-simplices in every dimension up to its top.
    """
    groups: list[list[Simplex]] = [[] for _ in range(max(map(len, cx)))]
    for s in cx:
        groups[len(s) - 1].append(s)
    # ranks[k] is the rank of d_k; d_0 and d_{top+1} are zero
    ranks = [0]
    for k in range(1, len(groups)):
        ranks.append(gf2_rank(list(boundary_matrix(groups[k - 1], groups[k]).column_bits)))
    ranks.append(0)
    return BettiVector(tuple(len(g) - ranks[k] - ranks[k + 1] for k, g in enumerate(groups)))


@dataclass
class StabilizationRow:
    lam: LambdaIndex
    complex_kind: str  # "N" or "F"
    bettis: BettiVector


@dataclass
class StabilizationTable:
    rows: list[StabilizationRow]
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
    positions, each at or above the one before, flagged stabilized when the
    last two nerve entries agree."""
    for i, j in zip(chain, chain[1:]):
        if j not in system.above[i]:
            raise ValueError("chain must be increasing")
    rows = []
    nerve_values = []
    for i in chain:
        level = system.levels[i]
        bn = betti(level.nerve)
        bf = betti(level.flag)
        rows.append(StabilizationRow(level.lam, "N", bn))
        rows.append(StabilizationRow(level.lam, "F", bf))
        nerve_values.append(bn)
    stabilized = len(nerve_values) >= 2 and nerve_values[-1].agrees_with(
        nerve_values[-2].numbers
    )
    return StabilizationTable(rows, stabilized)
