"""Shipped example configurations, one per acceptance scenario.

Each preset fixes a ground model, a cover family, a Betti chain, a
neighborhood schedule for the local refinement check, and the list of
checks the family legitimately satisfies at finite scale.  Families built
from overlapping covers need not resolve every thread to a point; the
checks that such a family fails at finite scale are left out of its
defaults.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable, NamedTuple

from .checks import ALL_CHECKS
from .ground import (Arcs, Balls, CantorDepth, CircleGrid, CoverFamily, Cylinders, DyadicIntervals,
                     GroundSpace, IntervalGrid, PointId, WedgeOfCircles, ball_neighborhoods,
                     cover_from_pointsets, generate_cover, generate_space, singleton_neighborhoods)

# Checks that need every vertex thread to resolve to a single point, or a
# transitive thread relation; families of overlapping covers fail these at
# finite scale.
STRUCTURAL_CHECKS = tuple(
    c
    for c in ALL_CHECKS
    if c not in ("star_conditions", "equivalence_classes", "quotient_comparison")
)


class Preset(NamedTuple):
    factory: Callable[[], CoverFamily]
    chain: tuple[tuple[int, ...], ...]
    neighborhoods: Callable[[GroundSpace], list[tuple[PointId, frozenset[PointId]]]]
    checks: tuple[str, ...]
    expected_betti: tuple[int, int, int] | None = None
    expect_stabilized: bool = True


def _cantor() -> CoverFamily:
    space = generate_space(CantorDepth(), 3)
    covers = tuple(
        generate_cover(space, Cylinders(k), cover_id=k - 1) for k in (1, 2, 3)
    )
    return CoverFamily(covers, space)


def _interval() -> CoverFamily:
    space = generate_space(IntervalGrid(), 8)
    o = Fraction(1, 10)
    schemes = [
        DyadicIntervals(1, o),
        DyadicIntervals(2, o),
        DyadicIntervals(3, o),
        Balls(Fraction(0), 1),  # singletons: the resolving deepest cover
    ]
    covers = tuple(generate_cover(space, s, cover_id=i) for i, s in enumerate(schemes))
    return CoverFamily(covers, space)


def _circle() -> CoverFamily:
    space = generate_space(CircleGrid(), 12)
    o = Fraction(1, 4)
    covers = tuple(
        generate_cover(space, Arcs(n, o), cover_id=i) for i, n in enumerate((3, 6, 12))
    )
    return CoverFamily(covers, space)


def _circle_truncated() -> CoverFamily:
    space = generate_space(CircleGrid(), 12)
    cover = generate_cover(space, Arcs(3, Fraction(1, 4)), cover_id=0)
    return CoverFamily((cover,), space)


def _wedge() -> CoverFamily:
    # Two circles of 12 points glued at point 0; circle arms are ids 1..11
    # and 12..22.  Hand-built covers keep the glue point in one coarse and
    # two fine elements, so its fiber stays small while the two fine cross
    # elements pin it to a single point.  Fine arcs are adjacent pairs, so
    # consecutive arcs resolve every point.
    space = generate_space(WedgeOfCircles(2), 12)
    coarse = [
        {0, 1, 11, 12, 22},
        set(range(1, 7)),
        set(range(6, 12)),
        set(range(12, 18)),
        set(range(17, 23)),
    ]
    fine = [{11, 0, 12}, {22, 0, 1}]
    fine += [{k, k + 1} for k in range(1, 11)]
    fine += [{k, k + 1} for k in range(12, 22)]
    covers = (
        cover_from_pointsets(0, [frozenset(s) for s in coarse]),
        cover_from_pointsets(1, [frozenset(s) for s in fine]),
    )
    return CoverFamily(covers, space)


def file_preset(family: CoverFamily) -> Preset:
    """The profile of a run on a space file: the chain {0}, {0,1}, ... up to
    all covers, singleton neighborhoods, every check, no expected Betti
    vector, and stabilization expected."""
    return Preset(
        factory=lambda: family,
        chain=tuple(tuple(range(i + 1)) for i in range(len(family.covers))),
        neighborhoods=singleton_neighborhoods,
        checks=ALL_CHECKS,
    )


# presets by the name given to --space
PRESETS: dict[str, Preset] = {
    # depth-3 Cantor model with the cylinder covers of depths 1..3
    "cantor-d3": Preset(
        factory=_cantor,
        chain=((0,), (0, 1), (0, 1, 2)),
        neighborhoods=singleton_neighborhoods,
        checks=ALL_CHECKS,
        expected_betti=(8, 0, 0),
        expect_stabilized=False,  # component count doubles with each depth
    ),
    # interval grid of 9 points, dyadic covers plus a singleton cover
    "interval-g8": Preset(
        factory=_interval,
        chain=((0,), (0, 1), (0, 1, 2)),
        neighborhoods=singleton_neighborhoods,
        checks=ALL_CHECKS,
        expected_betti=(1, 0, 0),
    ),
    # 12-point circle with arc covers of 3, 6 and 12 arcs
    "circle-a3612": Preset(
        factory=_circle,
        chain=((0,), (0, 1), (0, 1, 2)),
        neighborhoods=lambda s: ball_neighborhoods(s, [Fraction(1, 4), Fraction(1, 8)]),
        checks=STRUCTURAL_CHECKS,
        expected_betti=(1, 1, 0),
    ),
    # circle with the 3-arc cover only; flag never absorbs into the nerve
    "circle-a3": Preset(
        factory=_circle_truncated,
        chain=((0,),),
        neighborhoods=lambda s: ball_neighborhoods(s, [Fraction(1, 2)]),
        checks=(
            "selection_completeness",
            "flag_reconstruction",
            "skeleton_equality",
            "functoriality",
            "simpliciality",
            "nerve_absorption",
        ),
        expected_betti=None,
        expect_stabilized=False,
    ),
    # wedge of two 12-point circles with hand-built cross/arc covers
    "wedge2": Preset(
        factory=_wedge,
        chain=((0,), (0, 1)),
        neighborhoods=lambda s: ball_neighborhoods(s, [Fraction(1, 2), Fraction(1, 3)]),
        checks=STRUCTURAL_CHECKS,
        expected_betti=(1, 2, 0),
    ),
}
