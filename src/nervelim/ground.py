"""Finite ground models of spaces, cover families, and the conditions on
a family.

A ground model is a finite point set with an optional exact-rational metric.
Covers are families of point subsets; every subset of a finite model counts
as closed.  The canonical maps need no weight table: each cover's even
split among the elements containing a point makes them fiber barycentres
(see ``systems.canonical_map``).
"""

from __future__ import annotations

import json
import math
from enum import Enum
from fractions import Fraction
from pathlib import Path
from typing import Iterable, Sequence

from .errors import GuardExceeded, InputError
from .records import Record
from .report import FORMAT_VERSION, Report, frac_to_str, read_json, str_to_frac

PointId = int
ElementId = int
CoverId = int


class Metric(Enum):
    EUCLIDEAN = "euclidean"
    CIRCLE_ARC = "circle_arc"
    HAMMING = "hamming"
    NONE = "none"


# ---------------------------------------------------------------------------
# spaces


class GroundSpace(Record):
    """A finite point set standing in for a space.

    Points are the dense integers ``0..n_points-1``.  Coordinates, when
    present, are exact rationals.  Under the circle-arc metric a coordinate
    is either ``(angle,)`` on a single circle of circumference 1, or
    ``(circle, angle)`` on a wedge of circles glued at angle 0; distances on
    a wedge are path lengths through the glue point.
    """

    __slots__ = ("n_points", "coords", "metric", "labels")

    def __init__(
        self,
        n_points: int,
        coords: tuple[tuple[Fraction, ...], ...] | None = None,
        metric: Metric = Metric.NONE,
        labels: tuple[str, ...] | None = None,
    ) -> None:
        if n_points < 1:
            raise ValueError("a ground space needs at least one point")
        if coords is not None and len(coords) != n_points:
            raise ValueError("one coordinate vector per point required")
        if labels is not None and len(labels) != n_points:
            raise ValueError("one label per point required")
        Record.__init__(self, n_points, coords, metric, labels)

    @property
    def points(self) -> range:
        return range(self.n_points)

    def balls(self, center: PointId, radii: Sequence[Fraction]) -> list[frozenset[PointId]]:
        """The closed metric balls about ``center``, one per radius, decided
        by exact comparisons with one row of distances: squared sums under
        the euclidean metric, arc lengths under the circle-arc metric, and
        counts of differing label characters under the hamming metric."""
        bounds = [Fraction(r) for r in radii]
        if self.metric is Metric.EUCLIDEAN:
            c = self.coords[center]
            row = [sum((x - y) ** 2 for x, y in zip(c, q)) for q in self.coords]
            bounds = [r * r for r in bounds]
        elif self.metric is Metric.CIRCLE_ARC:
            row = [_arc_distance(self.coords[center], q) for q in self.coords]
        elif self.metric is Metric.HAMMING:
            row = [sum(map(str.__ne__, self.labels[center], q)) for q in self.labels]
        else:
            raise ValueError("space has no metric")
        return [frozenset(p for p, d in enumerate(row) if d <= bound) for bound in bounds]


def _arc(a: Fraction, b: Fraction) -> Fraction:
    d = abs(a - b) % 1
    return min(d, 1 - d)


def _arc_distance(a: tuple[Fraction, ...], b: tuple[Fraction, ...]) -> Fraction:
    if len(a) == 1:
        return _arc(a[0], b[0])
    # (circle, angle) pairs; angle 0 is the glue point of every circle, so
    # cross-circle distances run through it.
    ca, xa = a
    cb, xb = b
    if ca == cb:
        return _arc(xa, xb)
    return _arc(xa, Fraction(0)) + _arc(Fraction(0), xb)


# --- generators ------------------------------------------------------------


class SpaceKind(Record):
    """Marker base for space generator kinds."""

    __slots__ = ()


class IntervalGrid(SpaceKind):
    __slots__ = ()


class CircleGrid(SpaceKind):
    __slots__ = ()


class CantorDepth(SpaceKind):
    __slots__ = ()


class WedgeOfCircles(SpaceKind):
    __slots__ = ("count",)


def generate_space(kind: SpaceKind, resolution: int) -> GroundSpace:
    """Build a standard ground model at the given resolution.

    IntervalGrid(m) is m+1 equally spaced points on [0,1]; CircleGrid(m) is
    m points on a circle of circumference 1; CantorDepth(d) is all 2**d
    bitstrings; WedgeOfCircles(c) glues c circle grids at one point.
    """
    if resolution < 1:
        raise ValueError("resolution must be a positive integer")
    if isinstance(kind, IntervalGrid):
        m = resolution
        coords = tuple((Fraction(k, m),) for k in range(m + 1))
        return GroundSpace(m + 1, coords, Metric.EUCLIDEAN)
    if isinstance(kind, CircleGrid):
        m = resolution
        coords = tuple((Fraction(k, m),) for k in range(m))
        return GroundSpace(m, coords, Metric.CIRCLE_ARC)
    if isinstance(kind, CantorDepth):
        d = resolution
        labels = tuple(format(i, f"0{d}b") for i in range(2**d))
        return GroundSpace(2**d, None, Metric.HAMMING, labels)
    if isinstance(kind, WedgeOfCircles):
        c, m = kind.count, resolution
        if c < 1:
            raise ValueError("a wedge needs at least one circle")
        if m < 2:
            raise ValueError("each circle needs at least two points")
        coords: list[tuple[Fraction, ...]] = [(Fraction(0), Fraction(0))]
        for circle in range(c):
            for k in range(1, m):
                coords.append((Fraction(circle), Fraction(k, m)))
        return GroundSpace(len(coords), tuple(coords), Metric.CIRCLE_ARC)
    raise ValueError(f"unknown space kind {kind!r}")


# ---------------------------------------------------------------------------
# covers


class CoverElement(Record):
    __slots__ = ("id", "pointset")

    def __init__(self, id: ElementId, pointset: frozenset[PointId]) -> None:
        if not pointset:
            raise ValueError("cover elements must be nonempty")
        Record.__init__(self, id, pointset)


class Cover(Record):
    __slots__ = ("id", "elements")

    def __init__(self, id: CoverId, elements: tuple[CoverElement, ...]) -> None:
        ids = [e.id for e in elements]
        if ids != list(range(len(ids))):
            raise ValueError("element ids must be 0..k-1 in list order")
        Record.__init__(self, id, elements)

    def union(self) -> frozenset[PointId]:
        out: set[PointId] = set()
        for e in self.elements:
            out |= e.pointset
        return frozenset(out)


def cover_from_pointsets(cover_id: CoverId, pointsets: Sequence[Iterable[PointId]]) -> Cover:
    elements = tuple(
        CoverElement(i, frozenset(ps)) for i, ps in enumerate(pointsets)
    )
    return Cover(cover_id, elements)


class CoverFamily(Record):
    __slots__ = ("covers", "ground")

    def __init__(self, covers: tuple[Cover, ...], ground: GroundSpace) -> None:
        if not covers:
            raise ValueError("a family needs at least one cover")
        if [c.id for c in covers] != list(range(len(covers))):
            raise ValueError("cover ids must be 0..k-1 in list order")
        n = ground.n_points
        for c in covers:
            union = c.union()
            if len(union) != n or not 0 <= min(union) <= max(union) < n:
                raise ValueError(f"cover {c.id} does not cover the space")
        Record.__init__(self, covers, ground)


# --- cover schemes ----------------------------------------------------------


class CoverScheme(Record):
    """Marker base for cover generator schemes."""

    __slots__ = ()


class DyadicIntervals(CoverScheme):
    # overlap: the absolute stretch added on each side
    __slots__ = ("depth", "overlap")


class Arcs(CoverScheme):
    # overlap: the fraction of one arc length added on each side
    __slots__ = ("count", "overlap")


class Cylinders(CoverScheme):
    __slots__ = ("prefix_len",)


class Balls(CoverScheme):
    __slots__ = ("radius", "stride")


def generate_cover(space: GroundSpace, scheme: CoverScheme, cover_id: CoverId = 0) -> Cover:
    """Materialize a cover scheme as point subsets of the ground model.

    Raises ValueError when a scheme parameterization produces an empty
    element or fails to cover the space.
    """
    if isinstance(scheme, DyadicIntervals):
        pointsets = _dyadic_pointsets(space, scheme.depth, Fraction(scheme.overlap))
    elif isinstance(scheme, Arcs):
        pointsets = _arc_pointsets(space, scheme.count, Fraction(scheme.overlap))
    elif isinstance(scheme, Cylinders):
        pointsets = _cylinder_pointsets(space, scheme.prefix_len)
    elif isinstance(scheme, Balls):
        pointsets = _ball_pointsets(space, Fraction(scheme.radius), scheme.stride)
    else:
        raise ValueError(f"unknown cover scheme {scheme!r}")
    for ps in pointsets:
        if not ps:
            raise ValueError(f"{scheme!r} produced an empty element")
    covered = set().union(*pointsets)
    if covered != set(space.points):
        raise ValueError(f"{scheme!r} does not cover the space")
    return cover_from_pointsets(cover_id, pointsets)


def _coord1(space: GroundSpace, p: PointId) -> Fraction:
    if space.coords is None:
        raise ValueError("scheme needs coordinates")
    return space.coords[p][-1]


def _dyadic_pointsets(space: GroundSpace, depth: int, overlap: Fraction) -> list[frozenset[PointId]]:
    if depth < 0:
        raise ValueError("depth must be nonnegative")
    n = 2**depth
    cell = Fraction(1, n)
    out = []
    for k in range(n):
        lo, hi = k * cell - overlap, (k + 1) * cell + overlap
        out.append(frozenset(p for p in space.points if lo <= _coord1(space, p) <= hi))
    return out


def _arc_pointsets(space: GroundSpace, count: int, overlap: Fraction) -> list[frozenset[PointId]]:
    if count < 1:
        raise ValueError("need at least one arc")
    out = []
    for k in range(count):
        members = []
        for p in space.points:
            # position of the point in units of arcs, relative to arc k
            t = (_coord1(space, p) * count - k) % count
            if t <= 1 + overlap or t >= count - overlap:
                members.append(p)
        out.append(frozenset(members))
    return out


def _cylinder_pointsets(space: GroundSpace, prefix_len: int) -> list[frozenset[PointId]]:
    if space.labels is None:
        raise ValueError("cylinder scheme needs labelled points")
    if prefix_len < 1 or any(len(lb) < prefix_len for lb in space.labels):
        raise ValueError("prefix length out of range")
    prefixes = sorted({lb[:prefix_len] for lb in space.labels})
    return [
        frozenset(p for p in space.points if space.labels[p].startswith(pref))
        for pref in prefixes
    ]


def _ball_pointsets(space: GroundSpace, radius: Fraction, stride: int) -> list[frozenset[PointId]]:
    if stride < 1:
        raise ValueError("stride must be positive")
    if radius < 0:
        raise ValueError("radius must be nonnegative")
    return [space.balls(c, [radius])[0] for c in range(0, space.n_points, stride)]


# ---------------------------------------------------------------------------
# conditions on a family


def star_union(cover: Cover, x: PointId) -> frozenset[PointId]:
    """Union of the cover elements containing x."""
    return frozenset().union(*(e.pointset for e in cover.elements if x in e.pointset))


def check_local_refinement(
    family: CoverFamily, neighborhoods: Sequence[tuple[PointId, Iterable[PointId]]]
) -> Report:
    """For each (x, U): some cover's star at x must fit inside U.

    The neighborhood list is the finite surrogate for arbitrary open
    neighborhoods; the report records each pair with its witness cover.
    """
    rows = []
    passed = True
    counterexample = None
    for x, nbhd in neighborhoods:
        u = frozenset(nbhd)
        if x not in u:
            raise ValueError(f"neighborhood of point {x} does not contain it")
        witness: CoverId | None = None
        for cover in family.covers:
            if star_union(cover, x) <= u:
                witness = cover.id
                break
        rows.append({"point": x, "neighborhood_size": len(u), "witness_cover": witness})
        if witness is None:
            passed = False
            if counterexample is None:
                counterexample = {"point": x, "neighborhood": sorted(u)}
    return Report(
        "local_refinement",
        passed,
        witness=None if not passed else sorted({r["witness_cover"] for r in rows}),
        counterexample=counterexample,
        details={"pairs": rows},
    )


def singleton_neighborhoods(space: GroundSpace) -> list[tuple[PointId, frozenset[PointId]]]:
    return [(p, frozenset({p})) for p in space.points]


def ball_neighborhoods(
    space: GroundSpace, radii: Sequence[Fraction]
) -> list[tuple[PointId, frozenset[PointId]]]:
    """Metric-ball schedule: one neighborhood per point per radius, radius
    by radius, each distance computed once by ``GroundSpace.balls``."""
    by_point = [space.balls(p, radii) for p in space.points]
    return [(p, ball) for by_radius in zip(*by_point) for p, ball in enumerate(by_radius)]


SELECTION_GUARD = 10**6


def check_selection_completeness(family: CoverFamily) -> Report:
    """One element per cover: small-subfamily intersection must force a
    common point.

    A selection has the finite-intersection surrogate when all its pairs
    and triples intersect; such selections must have nonempty total
    intersection.  A depth-first search picks one element per cover, in
    cover id order, and drops a partial selection as soon as two or three
    of its elements are disjoint.  So it reaches exactly the selections
    with the surrogate, in lexicographic order; ``SELECTION_GUARD`` bounds
    the partial selections it visits.
    """
    pools = [c.elements for c in family.covers]
    visited = fip_selections = 0
    counterexample = None
    # one frame per cover entered: the elements left to try there, and the
    # prefix before it (element ids, pointsets, pairwise meets and total
    # intersection); entering a frame counts its elements as visited
    frames: list = []

    def enter(ids, sets, meets, total):
        nonlocal visited
        visited += len(pools[len(ids)])
        if visited > SELECTION_GUARD:
            raise GuardExceeded(
                f"selection search exceeds its guard of {SELECTION_GUARD} partial selections"
            )
        frames.append((iter(pools[len(ids)]), ids, sets, meets, total))

    enter((), (), (), frozenset(family.ground.points))
    while frames and counterexample is None:
        todo, ids, sets, meets, total = frames[-1]
        last = len(ids) + 1 == len(pools)
        for e in todo:
            s = e.pointset
            if any(map(s.isdisjoint, sets)) or any(map(s.isdisjoint, meets)):
                continue
            if not last:
                enter((*ids, e.id), (*sets, s), meets + tuple(map(s.__and__, sets)), total & s)
                break
            fip_selections += 1
            if total.isdisjoint(s):
                # a selection holds one element per cover, in cover id order
                counterexample = [list(pair) for pair in enumerate((*ids, e.id))]
                break
        else:
            frames.pop()
    return Report(
        "selection_completeness",
        counterexample is None,
        counterexample=counterexample,
        details={
            "selection_space": math.prod(len(pool) for pool in pools),
            "with_intersection_property": fip_selections,
        },
    )


# ---------------------------------------------------------------------------
# JSON formats


def space_to_json(space: GroundSpace) -> dict:
    return {
        "format_version": FORMAT_VERSION,
        "points": space.n_points,
        "coords": None
        if space.coords is None
        else [[frac_to_str(x) for x in vec] for vec in space.coords],
        "metric": space.metric.value,
        "labels": None if space.labels is None else list(space.labels),
    }


def space_from_json(data: dict) -> GroundSpace:
    try:
        coords = data["coords"]
        parsed = (
            None
            if coords is None
            else tuple(tuple(str_to_frac(x) for x in vec) for vec in coords)
        )
        labels = data["labels"]
        if labels is not None and not (
            isinstance(labels, list) and all(isinstance(lb, str) for lb in labels)
        ):
            raise ValueError("labels must be null or a list of strings")
        return GroundSpace(
            _json_int(data["points"], "the point count"),
            parsed,
            Metric(data["metric"]),
            None if labels is None else tuple(labels),
        )
    except (KeyError, TypeError, ValueError, ArithmeticError) as exc:
        raise InputError(f"malformed space file: {exc}") from exc


def _json_int(value: object, what: str) -> int:
    """``value`` when it is a JSON integer; a bool or a float is refused,
    not rounded."""
    if type(value) is not int:
        raise ValueError(f"{what} must be an integer, got {json.dumps(value)}")
    return value


def load_space(path: Path) -> GroundSpace:
    return space_from_json(read_json(path, "space file"))


def cover_to_json(cover: Cover) -> dict:
    return {
        "cover_id": cover.id,
        "elements": [
            {"id": e.id, "points": sorted(e.pointset)} for e in cover.elements
        ],
    }


def cover_from_json(data: dict, cover_id: CoverId) -> Cover:
    """Cover ``cover_id`` from its JSON object; the object's ``cover_id`` is not read."""
    try:
        return cover_from_pointsets(
            cover_id,
            [{_json_int(x, "a point id") for x in e["points"]} for e in data["elements"]],
        )
    except (KeyError, TypeError, ValueError, ArithmeticError) as exc:
        raise InputError(f"malformed cover object: {exc}") from exc


def family_to_json(family: CoverFamily) -> dict:
    return {
        "format_version": FORMAT_VERSION,
        "covers": [cover_to_json(c) for c in family.covers],
    }


def family_from_json(data: dict, space: GroundSpace) -> CoverFamily:
    try:
        covers = tuple(
            cover_from_json(obj, cover_id=i) for i, obj in enumerate(data["covers"])
        )
    except (KeyError, TypeError) as exc:
        raise InputError(f"malformed covers file: {exc}") from exc
    for cover in covers:
        outside = sorted(p for p in cover.union() if not 0 <= p < space.n_points)
        if outside:
            raise InputError(
                f"cover {cover.id} names point {outside[0]}; "
                f"the space has points 0 to {space.n_points - 1}"
            )
    try:
        return CoverFamily(covers, space)
    except ValueError as exc:
        raise InputError(f"bad covers file: {exc}") from exc


def load_family(path: Path, space: GroundSpace) -> CoverFamily:
    return family_from_json(read_json(path, "covers file"), space)
