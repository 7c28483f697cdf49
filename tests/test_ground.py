from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import event, given, strategies as st

from oracles import product_scan_selection
from nervelim.errors import GuardExceeded, InputError
from nervelim.ground import (
    Arcs,
    Balls,
    CantorDepth,
    CircleGrid,
    CoverFamily,
    Cylinders,
    DyadicIntervals,
    GroundSpace,
    IntervalGrid,
    Metric,
    WedgeOfCircles,
    ball_neighborhoods,
    check_local_refinement,
    check_selection_completeness,
    cover_from_pointsets,
    generate_cover,
    generate_space,
    load_space,
    singleton_neighborhoods,
    space_from_json,
    space_to_json,
    star_union,
)
from nervelim.presets import PRESETS

F = Fraction


# ---------------------------------------------------------------------------
# space generators


def test_interval_grid_coords():
    space = generate_space(IntervalGrid(), 10)
    assert space.n_points == 11
    assert [c[0] for c in space.coords] == [F(k, 10) for k in range(11)]
    assert space.metric is Metric.EUCLIDEAN


def test_cantor_depth_labels():
    space = generate_space(CantorDepth(), 3)
    assert space.n_points == 8
    assert space.labels == tuple(format(i, "03b") for i in range(8))
    assert space.distance(0, 7) == 3  # 000 vs 111


def test_circle_grid_arc_table():
    space = generate_space(CircleGrid(), 12)
    assert space.n_points == 12
    # independent arc-length table: min walk around a circumference-1 circle
    table = {}
    for p in range(12):
        for q in range(12):
            steps = abs(p - q)
            table[(p, q)] = F(min(steps, 12 - steps), 12)
    for (p, q), expected in table.items():
        assert space.distance(p, q) == expected
    assert max(table.values()) == F(1, 2)
    assert space.distance(0, 6) == F(1, 2)


def test_wedge_space_path_metric():
    space = generate_space(WedgeOfCircles(2), 12)
    assert space.n_points == 23
    # points 1 and 12 sit one step from the glue point on different circles
    assert space.distance(1, 12) == F(2, 12)
    assert space.distance(1, 11) == F(2, 12)  # same circle, through the glue
    assert space.distance(0, 6) == F(1, 2)
    assert space.distance(3, 3) == 0


def test_metric_axioms_sampled():
    for kind, res in [(IntervalGrid(), 6), (CircleGrid(), 7), (CantorDepth(), 3), (WedgeOfCircles(3), 5)]:
        space = generate_space(kind, res)
        for p in space.points:
            assert space.distance(p, p) == 0
            for q in space.points:
                assert space.distance(p, q) == space.distance(q, p)


def test_euclidean_plane_distances():
    space = GroundSpace(
        3,
        ((F(0), F(0)), (F(3), F(4)), (F(1), F(1))),
        Metric.EUCLIDEAN,
    )
    # rational hypotenuse is exact
    assert space.distance(0, 1) == 5
    # an irrational distance is refused, not rounded to a float
    with pytest.raises(ValueError, match="not rational"):
        space.distance(0, 2)
    # irrational distances still give exact squared comparisons
    assert space.distance_sq(0, 2) == 2
    assert space.balls(0, [F(3, 2), F(7, 5)]) == [frozenset({0, 2}), frozenset({0})]


def test_generate_space_errors(tmp_path):
    with pytest.raises(ValueError):
        generate_space(IntervalGrid(), 0)
    with pytest.raises(FileNotFoundError):
        load_space(tmp_path / "missing.json")
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(InputError):
        load_space(bad)


# ---------------------------------------------------------------------------
# cover schemes


def test_cylinders_on_cantor():
    space = generate_space(CantorDepth(), 3)
    cover = generate_cover(space, Cylinders(1))
    assert len(cover.elements) == 2
    assert cover.elements[0].pointset == frozenset({0, 1, 2, 3})
    assert cover.elements[1].pointset == frozenset({4, 5, 6, 7})


def test_dyadic_intervals_on_grid10():
    space = generate_space(IntervalGrid(), 10)
    cover = generate_cover(space, DyadicIntervals(1, F(1, 10)))
    # independent membership check: coordinates k/10 in [0-0.1, 0.5+0.1]
    left = frozenset(k for k in range(11) if F(k, 10) <= F(6, 10))
    right = frozenset(k for k in range(11) if F(k, 10) >= F(4, 10))
    assert cover.elements[0].pointset == left == frozenset(range(7))
    assert cover.elements[1].pointset == right == frozenset(range(4, 11))


def test_arcs_on_circle12():
    space = generate_space(CircleGrid(), 12)
    cover = generate_cover(space, Arcs(3, F(1, 4)))
    # independent enumeration: point j/12 is in arc k iff its angle falls in
    # [(k - 1/4)/3, (k + 1 + 1/4)/3] mod 1, an arc of length 1/2
    expected = []
    for k in range(3):
        members = set()
        for j in range(12):
            t = (F(j, 12) - F(4 * k - 1, 12)) % 1
            if t <= F(1, 2):
                members.add(j)
        expected.append(frozenset(members))
    sets = [e.pointset for e in cover.elements]
    assert sets == expected
    assert all(len(s) == 7 for s in sets)
    for i in range(3):
        assert sets[i] & sets[(i + 1) % 3]
    assert not (sets[0] & sets[1] & sets[2])


def test_balls_scheme():
    space = generate_space(CircleGrid(), 12)
    cover = generate_cover(space, Balls(F(1, 12), 1))
    assert all(len(e.pointset) == 3 for e in cover.elements)
    singles = generate_cover(space, Balls(F(0), 1))
    assert all(len(e.pointset) == 1 for e in singles.elements)


def test_cover_scheme_errors():
    circle = generate_space(CircleGrid(), 12)
    with pytest.raises(ValueError):
        generate_cover(circle, Balls(F(0), 2))  # misses half the points
    cantor = generate_space(CantorDepth(), 2)
    with pytest.raises(ValueError):
        generate_cover(cantor, Cylinders(5))
    with pytest.raises(ValueError):
        generate_cover(circle, Cylinders(1))  # no labels


def test_cover_validation():
    with pytest.raises(ValueError):
        cover_from_pointsets(0, [set(), {1}])
    space = generate_space(IntervalGrid(), 2)
    partial = cover_from_pointsets(0, [{0, 1}])
    with pytest.raises(ValueError):
        CoverFamily((partial,), space)


# ---------------------------------------------------------------------------
# the local refinement condition


def _cylinder_family(depths) -> tuple[GroundSpace, CoverFamily]:
    space = generate_space(CantorDepth(), 3)
    covers = tuple(generate_cover(space, Cylinders(d), cover_id=i) for i, d in enumerate(depths))
    return space, CoverFamily(covers, space)


def test_local_refinement_cantor_pass():
    space, family = _cylinder_family([1, 2, 3])
    report = check_local_refinement(family, singleton_neighborhoods(space))
    assert report.passed
    # depth-3 cylinders are singletons, so the deepest cover witnesses
    assert all(row["witness_cover"] == 2 for row in report.details["pairs"])


def test_local_refinement_single_coarse_cover_fails():
    space, family = _cylinder_family([1])
    report = check_local_refinement(family, [(0, {0})])
    assert not report.passed
    assert report.counterexample["point"] == 0


def test_local_refinement_dyadic_grid16():
    space = generate_space(IntervalGrid(), 16)
    covers = tuple(
        generate_cover(space, DyadicIntervals(d, F(1, 10)), cover_id=d - 1)
        for d in (1, 2, 3, 4)
    )
    family = CoverFamily(covers, space)
    report = check_local_refinement(family, ball_neighborhoods(space, [F(1, 4)]))
    assert report.passed
    assert all(row["witness_cover"] is not None for row in report.details["pairs"])


def test_local_refinement_requires_containment():
    space, family = _cylinder_family([1])
    with pytest.raises(ValueError):
        check_local_refinement(family, [(0, {1, 2})])


def test_star_union():
    space, family = _cylinder_family([2])
    assert star_union(family.covers[0], 0) == frozenset({0, 1})


# ---------------------------------------------------------------------------
# the selection completeness condition


def test_selection_completeness_cantor():
    _, family = _cylinder_family([1, 2, 3])
    report = check_selection_completeness(family)
    assert report.passed
    assert report.details == {"selection_space": 2 * 4 * 8, "with_intersection_property": 8}


def test_selection_completeness_dyadic_grid8():
    space = generate_space(IntervalGrid(), 8)
    covers = tuple(
        generate_cover(space, DyadicIntervals(d, F(1, 10)), cover_id=d - 1)
        for d in (1, 2, 3)
    )
    family = CoverFamily(covers, space)
    report = check_selection_completeness(family)
    assert report.passed


def test_selection_completeness_failure_detected():
    # the four 3-element subsets of a 4-point space intersect pairwise and
    # triplewise but have empty total intersection
    space = GroundSpace(4)
    triples = [{0, 1, 2}, {0, 1, 3}, {0, 2, 3}, {1, 2, 3}]
    covers = tuple(
        cover_from_pointsets(i, [t, set(range(4)) - t]) for i, t in enumerate(triples)
    )
    family = CoverFamily(covers, space)
    report = check_selection_completeness(family)
    assert not report.passed
    assert report.counterexample == [[0, 0], [1, 0], [2, 0], [3, 0]]


def test_selection_completeness_cantor_d6():
    # 2^21 selections: past the guard for a product scan, 2,730 visits for the search
    space = generate_space(CantorDepth(), 6)
    covers = tuple(generate_cover(space, Cylinders(k), cover_id=k - 1) for k in range(1, 7))
    family = CoverFamily(covers, space)
    report = check_selection_completeness(family)
    assert report.passed
    assert report.details == {"selection_space": 2**21, "with_intersection_property": 64}


def test_selection_completeness_guard():
    space = GroundSpace(2)
    big = tuple(
        cover_from_pointsets(i, [{0, 1}] * 101) for i in range(3)
    )
    family = CoverFamily(big, space)
    with pytest.raises(GuardExceeded):
        check_selection_completeness(family)


# the selection search against the product scan


@st.composite
def selection_families(draw):
    """1-5 covers of 4 or 5 points.  An element is all points but one two
    times in three, else a random subset; four covers of the former hold
    selections whose pairs and triples meet but which share no point."""
    n = draw(st.integers(min_value=4, max_value=5))
    subsets = st.frozensets(st.integers(0, n - 1), min_size=1)
    co_points = st.integers(0, n - 1).map(lambda p: frozenset(range(n)) - {p})
    covers = []
    for cover_id in range(draw(st.integers(min_value=1, max_value=5))):
        sets = draw(st.lists(st.one_of(co_points, co_points, subsets), min_size=1, max_size=4))
        sets.append(frozenset(range(n)) - frozenset().union(*sets) or sets[0])
        covers.append(cover_from_pointsets(cover_id, sets))
    return CoverFamily(tuple(covers), GroundSpace(n))


@given(selection_families())
def test_selection_search_matches_product_scan(family):
    report = check_selection_completeness(family)
    assert report.to_json() == product_scan_selection(family).to_json()
    event("counterexample" if report.counterexample else "pass")


def _circle_family(arcs):
    space = generate_space(CircleGrid(), 24)
    covers = tuple(generate_cover(space, Arcs(n, o), cover_id=i) for i, (n, o) in enumerate(arcs))
    return CoverFamily(covers, space)


# the presets and two of the benchmark's circle families
NAMED_FAMILIES = {
    **{name: preset.factory for name, preset in PRESETS.items()},
    "circle-24-thick": lambda: _circle_family(((3, F(1)), (6, F(1, 4)), (12, F(1, 4)))),
    "circle-24-3812": lambda: _circle_family(((3, F(1, 2)), (8, F(1, 4)), (12, F(1, 4)))),
}


@pytest.mark.parametrize("name", list(NAMED_FAMILIES))
def test_selection_search_matches_product_scan_on_named_families(name):
    family = NAMED_FAMILIES[name]()
    report = check_selection_completeness(family)
    assert report.to_json() == product_scan_selection(family).to_json()


# ---------------------------------------------------------------------------
# serialization


def test_space_json_round_trip(tmp_path):
    for kind, res in [(IntervalGrid(), 5), (CircleGrid(), 6), (CantorDepth(), 2), (WedgeOfCircles(2), 4)]:
        space = generate_space(kind, res)
        data = space_to_json(space)
        again = space_from_json(data)
        assert again == space
    path = tmp_path / "space.json"
    import json

    path.write_text(json.dumps(space_to_json(generate_space(IntervalGrid(), 3))))
    assert load_space(path).n_points == 4


def test_space_json_malformed():
    with pytest.raises(InputError):
        space_from_json({"points": 2, "coords": "nope", "metric": "euclidean", "labels": None})
