"""Per-point and per-net queries against the scans they replaced.

Canonical maps come from point fibers and are memoized on the system, the
Cauchy sampler and sweep test each distinct net once, ``converge``
searches only the closed star of the net's top vertex, and the class
adjacency of the thread quotient comes from star bitmasks.  ``oracles``
keeps the old scans (the canonical map as product weights over every
vertex of the level, the class adjacency by every pair of member
threads), and these tests require the same results on generated families
and the same reports on every preset.
"""

from __future__ import annotations

import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, strategies as st

from oracles import (
    pairwise_class_adjacency,
    pairwise_is_cauchy,
    scan_canonical_map,
    scan_converge,
    sweep_every_net,
)
from nervelim import systems
from nervelim.errors import GuardExceeded
from nervelim.cells import (
    _non_max,
    cauchy_sweep,
    converge,
    equivalence_classes,
    is_cauchy,
    perturbed_thread_net,
)
from nervelim.ground import (
    CantorDepth,
    CircleGrid,
    CoverFamily,
    IntervalGrid,
    WedgeOfCircles,
    ball_neighborhoods,
    cover_from_pointsets,
    generate_space,
)
from nervelim.presets import PRESETS
from nervelim.systems import build_system, canonical_map, check_homotopy, vertex_threads


@st.composite
def weighted_systems(draw):
    """1-3 covers of an interval grid of 2-7 points by random, often
    overlapping, elements."""
    space = generate_space(IntervalGrid(), draw(st.integers(min_value=1, max_value=6)))
    n = space.n_points
    covers = []
    for cover_id in range(draw(st.integers(min_value=1, max_value=3))):
        sets = [
            set(draw(st.sets(st.integers(0, n - 1), min_size=1, max_size=3)))
            for _ in range(draw(st.integers(min_value=1, max_value=4)))
        ]
        for p in set(range(n)) - set().union(*sets):
            sets[draw(st.integers(0, len(sets) - 1))].add(p)
        covers.append(cover_from_pointsets(cover_id, sets))
    try:
        return build_system(CoverFamily(tuple(covers), space), max_dim=7)
    except GuardExceeded:
        assume(False)


@given(weighted_systems())
def test_canonical_map_matches_scan(system):
    for i in range(len(system.levels)):
        for x in system.family.ground.points:
            point = canonical_map(system, i, x)
            expected = scan_canonical_map(system, i, x)
            assert (point.carrier, point.coords) == (expected.carrier, expected.coords)
            # memoized: the second call hands back the same point
            assert canonical_map(system, i, x) is point


def test_canonical_maps_of_presets_match_scan(preset_systems):
    for name, (_, _, system) in preset_systems.items():
        for i in range(len(system.levels)):
            for x in system.family.ground.points:
                assert canonical_map(system, i, x) == scan_canonical_map(system, i, x), name


@given(weighted_systems(), st.integers(0, 2**16))
def test_cauchy_and_converge_match_scans(system, seed):
    rng = random.Random(seed)
    sizes = [len(level.vertices) for level in system.levels]
    threads = vertex_threads(system)
    non_max = _non_max(system)
    for _ in range(20):
        if rng.random() < 0.5:
            y = perturbed_thread_net(system, threads[rng.randrange(len(threads))], rng, non_max)
        else:
            y = tuple(rng.randrange(n) for n in sizes)
        cauchy = is_cauchy(system, y)
        assert cauchy == pairwise_is_cauchy(system, y)
        if cauchy:
            assert converge(system, y) == scan_converge(system, y)


def test_preset_nets_converge_as_scanned(preset_systems):
    for name, (_, _, system) in preset_systems.items():
        rng = random.Random(3)
        threads = vertex_threads(system)
        non_max = _non_max(system)
        for _ in range(200):
            y = perturbed_thread_net(system, threads[rng.randrange(len(threads))], rng, non_max)
            assert converge(system, y) == scan_converge(system, y), name


def _class_adjacency_matches_pairs(system):
    quotient = equivalence_classes(system).quotient
    if quotient is not None:
        expected = pairwise_class_adjacency(system, quotient.classes)
        assert quotient.adjacency == expected
    return quotient is not None


@given(weighted_systems())
def test_class_adjacency_matches_member_pairs(system):
    _class_adjacency_matches_pairs(system)


def test_preset_class_adjacency_matches_member_pairs(preset_systems):
    quotients = {
        name: _class_adjacency_matches_pairs(system)
        for name, (_, _, system) in preset_systems.items()
    }
    assert quotients["cantor-d3"] and quotients["interval-g8"]


@pytest.mark.parametrize("seed", [0, 7])
@pytest.mark.parametrize("name", list(PRESETS))
def test_reports_match_oracle_path(preset_systems, monkeypatch, name, seed):
    system = preset_systems[name][2]
    assert cauchy_sweep(system, 1000, seed).to_json() == sweep_every_net(system, 1000, seed).to_json()
    homotopy = check_homotopy(system, 10, seed).to_json()
    # the homotopy and its endpoint tests, with canonical maps scanned afresh
    monkeypatch.setattr(systems, "canonical_map", scan_canonical_map)
    assert homotopy == check_homotopy(system, 10, seed).to_json()


@pytest.mark.parametrize(
    "space",
    [
        generate_space(IntervalGrid(), 8),
        generate_space(CircleGrid(), 12),
        generate_space(WedgeOfCircles(2), 6),
        generate_space(CantorDepth(), 3),
    ],
    ids=["interval", "circle", "wedge", "cantor"],
)
def test_ball_neighborhoods_match_balls(space):
    radii = [Fraction(1, 2), Fraction(1, 8), Fraction(1, 3), Fraction(2)]
    expected = [(p, space.ball(p, r)) for r in radii for p in space.points]
    assert ball_neighborhoods(space, radii) == expected
    assert ball_neighborhoods(space, []) == []
