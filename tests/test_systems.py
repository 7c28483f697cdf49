from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

import oracles
from conftest import family_and_lambda, level_flag, level_flags, level_nerve, planted_triangles
from oracles import (
    BarycentricPoint,
    canonical_point,
    canonical_points,
    fiber_homotopy,
    full_check_flag_reconstruction,
    full_check_skeleton_equality,
    is_compatible,
    k_simplices,
    point_image,
    point_mask,
    point_thread,
    push_point,
    sampled_check_homotopy,
    thread_scan_check_fibers,
    vertex_point,
    vertex_thread,
    vertex_thread_image,
    vertex_threads,
)
from nervelim import systems
from nervelim.complexes import LambdaIndex, members
from nervelim.errors import PreconditionUnmet
from nervelim.ground import (
    Arcs,
    CircleGrid,
    CoverFamily,
    DyadicIntervals,
    GroundSpace,
    IntervalGrid,
    cover_from_pointsets,
    generate_cover,
    generate_space,
)
from nervelim.systems import (
    build_system,
    canonical_map,
    canonical_thread,
    check_fibers,
    check_flag_reconstruction,
    check_functoriality,
    check_homotopy,
    check_nerve_absorption,
    check_section_identity,
    check_simpliciality,
    check_skeleton_equality,
    find_nerve_absorbing_level,
    thread_image,
)

F = Fraction


def _lam(*ids):
    return LambdaIndex.of(ids)


def _at(system, *ids):
    """The position of the level named by the cover ids."""
    return system.position[LambdaIndex.of(ids)]


@pytest.fixture(scope="module")
def dyadic_pair_system():
    space = generate_space(IntervalGrid(), 10)
    family = CoverFamily(
        (
            generate_cover(space, DyadicIntervals(1, F(1, 10)), cover_id=0),
            generate_cover(space, DyadicIntervals(2, F(1, 10)), cover_id=1),
        ),
        space,
    )
    return build_system(family)


# ---------------------------------------------------------------------------
# bonding maps


def test_bond_identity(cantor_system):
    i = _at(cantor_system, 0, 1)
    bond = cantor_system.bond(i, i)
    assert bond == tuple(range(len(cantor_system.levels[i].vertices)))


def test_bond_drops_coordinates(cantor_system):
    top, i = _at(cantor_system, 0, 1, 2), _at(cantor_system, 0, 1)
    assert top == cantor_system.top
    bond = cantor_system.bond(i, top)
    for v_id, v in enumerate(cantor_system.levels[top].vertices):
        image = cantor_system.levels[i].vertices[bond[v_id]]
        assert image.elements == v.elements[:2]


def test_bond_requires_comparable(cantor_system):
    i, j = _at(cantor_system, 0, 1), _at(cantor_system, 1, 2)
    assert j not in cantor_system.above[i]
    with pytest.raises(KeyError):
        cantor_system.bond(i, j)


def test_duplicate_level_rejected(cantor_system):
    # a level is named by its position, so it may be listed only once
    with pytest.raises(ValueError):
        build_system(cantor_system.family, [_lam(0), _lam(0)])


def test_functoriality_all_chains(cantor_system):
    report = check_functoriality(cantor_system)
    assert report.passed
    # 7 levels: every comparable pair extends to chains
    assert report.details["chains"] >= 7


def test_functoriality_names_a_non_composite_bond(cantor_system):
    # a system of its own, so the injected bond stays out of the fixture
    system = build_system(cantor_system.family, [_lam(0), _lam(0, 1), _lam(0, 1, 2)])
    assert check_functoriality(system).passed
    bond = list(system.bond(0, 2))
    bond[0] = 1 - bond[0]  # level {0} has two vertices
    system._bonds[(0, 2)] = tuple(bond)
    report = check_functoriality(system)
    assert not report.passed
    # chains through an identity bond compose to the injected bond itself,
    # so the first chain that differs is the one through {0,1}
    assert report.counterexample == {"lambda": [0], "mu": [0, 1], "nu": [0, 1, 2]}
    assert report.details == {"chains": 5}


def test_bonds_simplicial(cantor_system, circle_system):
    assert check_simpliciality(cantor_system).passed
    assert check_simpliciality(circle_system).passed


def test_build_system_rejects_a_bond_that_moves_a_point_off_its_fiber(
    interval_system, monkeypatch
):
    # the bond from {0,1} down to {0} sends vertex (0,0), whose wedge holds
    # points 0-2, to vertex (1,), whose wedge holds points 4-8.  It still
    # sends every edge to an edge or one vertex, so no edge walk finds it
    projection = systems._projection

    def moved(dst, src, index_of):
        bond = projection(dst, src, index_of)
        if (dst.lam, src.lam) == (_lam(0), _lam(0, 1)):
            bond = (1, *bond[1:])
        return bond

    monkeypatch.setattr(systems, "_projection", moved)
    with pytest.raises(AssertionError) as raised:
        build_system(interval_system.family)
    assert str(raised.value) == "the bond from [0, 1] to [0] maps point 0's fiber outside it"


# ---------------------------------------------------------------------------
# canonical maps


def test_canonical_map_single_wedge(cantor_system):
    # every cantor point lies in exactly one element per cover
    top = cantor_system.top
    for x in cantor_system.family.ground.points:
        assert len(canonical_map(cantor_system, top, x)) == 1


def test_canonical_map_support_contains_point(interval_system):
    for i, level in enumerate(interval_system.levels):
        for x in interval_system.family.ground.points:
            for vid in canonical_map(interval_system, i, x):
                assert level.vertices[vid].wedge >> x & 1


def _canonical_maps_commute_with_bonds(system):
    for x in system.family.ground.points:
        for i, up in enumerate(system.above):
            for j in up:
                pushed = push_point(system.bond(i, j), canonical_point(system, j, x))
                assert pushed == canonical_point(system, i, x)


def test_canonical_maps_commute_with_bonds(cantor_system):
    _canonical_maps_commute_with_bonds(cantor_system)


def test_canonical_thread_is_compatible(interval_system):
    for x in (0, 4, 8):
        assert is_compatible(interval_system, canonical_points(interval_system, x))


# ---------------------------------------------------------------------------
# thread images


def test_thread_image_cantor_resolved(cantor_system):
    z = vertex_thread(cantor_system, 0)
    assert vertex_thread_image(cantor_system, z) == point_mask({0})


def test_thread_image_off_nerve(circle_system):
    # the filled coarse triangle: its interior lies off the nerve
    system_one = build_system(circle_system.family, [_lam(0)])
    interior = BarycentricPoint.from_dict({0: F(1, 3), 1: F(1, 3), 2: F(1, 3)})
    assert interior.carrier in level_flag(system_one.levels[0], system_one.max_dim)
    z = point_thread(system_one, interior)
    assert point_image(system_one, z) == 0
    assert thread_image(system_one, (interior.carrier,)) == 0


def test_thread_image_unresolved_overlap():
    space = GroundSpace(3)
    family = CoverFamily((cover_from_pointsets(0, [{0, 1, 2}, {1, 2}]),), space)
    system = build_system(family)
    z = vertex_thread(system, 1)
    assert vertex_thread_image(system, z) == point_mask({1, 2})


def test_incompatible_thread_detected(cantor_system):
    a = vertex_thread(cantor_system, 0)
    b = vertex_thread(cantor_system, 7)
    mixed = a[:-1] + b[-1:]  # the top level is last
    assert not is_compatible(cantor_system, mixed)


def test_vertex_threads_determined_by_top(cantor_system):
    threads = vertex_threads(cantor_system)
    t = cantor_system.top
    for z in threads:
        assert is_compatible(cantor_system, z)
        assert vertex_thread(cantor_system, z[t]) == z


# ---------------------------------------------------------------------------
# the section identity


def test_section_identity_presets(cantor_system, interval_system):
    assert check_section_identity(cantor_system).passed
    assert check_section_identity(interval_system).passed


def test_section_identity_reports_unresolved():
    space = GroundSpace(2)
    family = CoverFamily((cover_from_pointsets(0, [{0, 1}]),), space)
    system = build_system(family)
    report = check_section_identity(system)
    assert not report.passed
    assert [row["point"] for row in report.details["unresolved"]] == [0, 1]
    assert report.details["unresolved"][0]["image"] == [0, 1]


# ---------------------------------------------------------------------------
# fibers


def test_fiber_midpoint_is_an_edge(dyadic_pair_system):
    sub = build_system(dyadic_pair_system.family, [_lam(0)])
    c = sub.levels[0].fibers[5]
    assert c == (0, 1)
    assert c in level_nerve(sub.levels[0], sub.max_dim)


def test_fiber_singleton(cantor_system):
    c = cantor_system.levels[cantor_system.top].fibers[3]
    assert len(c) == 1


def test_fiber_projection_inclusion(preset_systems):
    for name, (_, _, system) in preset_systems.items():
        assert check_fibers(system).passed, name


def test_fibers_report_a_top_fiber_the_threads_overrun(monkeypatch):
    # one level, so its one bond is the identity and no fiber escapes it;
    # point 1's fiber loses vertex 0, whose wedge {0, 1} still holds point 1
    point_fibers = systems.point_fibers

    def dropped(vertices, n_points):
        fibers = point_fibers(vertices, n_points)
        fibers[1] = fibers[1][1:]
        return fibers

    monkeypatch.setattr(systems, "point_fibers", dropped)
    family = CoverFamily((cover_from_pointsets(0, [{0, 1}, {1, 2}]),), GroundSpace(3))
    system = build_system(family)
    assert system.levels[0].fibers == [(0,), (1,), (1,)]
    report = check_fibers(system)
    assert report.counterexample == {"point": 1, "reason": "top fiber not realized by threads"}
    assert report == thread_scan_check_fibers(system)


# ---------------------------------------------------------------------------
# the homotopy


def test_homotopy_endpoints(cantor_system):
    z = point_thread(cantor_system, vertex_point(2))
    assert fiber_homotopy(cantor_system, z, F(0)) == z
    (x,) = members(point_image(cantor_system, z))
    assert fiber_homotopy(cantor_system, z, F(1)) == canonical_points(cantor_system, x)


def test_homotopy_preserves_image(interval_system):
    top = interval_system.top
    # an edge of the top nerve: two vertices over the same grid point
    edge = k_simplices(level_nerve(interval_system.levels[top], interval_system.max_dim), 1)[0]
    point = BarycentricPoint.from_dict({edge[0]: F(1, 3), edge[1]: F(2, 3)})
    z = point_thread(interval_system, point)
    base = point_image(interval_system, z)
    assert base.bit_count() == 1
    for t in (F(0), F(1, 4), F(1, 2), F(3, 4), F(1)):
        moved = fiber_homotopy(interval_system, z, t)
        assert point_image(interval_system, moved) == base
        assert is_compatible(interval_system, moved)


def test_homotopy_needs_resolved_thread():
    space = GroundSpace(2)
    family = CoverFamily((cover_from_pointsets(0, [{0, 1}]),), space)
    system = build_system(family)
    z = point_thread(system, vertex_point(0))
    with pytest.raises(ValueError):
        fiber_homotopy(system, z, F(1, 2))


def test_preset_point_carriers_are_level_simplices(preset_systems, monkeypatch):
    # a point holds no complex, so this stands in for a constructor check:
    # the point threads the sampled homotopy draws and its stages lie in
    # the flag complexes, and canonical maps lie in the nerves
    drawn, moved = [], []

    def recording(fn, into):
        def wrapper(*args):
            into.append(fn(*args))
            return into[-1]

        return wrapper

    monkeypatch.setattr(oracles, "point_thread", recording(point_thread, drawn))
    monkeypatch.setattr(oracles, "fiber_homotopy", recording(fiber_homotopy, moved))
    for name, (_, _, system) in preset_systems.items():
        drawn.clear()
        moved.clear()
        sampled_check_homotopy(system, count=10, seed=7)
        # circle-a3 resolves no thread, so nothing there is moved
        assert drawn and (moved or name == "circle-a3"), name
        flags = [set(flag) for flag in level_flags(system)]
        for z in drawn + moved:
            for flag, point in zip(flags, z):
                assert point.carrier in flag, name
        for i, level in enumerate(system.levels):
            nerve = set(level_nerve(level, system.max_dim))
            for x in system.family.ground.points:
                assert canonical_map(system, i, x) in nerve, name


def test_homotopy_check_seeded(cantor_system):
    report = sampled_check_homotopy(cantor_system, count=50, seed=0)
    assert report.passed
    assert report.details["threads"] == 50
    exact = check_homotopy(cantor_system)
    assert exact.passed and exact.details == {"resolved": list(range(8))}


def test_homotopy_catches_a_fiber_the_bond_misses(cantor_system):
    # a system of its own, so the corrupted bond stays out of the fixture
    system = build_system(cantor_system.family)
    t, i = system.top, _at(system, 0)
    # send the top vertex over point 0 to the other vertex of level {0}
    (v,) = system.levels[t].fibers[0]
    bond = list(system.bond(i, t))
    bond[v] = 1 - bond[v]
    system._bonds[(i, t)] = tuple(bond)
    report = check_homotopy(system)
    assert not report.passed
    assert report.counterexample == {"point": 0, "lambda": [0]}
    fibers = check_fibers(system)
    top_ids = list(system.levels[t].lam.cover_ids)
    assert fibers.counterexample == {"point": 0, "lam": [0], "mu": top_ids}
    assert fibers == thread_scan_check_fibers(system)


def test_homotopy_skips_without_a_resolved_point(preset_systems):
    # circle-a3's wedges are arcs of 7 points; no top fiber's wedges share
    # one point alone
    with pytest.raises(PreconditionUnmet, match="no point is resolved"):
        check_homotopy(preset_systems["circle-a3"][2])


def test_homotopy_resolves_only_a_lone_common_point():
    # the wedges of the fiber over 0 share 0 alone; those over 2 share
    # {2, 3}, and the one over 1 is the whole space
    space = GroundSpace(4)
    family = CoverFamily((cover_from_pointsets(0, [{0, 1, 2, 3}, {2, 3}, {0}]),), space)
    report = check_homotopy(build_system(family))
    assert report.passed and report.details == {"resolved": [0]}


# ---------------------------------------------------------------------------
# nerve absorption


def test_nerve_absorption_witness_on_circle(circle_system):
    j = find_nerve_absorbing_level(circle_system, _at(circle_system, 0), level_flags(circle_system))
    assert j is not None and circle_system.levels[j].lam == _lam(0, 1)


def test_nerve_absorption_top_level(circle_system):
    top = circle_system.top
    # at the top the only candidate is the top itself, and there F = N
    flags = level_flags(circle_system)
    assert find_nerve_absorbing_level(circle_system, top, flags) == top
    assert flags[top] == level_nerve(circle_system.levels[top], circle_system.max_dim)


def test_nerve_absorption_not_found_when_truncated():
    space = generate_space(CircleGrid(), 12)
    family = CoverFamily((generate_cover(space, Arcs(3, F(1, 4)), cover_id=0),), space)
    system = build_system(family)
    assert find_nerve_absorbing_level(system, _at(system, 0), level_flags(system)) is None
    assert not check_nerve_absorption(system).passed


# ---------------------------------------------------------------------------
# adjacency characterization of equal images


def test_fiber_adjacency_disjoint_cylinders(cantor_system):
    # distinct deepest cylinders: images differ and wedges are disjoint at
    # the top, so both sides of the equivalence fail together
    threads = vertex_threads(cantor_system)
    za, zb = threads[0], threads[7]
    ia, ib = vertex_thread_image(cantor_system, za), vertex_thread_image(cantor_system, zb)
    assert ia != ib
    t = cantor_system.top
    va = cantor_system.levels[t].vertices[za[t]]
    vb = cantor_system.levels[t].vertices[zb[t]]
    assert not va.wedge & vb.wedge


# ---------------------------------------------------------------------------
# structural reports


def _assert_structural_checks_match_rebuilds(system):
    """The two checks that compare a level's graph and fibers with the
    wedges report what rebuilding and comparing its complexes reports."""
    assert check_flag_reconstruction(system) == full_check_flag_reconstruction(system)
    assert check_skeleton_equality(system) == full_check_skeleton_equality(system)


def test_flag_reconstruction_and_skeletons(preset_systems):
    for name, (_, _, system) in preset_systems.items():
        assert check_flag_reconstruction(system).passed, name
        assert check_skeleton_equality(system).passed, name
        _assert_structural_checks_match_rebuilds(system)


@given(family_and_lambda() | planted_triangles())
def test_structural_checks_match_rebuilds_on_generated_families(data):
    family, _ = data
    _assert_structural_checks_match_rebuilds(build_system(family, max_dim=30))


def _top_only(preset_systems, name):
    """The preset's family and the name of its top level, built alone so
    that the only bond is the identity and a corrupted graph still builds."""
    _, family, system = preset_systems[name]
    return family, system.levels[system.top].lam


def _bit_pair(adj):
    """The first edge (a, b) of a graph given as neighbour bitmasks."""
    a = next(v for v, nbrs in enumerate(adj) if nbrs)
    return a, (adj[a] & -adj[a]).bit_length() - 1


@pytest.mark.parametrize("change", ["drop", "add"])
def test_flag_reconstruction_catches_a_wrong_wedge_graph(preset_systems, monkeypatch, change):
    family, lam = _top_only(preset_systems, "circle-a3612")
    wedge_adjacency = systems.wedge_adjacency

    def corrupted(fibers, n):
        adj = wedge_adjacency(fibers, n)
        if change == "drop":
            a, b = _bit_pair(adj)
        else:  # join two vertices whose wedges are disjoint
            a, b = _bit_pair([~m & ~(1 << v) & ((1 << n) - 1) for v, m in enumerate(adj)])
        adj[a] ^= 1 << b
        adj[b] ^= 1 << a
        return adj

    monkeypatch.setattr(systems, "wedge_adjacency", corrupted)
    system = build_system(family, [lam])
    # skeleton_equality reads the nerve's edges through wedge_adjacency, so
    # the checks run with the genuine one
    monkeypatch.undo()
    report = check_flag_reconstruction(system)
    assert report.counterexample == {"lambda": list(lam.cover_ids), "reason": "flag reconstruction"}
    _assert_structural_checks_match_rebuilds(system)


def test_skeleton_equality_catches_a_missing_fiber_vertex(preset_systems, monkeypatch):
    family, lam = _top_only(preset_systems, "circle-a3612")
    (level,) = build_system(family, [lam]).levels
    # a point x that is the only common point of the wedges of v and w
    x, v = next(
        (x, v)
        for x, fib in enumerate(level.fibers)
        for v, w in ((v, w) for v in fib for w in fib if v != w)
        if level.vertices[v].wedge & level.vertices[w].wedge == 1 << x
    )
    point_fibers = systems.point_fibers

    def corrupted(vertices, n_points):
        fibers = point_fibers(vertices, n_points)
        fibers[x] = tuple(u for u in fibers[x] if u != v)
        return fibers

    monkeypatch.setattr(systems, "point_fibers", corrupted)
    system = build_system(family, [lam])
    report = check_skeleton_equality(system)
    assert report.counterexample == {"lambda": list(lam.cover_ids)}
    _assert_structural_checks_match_rebuilds(system)


def test_skeleton_equality_catches_a_nerve_edge_missing_from_the_fibers(preset_systems):
    # drop v from the fiber of the only point x that v and w share: the
    # graph stays right, but the nerve loses the edge v-w
    family, lam = _top_only(preset_systems, "circle-a3612")
    system = build_system(family, [lam])
    (level,) = system.levels
    x, v, w = next(
        (x, v, w)
        for x, fib in enumerate(level.fibers)
        for v, w in ((v, w) for v in fib for w in fib if v < w)
        if level.vertices[v].wedge & level.vertices[w].wedge == 1 << x
    )
    fibers = list(level.fibers)
    fibers[x] = tuple(u for u in fibers[x] if u != v)
    system.levels[0] = level._replace(fibers=fibers)
    assert (v, w) in level_flag(system.levels[0], system.max_dim)
    assert (v, w) not in level_nerve(system.levels[0], system.max_dim)
    assert check_skeleton_equality(system).counterexample == {"lambda": list(lam.cover_ids)}
    report = check_flag_reconstruction(system)
    assert report.counterexample == {"lambda": list(lam.cover_ids), "reason": "nerve reconstruction"}
    _assert_structural_checks_match_rebuilds(system)


def test_flag_reconstruction_catches_a_nerve_simplex_off_the_wedges(preset_systems, monkeypatch):
    # all three arcs of circle-a3 in point 0's fiber: their wedges share no
    # point, but the nerve gains the triangle; the graph, and so the flag
    # complex, stay as they are
    family, lam = _top_only(preset_systems, "circle-a3")
    point_fibers = systems.point_fibers

    def corrupted(vertices, n_points):
        fibers = point_fibers(vertices, n_points)
        fibers[0] = tuple(range(len(vertices)))
        return fibers

    monkeypatch.setattr(systems, "point_fibers", corrupted)
    system = build_system(family, [lam])
    assert (0, 1, 2) in level_nerve(system.levels[0], system.max_dim)
    report = check_flag_reconstruction(system)
    assert report.counterexample == {"lambda": list(lam.cover_ids), "reason": "nerve reconstruction"}
    _assert_structural_checks_match_rebuilds(system)


# ---------------------------------------------------------------------------
# property tests over random families


@st.composite
def random_systems(draw):
    n = draw(st.integers(min_value=1, max_value=5))
    n_covers = draw(st.integers(min_value=1, max_value=2))
    covers = []
    for cid in range(n_covers):
        n_elements = draw(st.integers(min_value=1, max_value=3))
        sets = [
            set(draw(st.sets(st.integers(0, n - 1), min_size=1)))
            for _ in range(n_elements)
        ]
        sets[-1] |= set(range(n)) - set().union(*sets)
        covers.append(cover_from_pointsets(cid, sets))
    family = CoverFamily(tuple(covers), GroundSpace(n))
    return build_system(family, max_dim=12)


@given(random_systems())
def test_random_system_structural_invariants(system):
    assert check_functoriality(system).passed
    assert check_simpliciality(system).passed
    assert check_skeleton_equality(system).passed
    assert check_flag_reconstruction(system).passed


@given(random_systems())
def test_random_system_canonical_compatibility(system):
    _canonical_maps_commute_with_bonds(system)


@given(random_systems())
def test_random_system_section_contains_point(system):
    # the image of the canonical thread always contains its point, even
    # when the family does not resolve it to a singleton
    for x in system.family.ground.points:
        assert thread_image(system, canonical_thread(system, x)) >> x & 1


@given(random_systems())
def test_random_system_fiber_projections(system):
    for x in system.family.ground.points:
        fibers = [level.fibers[x] for level in system.levels]
        for i, up in enumerate(system.above):
            for j in up:
                image = {system.bond(i, j)[v] for v in fibers[j]}
                assert image <= set(fibers[i])
