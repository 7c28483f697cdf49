"""Level construction against the constructions it replaced.

Vertices come from point fibers instead of a scan of every element tuple,
bonds are checked on point fibers instead of on every simplex, and the
level graph comes from point fibers instead of from every pair of wedges;
``oracles`` and the structural checks keep the old constructions, and
these tests require the same results on random families with overlapping
elements.  A map that keeps each point's fiber inside its fiber, or whose
image of each fiber spans a nerve simplex, sends every edge of the level
graph to an edge or one vertex, so it passes ``oracles.unmapped_edge``;
``unmapped`` on the graph's edges, which must agree with that walk, is
left to name a bond that fails.
"""

from __future__ import annotations

from hypothesis import assume, given, strategies as st

from conftest import level_flag, level_nerve
from oracles import full_bond_check, full_check_simpliciality, product_scan_vertices, unmapped_edge
from nervelim.complexes import (
    LambdaIndex,
    build_vertices,
    graph_edges,
    members,
    point_fibers,
    unmapped,
    wedge_adjacency,
)
from nervelim.errors import GuardExceeded
from nervelim.ground import (
    CantorDepth,
    CoverFamily,
    Cylinders,
    GroundSpace,
    cover_from_pointsets,
    generate_cover,
    generate_space,
)
from nervelim.systems import all_lambdas, build_system, check_simpliciality, wedge_graph


@st.composite
def overlapping_family(draw):
    """1-4 covers of up to 8 points, each of 1-4 random, often
    overlapping, elements."""
    n = draw(st.integers(min_value=1, max_value=8))
    covers = []
    for cover_id in range(draw(st.integers(min_value=1, max_value=4))):
        sets = [
            draw(st.sets(st.integers(0, n - 1), min_size=1, max_size=3))
            for _ in range(draw(st.integers(min_value=1, max_value=4)))
        ]
        for p in set(range(n)) - set().union(*sets):
            sets[draw(st.integers(0, len(sets) - 1))].add(p)
        covers.append(cover_from_pointsets(cover_id, sets))
    return CoverFamily(tuple(covers), GroundSpace(n))


def _system(family):
    # a family is discarded when any complex of any level passes the guard
    try:
        system = build_system(family, max_dim=7)
        for level in system.levels:
            level_flag(level, 7)
            level_nerve(level, 7)
    except GuardExceeded:
        assume(False)
    return system


@given(overlapping_family())
def test_vertices_match_product_scan(family):
    for lam in all_lambdas(len(family.covers)):
        # in order: vertex ids, level files and bonds follow the lexicographic order
        assert list(build_vertices(family, lam).items()) == list(product_scan_vertices(family, lam).items())


@given(overlapping_family())
def test_wedge_graph_matches_fiber_graph(family):
    for lam in all_lambdas(len(family.covers)):
        wedges = list(build_vertices(family, lam).values())
        fibers = point_fibers(wedges, family.ground.n_points)
        assert wedge_graph(wedges) == wedge_adjacency(fibers, len(wedges))


@st.composite
def other_map(draw, bond, n):
    """The bond with one vertex moved, or any map between its levels; ``n``
    is the vertex count of its target level."""
    vm = list(bond)
    if draw(st.booleans()):
        vm[draw(st.integers(0, len(vm) - 1))] = draw(st.integers(0, n - 1))
    else:
        vm = draw(st.lists(st.integers(0, n - 1), min_size=len(vm), max_size=len(vm)))
    return tuple(vm)


@given(overlapping_family(), st.data())
def test_edge_and_fiber_checks_match_full_check(family, data):
    system = _system(family)
    if data.draw(st.booleans()):
        # a bond with one vertex moved, or any map between its levels
        i, j = data.draw(st.sampled_from(sorted(system._bonds)))
        lo, hi = system.levels[i], system.levels[j]
        vm = data.draw(other_map(system.bond(i, j), len(lo.wedges)))
    else:
        # any two levels: the checks need only a flag or nerve target
        lo, hi = (data.draw(st.sampled_from(system.levels)) for _ in range(2))
        size, n = len(hi.wedges), len(lo.wedges)
        vm = tuple(data.draw(st.lists(st.integers(0, n - 1), min_size=size, max_size=size)))

    flag_ok = unmapped_edge(vm, hi.adjacency, lo.adjacency) is None
    assert flag_ok == full_bond_check(vm, level_flag(hi, 7), level_flag(lo, 7))
    assert flag_ok == (unmapped(vm, graph_edges(hi.adjacency), lo.wedges) is None)
    fibers = point_fibers(hi.wedges, family.ground.n_points)
    nerve_ok = unmapped(vm, fibers, lo.wedges) is None
    assert nerve_ok == full_bond_check(vm, level_nerve(hi, 7), level_nerve(lo, 7))
    # a map that keeps each point's fiber inside its fiber (build_system's
    # test), or passes the nerve half (simpliciality's), passes the flag half
    into_fibers = all(vm[v] in lo.fibers[x] for x, fiber in enumerate(fibers) for v in fiber)
    if into_fibers or nerve_ok:
        assert flag_ok


@given(overlapping_family(), st.data())
def test_simpliciality_report_matches_full_check(family, data):
    system = _system(family)
    assert check_simpliciality(system) == full_check_simpliciality(system)
    # replace one bond by another vertex map, often not simplicial
    pair = data.draw(st.sampled_from(sorted(system._bonds)))
    n = len(system.levels[pair[0]].wedges)
    system._bonds[pair] = data.draw(other_map(system.bond(*pair), n))
    assert check_simpliciality(system) == full_check_simpliciality(system)


def test_simpliciality_catches_a_bond_simplicial_only_on_flags():
    # cover 0 is a hollow triangle: its flag complex is the full triangle,
    # its nerve has no 2-simplex; cover 1 has point 0 in all three elements
    family = CoverFamily(
        (
            cover_from_pointsets(0, [{0, 1}, {1, 2}, {0, 2}]),
            cover_from_pointsets(1, [{0}, {0, 1}, {0, 2}]),
        ),
        GroundSpace(3),
    )
    system = build_system(family)
    i, j = system.position[LambdaIndex.of([0])], system.position[LambdaIndex.of([0, 1])]
    vm = list(system.bond(i, j))
    index_of = {e: k for k, e in enumerate(system.levels[j].elements)}
    # three vertices over point 0 onto the three vertices of the hollow triangle
    for elements, target in (((0, 0), 0), ((0, 1), 1), ((0, 2), 2)):
        vm[index_of[elements]] = target
    system._bonds[(i, j)] = tuple(vm)
    report = check_simpliciality(system)
    assert report.counterexample == {"lambda": [0], "mu": [0, 1], "complex": "N"}
    assert report == full_check_simpliciality(system)


def test_cantor_d6_top_level_has_64_vertices():
    # the element product at the top has 2*4*...*64 = 2^21 tuples
    space = generate_space(CantorDepth(), 6)
    family = CoverFamily(
        tuple(generate_cover(space, Cylinders(k), cover_id=k - 1) for k in range(1, 7)),
        space,
    )
    verts = build_vertices(family, LambdaIndex.of(range(6)))
    assert len(verts) == 64
    # each point is the whole wedge of exactly one vertex
    assert sorted(p for w in verts.values() for p in members(w)) == list(space.points)

