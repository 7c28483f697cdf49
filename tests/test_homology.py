from __future__ import annotations

from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from conftest import build_level, family_and_lambda, level_flag, level_nerve, planted_triangles
from oracles import (
    basis_gf2_rank,
    boundary_composition_is_zero,
    clique_number,
    cycle_complex,
    discrete_complex,
    from_maximal,
    full_betti_stabilization,
    k_simplices,
    path_complex,
    pruned_core_nerve,
    sphere_boundary_complex,
    sympy_betti,
    top_dim,
    wedge_graph_complex,
)
from nervelim.complexes import DEFAULT_MAX_DIM, LambdaIndex, maximal_cliques
from nervelim.ground import (
    Arcs,
    CircleGrid,
    CoverFamily,
    GroundSpace,
    cover_from_pointsets,
    generate_cover,
    generate_space,
)
from nervelim.homology import (
    betti,
    betti_stabilization,
    boundary_matrix,
    drop_dominated,
    flag_core,
    gf2_rank,
    gf2_reduce,
    nerve_core,
)
from nervelim.systems import build_system

F = Fraction


def test_single_simplex_is_acyclic():
    cx = from_maximal(4, [(0, 1, 2, 3)])
    assert betti(cx).numbers == (1, 0, 0, 0)


def test_hollow_triangle_is_a_circle():
    assert betti(cycle_complex(3)).numbers == (1, 1)


def test_sphere_boundary():
    assert betti(sphere_boundary_complex()).numbers == (1, 0, 1)


def test_components_counted_by_b0():
    assert betti(discrete_complex(5)).numbers == (5,)
    two = from_maximal(4, [(0, 1), (2, 3)])
    assert betti(two).numbers == (2, 0)


def test_wedge_graph_oracle():
    assert betti(wedge_graph_complex(2, 12)).numbers == (1, 2)
    assert betti(wedge_graph_complex(3, 5)).numbers == (1, 3)


def test_path_oracle():
    assert betti(path_complex(9)).numbers == (1, 0)


def test_fine_arc_nerve_matches_cycle_oracle():
    space = generate_space(CircleGrid(), 24)
    family = CoverFamily((generate_cover(space, Arcs(24, F(1, 4)), cover_id=0),), space)
    nerve = level_nerve(build_level(family, LambdaIndex.of([0])), DEFAULT_MAX_DIM)
    assert betti(nerve).numbers == betti(cycle_complex(24)).numbers == (1, 1)


def test_boundary_matrix_shape():
    cx = cycle_complex(3)
    m = boundary_matrix(k_simplices(cx, 0), k_simplices(cx, 1))
    assert m.cols == ((0, 1), (0, 2), (1, 2)) and len(m.column_bits) == 3
    assert gf2_rank(list(m.column_bits)) == 2


def test_boundary_squared_is_zero_on_presets(preset_systems):
    for name, (_, _, system) in preset_systems.items():
        for level in system.levels:
            for cx in (level_nerve(level, system.max_dim), level_flag(level, system.max_dim)):
                for k in range(1, top_dim(cx) + 1):
                    assert boundary_composition_is_zero(cx, k), (name, level.lam, k)


def test_boundary_squared_is_zero_explicit():
    for cx in (sphere_boundary_complex(), wedge_graph_complex(2, 4)):
        for k in range(1, top_dim(cx) + 1):
            assert boundary_composition_is_zero(cx, k)


def test_rank_matches_sympy_oracle(preset_systems):
    _, _, system = preset_systems["circle-a3612"]
    for level in system.levels:
        for cx in (level_nerve(level, system.max_dim), level_flag(level, system.max_dim)):
            assert betti(cx).numbers == sympy_betti(cx), level.lam


@st.composite
def random_complexes(draw):
    n = draw(st.integers(1, 9))
    facet = st.lists(st.integers(0, n - 1), min_size=1, max_size=n, unique=True)
    return from_maximal(n, draw(st.lists(facet, min_size=1, max_size=6)))


@settings(deadline=None)
@given(
    st.one_of(
        random_complexes(),
        st.sampled_from(
            [sphere_boundary_complex(), from_maximal(5, combinations(range(5), 4))]
        ),
    )
)
def test_pivot_rank_matches_basis_rank_and_sympy(cx):
    for k in range(1, top_dim(cx) + 1):
        bits = list(boundary_matrix(k_simplices(cx, k - 1), k_simplices(cx, k)).column_bits)
        assert gf2_rank(bits) == basis_gf2_rank(bits), k
    assert betti(cx).numbers == sympy_betti(cx)


@given(
    st.lists(
        st.one_of(st.just(0), st.integers(1, 15), st.integers(0, 2**40 - 1)), max_size=30
    )
)
def test_pivot_rank_on_bitmasks_with_zeros_and_repeats(vectors):
    vectors += vectors[::2]
    assert gf2_rank(vectors) == basis_gf2_rank(vectors)


@given(
    st.lists(
        st.one_of(st.just(0), st.integers(1, 15), st.integers(0, 2**12 - 1)), max_size=20
    )
)
def test_reduction_kernel_is_a_basis(vectors):
    # each kernel vector names input positions whose vectors sum to zero;
    # there are n - rank of them, and they are independent
    vectors += vectors[::3]
    rank, kernel = gf2_reduce(vectors)
    assert rank == gf2_rank(vectors) == basis_gf2_rank(vectors)
    assert len(kernel) == len(vectors) - rank
    assert basis_gf2_rank(kernel) == len(kernel)
    for combo in kernel:
        total = 0
        for i, v in enumerate(vectors):
            if combo >> i & 1:
                total ^= v
        assert total == 0 and combo


@given(st.randoms(use_true_random=False))
def test_betti_invariant_under_relabeling(rng):
    cx = wedge_graph_complex(2, 5)
    perm = list(range(len(k_simplices(cx, 0))))
    rng.shuffle(perm)
    relabeled = frozenset(tuple(sorted(perm[v] for v in s)) for s in cx)
    assert betti(relabeled).numbers == betti(cx).numbers


# ---------------------------------------------------------------------------
# stabilization tables


def _chain(system, preset):
    """The positions of the preset's chain levels in the system."""
    return [system.position[LambdaIndex.of(ids)] for ids in preset.chain]


def test_interval_chain_stabilizes_contractible(preset_systems):
    from nervelim.presets import PRESETS

    _, _, system = preset_systems["interval-g8"]
    table = betti_stabilization(system, _chain(system, PRESETS["interval-g8"]))
    assert table.nerve_stabilized
    nerve_rows = [r for r in table.rows if r.complex_kind == "N"]
    assert nerve_rows[-1].bettis.padded(3) == (1, 0, 0)
    assert [b.ranks[:2] for b in table.bonds] == [(1, 0), (1, 0)]
    assert betti(path_complex(9)).padded(3) == (1, 0, 0)


def test_circle_chain_nerve_vs_flag(preset_systems):
    from nervelim.presets import PRESETS

    _, _, system = preset_systems["circle-a3612"]
    table = betti_stabilization(system, _chain(system, PRESETS["circle-a3612"]))
    nerve_rows = [r for r in table.rows if r.complex_kind == "N"]
    flag_rows = [r for r in table.rows if r.complex_kind == "F"]
    assert [r.bettis.padded(2) for r in nerve_rows] == [(1, 1)] * 3
    # the coarse flag complex is a filled triangle
    assert flag_rows[0].bettis.padded(2) == (1, 0)
    assert flag_rows[1].bettis.padded(2) == (1, 1)
    assert table.nerve_stabilized
    assert betti(cycle_complex(12)).padded(2) == (1, 1)


def test_wedge_chain(preset_systems):
    from nervelim.presets import PRESETS

    _, _, system = preset_systems["wedge2"]
    table = betti_stabilization(system, _chain(system, PRESETS["wedge2"]))
    nerve_rows = [r for r in table.rows if r.complex_kind == "N"]
    assert nerve_rows[-1].bettis.padded(3) == (1, 2, 0)
    assert table.nerve_stabilized
    assert betti(wedge_graph_complex(2, 12)).padded(3) == (1, 2, 0)


def test_cantor_deepest_component_count(preset_systems):
    from nervelim.presets import PRESETS

    _, _, system = preset_systems["cantor-d3"]
    table = betti_stabilization(system, _chain(system, PRESETS["cantor-d3"]))
    nerve_rows = [r for r in table.rows if r.complex_kind == "N"]
    assert [r.bettis.numbers[0] for r in nerve_rows] == [2, 4, 8]
    # each bond is onto H_0 and merges the components in pairs
    assert [b.ranks for b in table.bonds] == [(2,), (4,)]
    assert not table.nerve_stabilized
    assert betti(discrete_complex(8)).numbers == (8,)


def test_stabilization_requires_increasing_chain(preset_systems):
    _, _, system = preset_systems["cantor-d3"]
    chain = [system.position[LambdaIndex.of(ids)] for ids in ([0, 1], [2])]
    with pytest.raises(ValueError):
        betti_stabilization(system, chain)


def test_stabilization_csv(preset_systems):
    from nervelim.presets import PRESETS

    _, _, system = preset_systems["interval-g8"]
    table = betti_stabilization(system, _chain(system, PRESETS["interval-g8"]))
    lines = table.csv().strip().splitlines()
    assert lines[0] == "level,complex,b0,b1,b2"
    assert lines[1] == "0,N,1,0,0"
    assert len(lines) == 7


def test_circle_24_3812_chain_table():
    # 24 circle points; arcs 3/8/12 with overlaps 1/2, 1/4, 1/4; the top
    # nerve and flag complex have 5,088 simplices each
    space = generate_space(CircleGrid(), 24)
    arcs = ((3, F(1, 2)), (8, F(1, 4)), (12, F(1, 4)))
    family = CoverFamily(
        tuple(generate_cover(space, Arcs(n, o), cover_id=i) for i, (n, o) in enumerate(arcs)),
        space,
    )
    chain = [LambdaIndex.of(range(i + 1)) for i in range(3)]
    system = build_system(family, chain, max_dim=16)
    table = betti_stabilization(system, [0, 1, 2])
    # each core is a point or a hollow polygon
    assert [len(nerve_core(level, 16).cx) for level in system.levels] == [1, 16, 32]
    assert [len(level_flag_core(level, 16)) for level in system.levels] == [1, 16, 32]
    assert [r.bettis.numbers for r in table.rows] == [
        (1, 0, 0),
        (1, 0, 0),
        (1, 1, 0, 0, 0, 0),
        (1, 1, 0, 0, 0, 0),
        (1, 1) + (0,) * 10,
        (1, 1) + (0,) * 10,
    ]
    assert [b.ranks for b in table.bonds] == [(1,) + (0,) * 5, (1, 1) + (0,) * 10]
    assert table.nerve_stabilized


# ---------------------------------------------------------------------------
# cores, against the full complexes


def level_flag_core(level, max_dim):
    """The flag core of ``level`` on the level graph's maximal cliques, as
    ``betti_stabilization`` builds it."""
    return flag_core(level, maximal_cliques(level.lam, level.adjacency, max_dim), max_dim)


def test_domination_keeps_the_lower_of_equal_rows():
    # rows 1 and 3 are equal, row 0 lies inside row 2, row 4 inside no other
    rows = [0b001, 0b110, 0b011, 0b110, 0b1000]
    cols = [sum(1 << r for r, row in enumerate(rows) if row >> c & 1) for c in range(4)]
    dominator = {}
    left = drop_dominated(rows, cols, 0b11111, dominator)
    assert left == 0b10110 and dominator == {0: 2, 3: 1}


def test_flag_collapse_reads_closed_neighbourhoods():
    # the path 0 - 1 - 2: the ends' closed neighbourhoods lie inside the
    # middle's, so the core is a point.  Read as open neighbourhoods, only
    # the two ends' are comparable, and the core would keep an edge
    level = build_level(
        CoverFamily(
            (cover_from_pointsets(0, [frozenset({0, 1}), frozenset({1, 2}), frozenset({2, 3})]),),
            GroundSpace(4),
        ),
        LambdaIndex.of([0]),
    )
    assert level_flag_core(level, 8) == ((0,),)


def _increasing_pairs(system):
    return [[i, j] for i, up in enumerate(system.above) for j in up if i != j]


def _assert_cores_match_full_complexes(system, chains):
    for chain in chains:
        assert betti_stabilization(system, chain).to_json() == full_betti_stabilization(
            system, chain
        ), [system.levels[i].lam for i in chain]


def test_cores_match_full_complexes_on_presets(preset_systems):
    from nervelim.presets import PRESETS

    for name, (_, _, system) in preset_systems.items():
        chains = [_chain(system, PRESETS[name])] + _increasing_pairs(system)
        chains += [[i] for i in range(len(system.levels))]
        _assert_cores_match_full_complexes(system, chains)


@given(family_and_lambda() | planted_triangles())
def test_cores_match_full_complexes_on_generated_families(data):
    family, _ = data
    system = build_system(family, max_dim=30)
    chains = _increasing_pairs(system) + [[i] for i in range(len(system.levels))]
    _assert_cores_match_full_complexes(system, chains)


def _assert_core_nerves_match_pruned_search(system, max_dim):
    # on each level inside the guard, as betti_stabilization builds cores
    for level in system.levels:
        if clique_number(level.adjacency, max_dim + 2) <= max_dim + 1:
            core = nerve_core(level, max_dim)
            assert core.cx == pruned_core_nerve(level, core.vertices, max_dim), level.lam


def test_core_nerves_match_pruned_search_on_presets(preset_systems):
    for _, _, system in preset_systems.values():
        _assert_core_nerves_match_pruned_search(system, system.max_dim)


@given(family_and_lambda() | planted_triangles(), st.sampled_from([0, 1, 30]))
def test_core_nerves_match_pruned_search_on_generated_families(data, max_dim):
    family, _ = data
    _assert_core_nerves_match_pruned_search(build_system(family, max_dim=max_dim), max_dim)


def test_cores_are_subcomplexes_retracted_onto(preset_systems):
    # the nerve core lies in the nerve; its retraction fixes it and maps
    # every point fiber, so every nerve simplex, onto a core simplex
    for _, (_, _, system) in preset_systems.items():
        for level in system.levels:
            core = nerve_core(level, system.max_dim)
            nerve, cx = set(level_nerve(level, system.max_dim)), set(core.cx)
            assert {tuple(core.vertices[c] for c in s) for s in cx} <= nerve
            assert [core.retraction[v] for v in core.vertices] == list(range(len(core.vertices)))
            for fiber in level.fibers:
                assert tuple(sorted({core.retraction[v] for v in fiber})) in cx
            assert len(level_flag_core(level, system.max_dim)) <= len(level_flag(level, system.max_dim))


def test_core_ranks_match_sympy_oracle(preset_systems):
    _, _, system = preset_systems["circle-a3612"]
    for level in system.levels:
        for core, full in (
            (nerve_core(level, system.max_dim).cx, level_nerve(level, system.max_dim)),
            (level_flag_core(level, system.max_dim), level_flag(level, system.max_dim)),
        ):
            assert betti(core).numbers == sympy_betti(core), level.lam
            assert betti(core).agrees_with(betti(full).numbers), level.lam
