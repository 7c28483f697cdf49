from __future__ import annotations

import importlib.util
import json
import re
import sys
from fractions import Fraction
from itertools import combinations
from pathlib import Path

import pytest
from hypothesis import example, given, strategies as st

from conftest import (
    build_level,
    family_and_lambda,
    level_flag,
    level_nerve,
    planted_triangles,
    pointset_family,
)
from oracles import (
    BarycentricPoint,
    brute_flag_simplices,
    brute_nerve_simplices,
    brute_vertices,
    clique_number,
    complex_from_json,
    convex_combination,
    fiber_subset_nerve,
    from_maximal,
    k_simplices,
    maximal_simplices,
    point_mask,
    product_weights,
    pruned_nerve,
    push_point,
    recursive_all_cliques,
    set_clique_flag,
    skeleton_adjacency,
    top_dim,
    two_search_build,
    vertex_point,
)
from nervelim.complexes import (
    _CHUNK,
    _TAIL,
    DEFAULT_MAX_DIM,
    LambdaIndex,
    _all_cliques,
    _level_name,
    build_complexes,
    build_flag,
    build_vertices,
    carrier_wedge,
    complex_to_json,
    maximal_cliques,
    point_fibers,
    skeleton_dot,
    wedge_adjacency,
)
from nervelim.errors import GuardExceeded
from nervelim.ground import (
    Arcs,
    CantorDepth,
    CircleGrid,
    CoverFamily,
    Cylinders,
    DyadicIntervals,
    GroundSpace,
    IntervalGrid,
    cover_from_pointsets,
    generate_cover,
    generate_space,
)
from nervelim.report import row_steps
from nervelim.systems import build_system

F = Fraction
ROOT = Path(__file__).resolve().parent.parent
_TRIANGLE = [[{0, 1}, {1, 2}, {0, 2}]]  # wedges meet pairwise, not all three


@pytest.fixture(scope="module")
def scale_systems():
    """The benchmark's three families as ``perfbench/inputs.py`` builds them
    before it permutes their labels, all levels at ``--max-dim 16``, with
    cantor-d6 as its chain; and circle-48 (arcs 3/6/12/24, no overlap),
    all 15 levels, whose top complexes have 197,472 simplices."""
    spec = importlib.util.spec_from_file_location("benchmark_inputs", ROOT / "perfbench" / "inputs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    families = dict(module.FAMILIES)
    space = generate_space(CircleGrid(), 48)
    arcs = tuple(generate_cover(space, Arcs(n, F(0)), cover_id=i) for i, n in enumerate((3, 6, 12, 24)))
    families["circle-48"] = lambda: CoverFamily(arcs, space)
    out = {}
    for name, make in families.items():
        family = make()
        chain = [LambdaIndex.of(range(k)) for k in range(1, len(family.covers) + 1)]
        out[name] = build_system(family, chain if name == "cantor-d6" else None, 16)
    return out


@pytest.fixture(scope="module")
def thick_top(scale_systems):
    return scale_systems["circle-24-thick"].levels[-1]


@pytest.fixture(scope="module")
def arcs3_family():
    space = generate_space(CircleGrid(), 12)
    cover = generate_cover(space, Arcs(3, F(1, 4)), cover_id=0)
    return CoverFamily((cover,), space)


# ---------------------------------------------------------------------------
# indices


def test_lambda_index_normalization():
    lam = LambdaIndex.of([2, 0, 2])
    assert lam.cover_ids == (0, 2)
    with pytest.raises(ValueError):
        LambdaIndex.of([])
    with pytest.raises(ValueError):
        LambdaIndex((1, 0))


def test_lambda_index_subset_order(cantor_system):
    a, b, c = LambdaIndex.of([0]), LambdaIndex.of([0, 1]), LambdaIndex.of([1])
    assert sorted([b, a, c], key=lambda l: l.sort_key) == [a, c, b]
    # the order by inclusion is held by the system, over level positions
    i, j, k = (cantor_system.position[lam] for lam in (a, b, c))
    assert j in cantor_system.above[i] and i not in cantor_system.above[j]
    assert k not in cantor_system.above[i] and i not in cantor_system.above[k]
    assert i in cantor_system.above[i]


# ---------------------------------------------------------------------------
# vertices


def test_vertices_single_cover():
    space = GroundSpace(3)
    family = pointset_family(space, [[{0, 1}, {2}]])
    verts = build_vertices(family, LambdaIndex.of([0]))
    assert list(verts.items()) == [((0,), point_mask({0, 1})), ((1,), point_mask({2}))]


def test_vertices_grid10_mixed_covers():
    space = generate_space(IntervalGrid(), 10)
    dyadic = generate_cover(space, DyadicIntervals(1, F(1, 10)), cover_id=0)
    # three intervals [0, 0.3], [0.2, 0.7], [0.6, 1] as raw point sets
    custom = cover_from_pointsets(1, [set(range(4)), set(range(2, 8)), set(range(6, 11))])
    family = CoverFamily((dyadic, custom), space)
    verts = build_vertices(family, LambdaIndex.of([0, 1]))
    assert list(verts) == [(0, 0), (0, 1), (0, 2), (1, 1), (1, 2)]


def test_vertices_cantor_nested():
    space = generate_space(CantorDepth(), 2)
    family = CoverFamily(
        (
            generate_cover(space, Cylinders(1), cover_id=0),
            generate_cover(space, Cylinders(2), cover_id=1),
        ),
        space,
    )
    verts = build_vertices(family, LambdaIndex.of([0, 1]))
    # each depth-2 cylinder pairs only with its own prefix
    assert list(verts) == [(0, 0), (0, 1), (1, 2), (1, 3)]


def test_duplicate_wedges_stay_distinct():
    space = GroundSpace(2)
    family = pointset_family(space, [[{0, 1}], [{0, 1}, {1}]])
    verts = build_vertices(family, LambdaIndex.of([0, 1]))
    assert list(verts.items()) == [((0, 0), point_mask({0, 1})), ((0, 1), point_mask({1}))]


# ---------------------------------------------------------------------------
# flag and nerve complexes


def test_flag_disjoint_wedges_zero_dimensional():
    space = GroundSpace(4)
    family = pointset_family(space, [[{0, 1}, {2, 3}]])
    cx = level_flag(build_level(family, LambdaIndex.of([0])), DEFAULT_MAX_DIM)
    assert top_dim(cx) == 0


def test_flag_pairwise_beats_triplewise():
    # three elements meeting pairwise with empty triple intersection still
    # span a filled triangle in the flag complex
    space = GroundSpace(3)
    family = pointset_family(space, [[{0, 1}, {1, 2}, {0, 2}]])
    level = build_level(family, LambdaIndex.of([0]))
    flag, nerve = level_flag(level, DEFAULT_MAX_DIM), level_nerve(level, DEFAULT_MAX_DIM)
    assert (0, 1, 2) in flag
    assert (0, 1, 2) not in nerve
    assert skeleton_adjacency(nerve) == skeleton_adjacency(flag) == level.adjacency


def test_arcs3_filled_vs_hollow_triangle(arcs3_family):
    level = build_level(arcs3_family, LambdaIndex.of([0]))
    flag, nerve = level_flag(level, DEFAULT_MAX_DIM), level_nerve(level, DEFAULT_MAX_DIM)
    assert sorted(flag, key=len)[-1] == (0, 1, 2)
    assert top_dim(nerve) == 1 and len(k_simplices(nerve, 1)) == 3
    assert k_simplices(nerve, 0) == k_simplices(flag, 0) and set(nerve) <= set(flag)


def test_nerve_common_point_full_simplex():
    space = GroundSpace(4)
    family = pointset_family(space, [[{0, 1}, {0, 2}, {0, 3}, {0}]])
    nerve = level_nerve(build_level(family, LambdaIndex.of([0])), DEFAULT_MAX_DIM)
    assert (0, 1, 2, 3) in nerve


def test_flag_guard_exceeded():
    space = GroundSpace(1)
    family = pointset_family(space, [[{0}] * 6])
    lam = LambdaIndex.of([0])
    wedges = list(build_vertices(family, lam).values())
    fibers = point_fibers(wedges, 1)
    adjacency = wedge_adjacency(fibers, len(wedges))
    # the message names the level and the size of the offending clique
    with pytest.raises(GuardExceeded, match=r"^level \{0\}: a clique of 6 vertices"):
        build_flag(lam, adjacency, 3)


@pytest.mark.parametrize("max_dim", [-2, -5])
def test_clique_guard_below_dimension_0(max_dim):
    # every clique has at least one vertex, so none fits; K6 has 63 cliques
    complete = [0b111111 & ~(1 << v) for v in range(6)]
    with pytest.raises(GuardExceeded, match=rf"\(max_dim {max_dim} allows {max_dim + 1}\)"):
        _all_cliques(complete, [-1] * 6, max_dim, "")


@st.composite
def graphs_and_masks(draw):
    """A graph on up to 8 vertices, as neighbour bitmasks, and a point
    bitmask per vertex over 4 points."""
    n = draw(st.integers(1, 8))
    edges = draw(st.sets(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))))
    adj = [0] * n
    for a, b in edges:
        if a != b:
            adj[a] |= 1 << b
            adj[b] |= 1 << a
    return adj, draw(st.lists(st.integers(0, 15), min_size=n, max_size=n))


@given(graphs_and_masks(), st.sampled_from([0, 1, 2, 30]))
def test_row_text_is_json_dumps_of_each_simplex(data, max_dim):
    # the search labelled with row_steps gives, for the flag complex and
    # the nerve alike, each simplex's json.dumps text at the indent of a
    # level file's simplices, and the nerve is the flag complex's own
    # tuple exactly when the tuple search's is; past the guard, both raise
    # one message
    adj, masks = data
    try:
        expected = _all_cliques(adj, masks, max_dim, "")
    except GuardExceeded as e:
        with pytest.raises(GuardExceeded, match=f"^{re.escape(str(e))}$"):
            _all_cliques(adj, masks, max_dim, "", row_steps(len(adj)))
        return
    flag, nerve = _all_cliques(adj, masks, max_dim, "", row_steps(len(adj)))
    for text, rows in ((flag, expected[0]), (nerve, expected[1])):
        assert list(text) == [json.dumps(list(r), indent=2).replace("\n", "\n      ") for r in rows]
    assert (nerve is flag) == (expected[1] is expected[0])


@given(graphs_and_masks(), st.sampled_from([0, 1, 2, 30]))
def test_streamed_search_hands_on_the_tuple_search_rows(data, max_dim):
    # with a flush, the search hands on the flag complex's rows, or pruned
    # the nerve's, in the tuple search's order, and says whether the nerve
    # is the flag complex; past the guard, it raises the same message
    adj, masks = data
    streams = [([], pruned) for pruned in (False, True)]
    try:
        flag, nerve = _all_cliques(adj, masks, max_dim, "")
    except GuardExceeded as e:
        with pytest.raises(GuardExceeded, match=f"^{re.escape(str(e))}$"):
            _all_cliques(adj, masks, max_dim, "", None, lambda rows: None)
        return
    for (got, pruned), rows in zip(streams, (flag, nerve)):
        same = _all_cliques(adj, masks, max_dim, "", None, lambda r: got.extend(r), pruned)
        assert got == list(rows)
        assert same == (True if pruned else nerve is flag)


@pytest.mark.parametrize("count", [_CHUNK - 1, _CHUNK, _CHUNK + 1, 2 * _CHUNK + 1])
def test_streamed_search_flushes_a_chunk_at_a_time(count):
    # an edgeless graph has one clique per vertex: they are handed on in
    # lists of _CHUNK, then the rest, and none is kept
    chunks = []
    wedges = [1] * count
    assert _all_cliques([0] * count, wedges, 0, "", None, lambda rows: chunks.append(list(rows)))
    assert [len(c) for c in chunks] == [_CHUNK] * (count // _CHUNK) + [count % _CHUNK]
    assert [r for c in chunks for r in c] == [(v,) for v in range(count)]


class Chunks(list):
    """The lists a streaming search hands on, each copied as it comes."""

    def append_copy(self, rows):
        self.append(list(rows))


def search_record(search, adj, points, max_dim, pruned=None):
    """What a clique search gives on one graph, in each of its modes: the
    simplex tuples (the flag complex, the nerve, and whether the nerve is
    the flag complex's own tuple), and the row text of ``row_steps``
    streamed, whole and pruned (every handed list, and whether the nerve
    is the flag complex).  Where the search raises, the mode gives the
    guard's message and the lists handed on before it.  ``pruned``
    restricts the streamed modes to one of the two."""
    steps = row_steps(len(adj))
    modes = [(None, None)] + [(steps, p) for p in (False, True) if pruned in (None, p)]
    for steps, p in modes:
        chunks = Chunks()
        try:
            if steps is None:
                flag, nerve = search(adj, points, max_dim, "L: ")
                yield flag, nerve, nerve is flag
            else:
                same = search(adj, points, max_dim, "L: ", steps, chunks.append_copy, p)
                yield chunks, same
        except GuardExceeded as e:
            yield str(e), chunks


def assert_block_search_matches_recursive(adj, points, max_dim, pruned=None):
    """``_all_cliques`` against ``oracles.recursive_all_cliques``, mode by
    mode: the same rows, nerve, handed lists (so their lengths) and guard
    message.  Whether the flag complex passed the guard."""
    new = search_record(_all_cliques, adj, points, max_dim, pruned)
    old = search_record(recursive_all_cliques, adj, points, max_dim, pruned)
    passed = True
    for got, expected in zip(new, old):
        assert got == expected
        passed = passed and not isinstance(got[0], str)
    return passed


@given(family_and_lambda() | planted_triangles(), st.sampled_from([0, 1, 2, 30]))
@example((pointset_family(GroundSpace(3), _TRIANGLE), _TRIANGLE), 30)
def test_block_search_matches_recursive_search(data, max_dim):
    family, lists = data
    level = build_level(family, LambdaIndex.of(range(len(lists))), max_dim)
    assert_block_search_matches_recursive(level.adjacency, level.wedges, max_dim)


@given(graphs_and_masks(), st.sampled_from([0, 1, 2, 3, 30]))
@example(([0b110, 0b001, 0b001], [1, 1, 1]), 30)
def test_block_search_matches_recursive_search_on_graphs(data, max_dim):
    # on a level, vertices that share a point are a clique; on any graph,
    # the example's candidates 1 and 2 share one and are not adjacent
    assert_block_search_matches_recursive(*data, max_dim)


def _clique(n, isolated=0, masks=None):
    """``isolated`` vertices with no edge, then a clique on n more: their
    neighbour bitmasks and point bitmasks, every vertex's point 0 unless
    ``masks`` gives the clique's."""
    adj = [0] * isolated + [((1 << n) - 1 & ~(1 << v)) << isolated for v in range(n)]
    return adj, [1] * isolated + (masks or [1] * n)


@pytest.mark.parametrize("name", ["cantor-d6", "circle-24-thick", "circle-24-3812", "circle-48"])
def test_block_search_matches_recursive_search_at_scale(scale_systems, name):
    # every level; the pruned search only where the nerve is not the flag complex
    for level in scale_systems[name].levels:
        adj, wedges = level.adjacency, level.wedges
        same = _all_cliques(adj, wedges, 16, "", None, lambda rows: None)
        assert assert_block_search_matches_recursive(adj, wedges, 16, False if same else None)


@pytest.mark.parametrize("max_dim", [4, 3])
def test_block_at_the_guard_and_one_vertex_past_it(max_dim):
    # K5: the first vertex's candidates are a clique of 4, listed as one
    # block at max_dim 4, where the block's largest clique is the guard's
    # size; at max_dim 3 it is one vertex past it, so the search recurses
    # and meets the guard
    adj, points = _clique(5)
    assert assert_block_search_matches_recursive(adj, points, max_dim) == (max_dim == 4)
    if max_dim == 3:
        with pytest.raises(GuardExceeded, match=r"^L: a clique of 5 vertices"):
            _all_cliques(adj, points, max_dim, "L: ")


@pytest.mark.parametrize("pruned", [False, True])
def test_a_candidate_clique_sharing_no_point_is_searched(pruned):
    # K4 whose last three wedges meet pairwise and share no point: no
    # block below the first vertex, and the cliques off the nerve are
    # counted, or pruned
    masks = [0b111, 0b011, 0b110, 0b101]
    adj, points = _clique(4, masks=masks)
    assert assert_block_search_matches_recursive(adj, points, 30, pruned)
    flag, nerve = _all_cliques(adj, points, 30, "")
    assert (1, 2, 3) in flag and (1, 2, 3) not in nerve and len(flag) == 15 and len(nerve) == 13
    chunks = Chunks()
    assert _all_cliques(adj, points, 30, "", None, chunks.append_copy, pruned) is pruned
    assert chunks == [list(nerve if pruned else flag)]


@pytest.mark.parametrize("isolated", [0, 1, 3, _CHUNK - 1, _CHUNK, 700])
@pytest.mark.parametrize("size", [_TAIL + 1, _TAIL + 2])
def test_a_block_across_a_chunk_boundary(isolated, size):
    # after `isolated` one-vertex rows, a clique whose first vertex's
    # candidates are a clique of _TAIL vertices (2**_TAIL - 1 rows, one
    # block that ends a chunk or crosses into the next), or one more, so
    # the search recurses once before its blocks
    adj, points = _clique(size, isolated)
    assert 2 ** _TAIL - 1 < _CHUNK
    assert assert_block_search_matches_recursive(adj, points, size, pruned=False)
    chunks = Chunks()
    assert _all_cliques(adj, points, size, "", None, chunks.append_copy)
    total = isolated + 2 ** size - 1
    assert [len(c) for c in chunks] == [_CHUNK] * (total // _CHUNK) + [total % _CHUNK]


def _assert_rows_held_under_a_chunk(search, adj, points, max_dim):
    """Stream the search's row text: every handed list holds _CHUNK rows
    but the last, which holds fewer, and at each call and return of the
    search's own functions it holds fewer than _CHUNK rows."""
    held, lengths = [], []

    def watch(frame, event, arg):
        code = frame.f_code
        if event in ("call", "return") and "out" in code.co_freevars + code.co_cellvars:
            rows = frame.f_locals.get("out")  # not yet bound as the search starts
            if rows is not None:
                held.append(len(rows))

    sys.setprofile(watch)
    try:
        search(adj, points, max_dim, "", row_steps(len(adj)), lambda rows: lengths.append(len(rows)))
    finally:
        sys.setprofile(None)
    assert held and max(held) < _CHUNK
    assert lengths[:-1] == [_CHUNK] * (len(lengths) - 1) and lengths[-1] < _CHUNK
    return sum(lengths)


@pytest.mark.parametrize("search", [_all_cliques, recursive_all_cliques])
def test_a_streaming_search_holds_fewer_rows_than_a_chunk(search, thick_top):
    # blocks that end a chunk, cross it, or fill most of one, and the top
    # level of circle-24-thick
    for isolated in (0, 3, _CHUNK - 1, 700):
        adj, points = _clique(_TAIL + 2, isolated)
        assert _assert_rows_held_under_a_chunk(search, adj, points, 30) == isolated + 2 ** (_TAIL + 2) - 1
    assert _assert_rows_held_under_a_chunk(search, thick_top.adjacency, thick_top.wedges, 16) == 24_864


def test_downward_closure_validation():
    # complexes from outside the program are checked when they are read
    for simplices in (
        [[0], [1], [2], [0, 1, 2]],  # faces missing
        [[0], [0, 1]],  # vertex 1 missing
        [[0], [1], [1, 0]],  # unsorted
        [[0], [0], [0, 1], [1]],  # a simplex repeated
        [[0], [1], [0, 1]],  # out of lexicographic order
    ):
        with pytest.raises(ValueError):
            complex_from_json({"lambda": None, "vertices": None, "simplices": simplices})
    # so is a vertex list given with its level
    for vertices in (
        [{"tuple": [0, 1], "wedge": [0]}, {"tuple": [1], "wedge": [1]}],  # two elements
        [{"tuple": [0], "wedge": []}, {"tuple": [1], "wedge": [1]}],  # empty wedge
        [{"tuple": [0], "wedge": [0]}],  # one vertex for two ids
    ):
        data = {"lambda": [0], "vertices": vertices, "simplices": [[0], [1]]}
        with pytest.raises(ValueError):
            complex_from_json(data)


# ---------------------------------------------------------------------------
# flag completion of graphs


def _graph(n, edges):
    """Per-vertex neighbour bitmasks of an undirected graph."""
    adj = [0] * n
    for a, b in edges:
        adj[a] |= 1 << b
        adj[b] |= 1 << a
    return adj


def _clique_complex(adjacency):
    return build_flag(LambdaIndex.of([0]), adjacency, DEFAULT_MAX_DIM)


def test_flag_completion_triangle():
    cx = _clique_complex(_graph(3, [(0, 1), (1, 2), (0, 2)]))
    assert (0, 1, 2) in cx


def test_flag_completion_square():
    cx = _clique_complex(_graph(4, [(0, 1), (1, 2), (2, 3), (0, 3)]))
    assert top_dim(cx) == 1 and len(k_simplices(cx, 1)) == 4


def test_flag_completion_reconstructs_generated_levels(arcs3_family):
    space = generate_space(CantorDepth(), 3)
    cylinders = CoverFamily(
        tuple(generate_cover(space, Cylinders(d), cover_id=d - 1) for d in (1, 2, 3)),
        space,
    )
    for family in (arcs3_family, cylinders):
        for k in range(1, len(family.covers) + 1):
            flag = level_flag(build_level(family, LambdaIndex.of(range(k))), DEFAULT_MAX_DIM)
            graph = _graph(len(k_simplices(flag, 0)), k_simplices(flag, 1))
            assert _clique_complex(graph) == flag


# ---------------------------------------------------------------------------
# barycentric points and carriers


def test_carrier_wedge_cases(arcs3_family):
    wedges = build_level(arcs3_family, LambdaIndex.of([0])).wedges
    assert carrier_wedge(wedges, vertex_point(0).carrier) == wedges[0]
    inside = BarycentricPoint.from_dict({0: F(1, 3), 1: F(1, 3), 2: F(1, 3)})
    assert carrier_wedge(wedges, inside.carrier) == 0
    on_edge = BarycentricPoint.from_dict({0: F(1, 2), 1: F(1, 2)})
    assert carrier_wedge(wedges, on_edge.carrier) == wedges[0] & wedges[1]
    assert carrier_wedge(wedges, on_edge.carrier).bit_count() == 3


def test_carrier_wedge_empty_exactly_off_nerve(arcs3_family):
    # barycenters of flag simplices have a nonempty carrier wedge exactly
    # when the simplex belongs to the nerve
    level = build_level(arcs3_family, LambdaIndex.of([0]))
    flag, nerve = level_flag(level, DEFAULT_MAX_DIM), level_nerve(level, DEFAULT_MAX_DIM)
    for s in flag:
        share = F(1, len(s))
        point = BarycentricPoint.from_dict({v: share for v in s})
        wedge = carrier_wedge(level.wedges, point.carrier)
        assert (wedge != 0) == (s in nerve)


def test_barycentric_validation():
    with pytest.raises(ValueError):
        BarycentricPoint.from_dict({0: F(1, 2), 1: F(1, 4)})  # sum != 1
    with pytest.raises(ValueError):
        BarycentricPoint.from_dict({0: F(3, 2), 1: F(-1, 2)})  # negative
    with pytest.raises(ValueError):
        BarycentricPoint.from_dict({})  # no carrier
    with pytest.raises(ValueError):
        BarycentricPoint((1, 0), ((1, F(1, 2)), (0, F(1, 2))))  # unsorted
    p = BarycentricPoint.from_dict({0: F(1, 2), 2: F(1, 2)})
    assert p.carrier == (0, 2)
    assert p.coords == ((0, F(1, 2)), (2, F(1, 2)))


def test_convex_combination_endpoints():
    a = vertex_point(0)
    b = BarycentricPoint.from_dict({1: F(1, 2), 2: F(1, 2)})
    assert convex_combination(F(0), a, b) == b
    assert convex_combination(F(1), a, b) == a
    mid = convex_combination(F(1, 2), a, b)
    assert mid.carrier == (0, 1, 2)
    assert dict(mid.coords)[0] == F(1, 2) and dict(mid.coords)[1] == F(1, 4)


# ---------------------------------------------------------------------------
# vertex maps


def test_simplicial_map_push_and_compose():
    point = BarycentricPoint.from_dict({0: F(1, 3), 1: F(2, 3)})
    to_point, swap = (0, 0, 0), (1, 0, 2)
    assert push_point(to_point, point) == vertex_point(0)
    swapped = push_point(swap, point)
    assert swapped == BarycentricPoint.from_dict({0: F(2, 3), 1: F(1, 3)})
    # pushing along a composite is pushing along each map in turn
    composite = tuple(to_point[v] for v in swap)
    assert push_point(composite, point) == push_point(to_point, swapped)


# ---------------------------------------------------------------------------
# product weights (the oracle of the canonical map)


def test_product_weights_single_cover_verbatim():
    space = generate_space(IntervalGrid(), 10)
    family = CoverFamily(
        (generate_cover(space, DyadicIntervals(1, F(1, 10)), cover_id=0),), space
    )
    lam = LambdaIndex.of([0])
    verts = list(build_vertices(family, lam))
    w = product_weights(family, lam, verts, 5)
    assert w[verts[0]] == F(1, 2) and w[verts[1]] == F(1, 2)
    w0 = product_weights(family, lam, verts, 0)
    assert w0[verts[0]] == 1 and w0[verts[1]] == 0


def test_product_weights_unique_vertex():
    space = generate_space(CantorDepth(), 2)
    family = CoverFamily(
        (
            generate_cover(space, Cylinders(1), cover_id=0),
            generate_cover(space, Cylinders(2), cover_id=1),
        ),
        space,
    )
    lam = LambdaIndex.of([0, 1])
    w = product_weights(family, lam, list(build_vertices(family, lam)), 0)
    assert sorted(w.values(), reverse=True) == [1, 0, 0, 0]


def test_product_weights_multiply_and_sum_to_one():
    space = generate_space(IntervalGrid(), 10)
    family = CoverFamily(
        (
            generate_cover(space, DyadicIntervals(1, F(1, 10)), cover_id=0),
            generate_cover(space, DyadicIntervals(2, F(1, 10)), cover_id=1),
        ),
        space,
    )
    lam = LambdaIndex.of([0, 1])
    verts = build_vertices(family, lam)
    fibers = point_fibers(list(verts.values()), space.n_points)
    for x in space.points:
        w = product_weights(family, lam, list(verts), x)
        assert sum(w.values()) == 1
        # x's fiber is every pair of elements holding x, one per cover
        holding = [sum(x in e.pointset for e in c.elements) for c in family.covers]
        assert len(fibers[x]) == holding[0] * holding[1]
        for vid, (v, wedge) in enumerate(verts.items()):
            assert w[v] == (F(1, len(fibers[x])) if vid in fibers[x] else 0)
            if w[v] > 0:
                assert wedge >> x & 1


# ---------------------------------------------------------------------------
# brute-force cross-checks


@given(family_and_lambda())
def test_complexes_match_brute_force(data):
    family, lists = data
    lam = LambdaIndex.of(range(len(lists)))
    pointsets = [[frozenset(s) for s in sets] for sets in lists]
    expected_vertices = brute_vertices(pointsets)
    verts = build_vertices(family, lam)
    masks = [(c, point_mask(w)) for c, w in expected_vertices]
    assert list(verts.items()) == masks

    wedges = [w for _, w in expected_vertices]
    level = build_level(family, lam, max_dim=30)
    nerve, flag = level_nerve(level, 30), level_flag(level, 30)
    assert set(nerve) == brute_nerve_simplices(wedges, len(wedges))
    assert set(flag) == brute_flag_simplices(wedges, len(wedges))
    assert set(nerve) <= set(flag)
    assert skeleton_adjacency(nerve) == skeleton_adjacency(flag) == level.adjacency


@given(family_and_lambda() | planted_triangles(), st.sampled_from([0, 1, 30]))
@example((pointset_family(GroundSpace(3), _TRIANGLE), _TRIANGLE), 30)
@example((pointset_family(GroundSpace(3), _TRIANGLE), _TRIANGLE), 1)
def test_clique_search_matches_set_builders(data, max_dim):
    # one search builds both complexes, in lexicographic order; the set
    # builders it replaced are the oracle, guard messages included.  The
    # nerve meets the flag complex's guard, and the pruned nerve of the
    # oracles the guard of its fibers.  The maximal cliques, each listed
    # once, are the set-built complex's maximal simplices, and past the
    # guard they raise the flag complex's message
    family, lists = data
    lam = LambdaIndex.of(range(len(lists)))
    wedges = list(build_vertices(family, lam).values())
    fibers = point_fibers(wedges, family.ground.n_points)
    adjacency = wedge_adjacency(fibers, len(wedges))
    where = _level_name(lam) + ": "

    def guarded_nerve():
        set_clique_flag(adjacency, max_dim, where)  # raises at the flag complex's guard
        return fiber_subset_nerve(fibers, max_dim, where)

    cases = [
        (lambda: build_flag(lam, adjacency, max_dim),
         lambda: set_clique_flag(adjacency, max_dim, where)),
        (lambda: tuple(sorted(maximal_cliques(lam, adjacency, max_dim))),
         lambda: maximal_simplices(set_clique_flag(adjacency, max_dim, where))),
        (lambda: build_complexes(lam, adjacency, wedges, max_dim)[1], guarded_nerve),
        (lambda: pruned_nerve(lam, adjacency, fibers, max_dim),
         lambda: fiber_subset_nerve(fibers, max_dim, where)),
    ]
    for build, oracle in cases:
        try:
            expected = tuple(sorted(oracle()))
        except GuardExceeded as e:
            with pytest.raises(GuardExceeded, match=f"^{re.escape(str(e))}$"):
                build()
            continue
        cx = build()
        assert isinstance(cx, tuple) and all(a < b for a, b in zip(cx, cx[1:]))
        assert cx == expected


def assert_one_search_matches_two(lam, adjacency, wedges, fibers, max_dim):
    """``build_complexes`` on the vertices' wedges against the two-search
    oracle on their point fibers: the same pair, the nerve the flag
    complex's own tuple exactly when the two are equal, and the same guard
    message where the oracle raises.  Whether the nerve is the flag
    complex's tuple, or None past the guard."""
    try:
        expected = two_search_build(lam, adjacency, fibers, max_dim)
    except GuardExceeded as e:
        with pytest.raises(GuardExceeded, match=f"^{re.escape(str(e))}$"):
            build_complexes(lam, adjacency, wedges, max_dim)
        return None
    flag, nerve = build_complexes(lam, adjacency, wedges, max_dim)
    assert (flag, nerve) == expected
    assert (nerve is flag) == (nerve == flag)
    return nerve is flag


@given(family_and_lambda() | planted_triangles(), st.sampled_from([0, 1, 30]))
@example((pointset_family(GroundSpace(3), _TRIANGLE), _TRIANGLE), 30)
@example((pointset_family(GroundSpace(3), _TRIANGLE), _TRIANGLE), 1)
@example((pointset_family(GroundSpace(2), [[{0, 1}, {0}]]), [[{0, 1}, {0}]]), 30)
def test_one_search_matches_two_searches(data, max_dim):
    # the triangle's nerve is not its flag complex; two wedges that share
    # a point give a nerve that is
    family, lists = data
    lam = LambdaIndex.of(range(len(lists)))
    wedges = list(build_vertices(family, lam).values())
    fibers = point_fibers(wedges, family.ground.n_points)
    assert_one_search_matches_two(lam, wedge_adjacency(fibers, len(wedges)), wedges, fibers, max_dim)


def test_one_search_matches_two_searches_on_presets(preset_systems):
    shared = [
        assert_one_search_matches_two(
            level.lam, level.adjacency, level.wedges, level.fibers, system.max_dim
        )
        for _, _, system in preset_systems.values()
        for level in system.levels
    ]
    # both cases occur: nerves that are their flag complexes and nerves that are not
    assert True in shared and False in shared


@pytest.mark.parametrize("max_dim", [0, 1, 2, 3])
def test_one_search_guard_matches_two_searches_on_circle_24_thick(max_dim):
    # every level of the benchmark's circle-24-thick family, in build's
    # order: the first guard message is the flag complex's, as before.  On
    # each level the maximal cliques are the flag complex's maximal
    # simplices, or raise its message past the guard
    space = generate_space(CircleGrid(), 24)
    arcs = ((3, F(1)), (6, F(1, 4)), (12, F(1, 4)))
    family = CoverFamily(
        tuple(generate_cover(space, Arcs(n, o), cover_id=i) for i, (n, o) in enumerate(arcs)),
        space,
    )
    levels = build_system(family, None, max_dim).levels
    raised = []
    for build in (
        lambda lv: two_search_build(lv.lam, lv.adjacency, lv.fibers, max_dim),
        lambda lv: build_complexes(lv.lam, lv.adjacency, lv.wedges, max_dim),
    ):
        with pytest.raises(GuardExceeded) as e:
            for level in levels:
                build(level)
        raised.append(str(e.value))
    assert raised[0] == raised[1]
    assert raised[0].endswith(f"exceeds the dimension guard (max_dim {max_dim} allows {max_dim + 1})")
    for level in levels:
        assert_one_search_matches_two(
            level.lam, level.adjacency, level.wedges, level.fibers, max_dim
        )
        try:
            flag = level_flag(level, max_dim)
        except GuardExceeded as e:
            with pytest.raises(GuardExceeded, match=f"^{re.escape(str(e))}$"):
                maximal_cliques(level.lam, level.adjacency, max_dim)
            continue
        cliques = maximal_cliques(level.lam, level.adjacency, max_dim)
        assert sorted(cliques) == sorted(maximal_simplices(flag)), level.lam


@given(family_and_lambda() | planted_triangles())
@example((pointset_family(GroundSpace(3), _TRIANGLE), _TRIANGLE))
def test_clique_number_is_the_longest_flag_simplex(data):
    family, lists = data
    lam = LambdaIndex.of(range(len(lists)))
    wedges = list(build_vertices(family, lam).values())
    adjacency = wedge_adjacency(point_fibers(wedges, family.ground.n_points), len(wedges))
    width = max(map(len, build_flag(lam, adjacency, 30)))
    assert max(map(len, maximal_cliques(lam, adjacency, 30))) == width
    # the search stops at the first clique of cap vertices
    for cap in range(1, width + 2):
        assert clique_number(adjacency, cap) == min(width, cap)


def test_clique_search_matches_set_builders_on_presets(preset_systems):
    for _, family, system in preset_systems.values():
        for level in system.levels:
            flag = set_clique_flag(level.adjacency, system.max_dim)
            nerve = fiber_subset_nerve(level.fibers, system.max_dim)
            built = (level_flag(level, system.max_dim), level_nerve(level, system.max_dim))
            assert built == (tuple(sorted(flag)), tuple(sorted(nerve)))
            cliques = maximal_cliques(level.lam, level.adjacency, system.max_dim)
            assert sorted(cliques) == sorted(maximal_simplices(flag))


@given(family_and_lambda())
def test_downward_closure_and_flag_tag(data):
    family, lists = data
    level = build_level(family, LambdaIndex.of(range(len(lists))), max_dim=30)
    flag = level_flag(level, 30)
    for cx in (flag, level_nerve(level, 30)):
        assert all((v,) in cx for v in range(len(level.wedges)))
        for s in cx:
            for k in range(1, len(s)):
                for face in combinations(s, k):
                    assert face in cx
    # every clique of the 1-skeleton is a simplex
    adj = skeleton_adjacency(flag)
    for s in flag:
        assert all(adj[a] >> b & 1 for a, b in combinations(s, 2))


# ---------------------------------------------------------------------------
# serialization


def test_complex_json_round_trip(arcs3_family):
    lam = LambdaIndex.of([0])
    level = build_level(arcs3_family, lam)
    flag = level_flag(level, DEFAULT_MAX_DIM)
    data = complex_to_json(lam, level.elements, level.wedges, flag, True)
    again = complex_from_json(data)
    assert again == flag
    assert data["flag"] is True and data["lambda"] == [0]
    assert tuple(tuple(v["tuple"]) for v in data["vertices"]) == level.elements
    assert tuple(point_mask(v["wedge"]) for v in data["vertices"]) == level.wedges


def test_complex_json_without_vertices():
    cx = from_maximal(3, [(0, 1), (1, 2)])
    data = {"lambda": None, "vertices": None, "simplices": [[0], [0, 1], [1], [1, 2], [2]]}
    assert complex_from_json(data) == cx


def test_skeleton_dot(arcs3_family):
    level = build_level(arcs3_family, LambdaIndex.of([0]))
    dot = skeleton_dot(level.adjacency, "L0")
    assert dot.startswith("graph L0 {")
    edges = [
        tuple(map(int, line.strip(" ;").split(" -- "))) for line in dot.splitlines() if "--" in line
    ]
    assert edges == k_simplices(level_flag(level, DEFAULT_MAX_DIM), 1) == [(0, 1), (0, 2), (1, 2)]
