"""Per-point and per-net queries against the scans they replaced.

Canonical maps come from point fibers, and the class adjacency of the
thread quotient comes from star bitmasks.  ``oracles`` keeps the old
scans (the canonical map as product weights over every vertex of the
level, the class adjacency by every pair of member threads), and these
tests require the same results on generated families and the same
reports on every preset.

``fiber_homotopy`` and ``cauchy_sweep`` are decided exactly.  ``oracles``
keeps the seeded samplers they replaced (whose Cauchy sampler and sweep
test each distinct net once, and whose ``converge`` searches only the
closed star of the net's top vertex, against the scans before them), and
these tests require the sampled verdicts to equal the exact ones.
``quotient_comparison`` is decided by its bijection test alone;
``oracles.full_compare_quotient_to_ground`` keeps the tests it made after
that one, and these tests require the same reports on the presets, the
benchmark families, generated families and a seeded sweep of random
systems.  With one fiber tampered, the two may differ, but only where
``flag_reconstruction`` fails.  ``star_conditions`` and the thread
relation read the top level alone; ``oracles`` keeps their scans of
every level, and these tests require equal results on the presets, the
benchmark families, circle-48, generated families and a seeded sweep of
random systems, and the two checks to give one verdict.  ``fibers``
reads each vertex thread's image once; on the same systems, and on
random systems with one bond entry moved, it must report what
``oracles.thread_scan_check_fibers``, its scan of every thread for every
point, reports, and ``fiber_escape`` must name the pair that
``oracles.tuple_scan_fiber_escape``, its lookup in the fibers' tuples,
names.  The
benchmark families built here also check Betti stabilization on the cores
against the full complexes, and the flag reconstruction and skeleton
checks against rebuilding and comparing every complex.  The readers of
maximal cliques, ``check_nerve_absorption`` and the flag core, are held
to the check on whole flag complexes and to the closed-neighbourhood
core of ``oracles`` on generated families, the presets, the benchmark
families and circle-48.

Each vertex's wedge is a point bitmask.  ``oracles.element_wedges`` reads
it as a point set, the intersection of the chosen elements' point sets,
and these tests require every reader of the masks (the vertices,
``carrier_wedge`` and ``thread_image``) to agree with it.
"""

from __future__ import annotations

import importlib.util
import random
import re
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import assume, given, strategies as st

import oracles
from conftest import family_and_lambda, level_flag, level_nerve, planted_triangles
from oracles import (
    BarycentricPoint,
    canonical_point,
    clique_number,
    converge,
    element_wedges,
    every_level_star_conditions,
    full_betti_stabilization,
    full_check_flag_reconstruction,
    full_check_nerve_absorption,
    full_check_skeleton_equality,
    full_compare_quotient_to_ground,
    graph_flag_core,
    is_cauchy,
    non_max_levels,
    pair_scan_equivalence_classes,
    pairwise_class_adjacency,
    pairwise_is_cauchy,
    perturbed_thread_net,
    point_image,
    point_thread,
    pruned_core_nerve,
    sample_cauchy_nets,
    sampled_cauchy_sweep,
    sampled_check_homotopy,
    scan_ball,
    scan_canonical_map,
    scan_converge,
    sweep_every_net,
    thread_scan_check_fibers,
    thread_scan_star_conditions,
    triple_scan_equivalence_classes,
    tuple_scan_fiber_escape,
    two_search_build,
    vertex_thread,
    vertex_threads,
)
from nervelim.errors import GuardExceeded, PreconditionUnmet
from nervelim.cells import (
    cauchy_sweep,
    check_star_conditions,
    compare_quotient_to_ground,
    equivalence_classes,
)
from nervelim.complexes import (
    LambdaIndex,
    build_complexes,
    carrier_wedge,
    graph_edges,
    maximal_cliques,
    members,
)
from nervelim.ground import (
    Arcs,
    CantorDepth,
    CircleGrid,
    CoverFamily,
    GroundSpace,
    IntervalGrid,
    WedgeOfCircles,
    ball_neighborhoods,
    cover_from_pointsets,
    generate_cover,
    generate_space,
)
from nervelim.homology import betti, betti_stabilization, flag_core, nerve_core
from nervelim.presets import PRESETS
from nervelim.systems import (
    all_lambdas,
    build_system,
    canonical_map,
    canonical_thread,
    check_fibers,
    check_flag_reconstruction,
    check_homotopy,
    check_nerve_absorption,
    check_skeleton_equality,
    fiber_escape,
    thread_image,
)


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
    # a family is discarded when any complex of any level passes the guard
    try:
        system = build_system(CoverFamily(tuple(covers), space), max_dim=7)
        for level in system.levels:
            level_flag(level, 7)
            level_nerve(level, 7)
    except GuardExceeded:
        assume(False)
    return system


@given(weighted_systems())
def test_canonical_map_matches_scan(system):
    # the carrier is the scan's, and the scan's weights are its barycentre
    for i in range(len(system.levels)):
        for x in system.family.ground.points:
            point = canonical_point(system, i, x)
            expected = scan_canonical_map(system, i, x)
            assert canonical_map(system, i, x) == expected.carrier
            assert (point.carrier, point.coords) == (expected.carrier, expected.coords)


def test_canonical_maps_of_presets_match_scan(preset_systems):
    for name, (_, _, system) in preset_systems.items():
        for i in range(len(system.levels)):
            for x in system.family.ground.points:
                assert canonical_point(system, i, x) == scan_canonical_map(system, i, x), name


@given(weighted_systems(), st.integers(0, 2**16))
def test_cauchy_and_converge_match_scans(system, seed):
    rng = random.Random(seed)
    sizes = [len(level.vertices) for level in system.levels]
    threads = vertex_threads(system)
    non_max = non_max_levels(system)
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
        non_max = non_max_levels(system)
        for _ in range(200):
            y = perturbed_thread_net(system, threads[rng.randrange(len(threads))], rng, non_max)
            assert converge(system, y) == scan_converge(system, y), name


def _class_adjacency_matches_pairs(system):
    result = equivalence_classes(system)
    # the pairwise search and the triple scan agree, down to the breaking triple
    assert result == triple_scan_equivalence_classes(system)
    assert compare_quotient_to_ground(system, result) == full_compare_quotient_to_ground(
        system, result
    )
    quotient = result.quotient
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


def _random_system(rng):
    """1-8 points under 1-3 covers of 1-4 random elements of 1-3 points
    each, every point added to some element; half the systems are built on
    a random selection of levels, which may have no top."""
    n = rng.randint(1, 8)
    covers = []
    for cover_id in range(rng.randint(1, 3)):
        sets = [
            set(rng.sample(range(n), rng.randint(1, min(n, 3))))
            for _ in range(rng.randint(1, 4))
        ]
        for p in set(range(n)).difference(*sets):
            sets[rng.randrange(len(sets))].add(p)
        covers.append(cover_from_pointsets(cover_id, sets))
    lambdas = None
    if rng.random() < 0.5:
        every = all_lambdas(len(covers))
        lambdas = rng.sample(every, rng.randint(1, len(every)))
    return build_system(CoverFamily(tuple(covers), GroundSpace(n)), lambdas)


def _quotient_outcome(compare, system):
    """The comparison's report, or the message of the ``PreconditionUnmet``
    that it or the thread quotient raises."""
    try:
        return compare(system, equivalence_classes(system)).to_json()
    except PreconditionUnmet as e:
        return str(e)


def test_quotient_comparison_matches_full_comparison_on_random_systems():
    rng = random.Random(2022)
    outcomes = set()
    for _ in range(1000):
        system = _random_system(rng)
        outcome = _quotient_outcome(compare_quotient_to_ground, system)
        assert outcome == _quotient_outcome(full_compare_quotient_to_ground, system)
        if isinstance(outcome, dict) and outcome["pass"]:
            outcomes.add("pass")
        elif isinstance(outcome, dict):
            outcomes.add(outcome["details"].get("skipped") or outcome["counterexample"]["reason"])
    assert outcomes == {"pass", "no bijection", "thread relation is not transitive"}


def test_quotient_comparisons_differ_only_where_fibers_disagree_with_wedges():
    # one fiber of one level loses a vertex or gains one; the thread
    # quotient reads no fiber, so it stays as built
    rng = random.Random(7)
    differing = 0
    for _ in range(2000):
        system = _random_system(rng)
        if system.top is None:
            continue
        result = equivalence_classes(system)
        if result.quotient is None:
            continue
        p = rng.randrange(len(system.levels))
        level = system.levels[p]
        x = rng.randrange(len(level.fibers))
        fiber = level.fibers[x]
        outside = [v for v in range(len(level.vertices)) if v not in fiber]
        fibers = list(level.fibers)
        if len(fiber) > 1 and (not outside or rng.random() < 0.5):
            dropped = rng.choice(fiber)
            fibers[x] = tuple(v for v in fiber if v != dropped)
        elif outside:
            fibers[x] = tuple(sorted((*fiber, rng.choice(outside))))
        else:
            continue
        system.levels[p] = level._replace(fibers=fibers)
        try:
            comparison = compare_quotient_to_ground(system, result)
            full = full_compare_quotient_to_ground(system, result)
        except AssertionError:
            # canonical_map refuses a top fiber whose wedges lack the point
            continue
        if comparison != full:
            differing += 1
            assert not check_flag_reconstruction(system).passed
    assert differing


def _assert_sampled_verdicts_are_exact(system, nets, threads, seed):
    """The sampled sweep and homotopy pass exactly when the exact checks
    do, and the sampler finds no resolved thread exactly when the exact
    check finds no resolved point; returns the two sampled reports."""
    sweep = sampled_cauchy_sweep(system, nets, seed)
    assert sweep.passed == cauchy_sweep(system).passed
    homotopy = sampled_check_homotopy(system, threads, seed)
    try:
        assert homotopy.passed == check_homotopy(system).passed
    except PreconditionUnmet:
        assert homotopy.details == {"reason": "not enough resolved threads", "found": 0}
    return sweep, homotopy


@pytest.mark.parametrize("seed", [0, 7])
@pytest.mark.parametrize("name", list(PRESETS))
def test_reports_match_oracle_path(preset_systems, monkeypatch, name, seed):
    system = preset_systems[name][2]
    sweep, homotopy = _assert_sampled_verdicts_are_exact(system, 1000, 10, seed)
    assert sweep.to_json() == sweep_every_net(system, 1000, seed).to_json()
    # the homotopy and its endpoint tests, with canonical points scanned afresh
    monkeypatch.setattr(oracles, "canonical_point", scan_canonical_map)
    assert homotopy.to_json() == sampled_check_homotopy(system, 10, seed).to_json()


def _benchmark_families():
    """The benchmark's scale families, as ``perfbench/inputs.py`` builds
    them before it permutes their labels."""
    path = Path(__file__).resolve().parent.parent / "perfbench" / "inputs.py"
    spec = importlib.util.spec_from_file_location("benchmark_inputs", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.FAMILIES


# the levels each family is built with: cantor-d6 as the benchmark builds
# it, the circles at all seven levels; and the number of resolved points
BENCHMARK_SYSTEMS = {
    "cantor-d6": ("chain", 64),
    "circle-24-thick": ("all", 12),
    "circle-24-3812": ("all", 16),
}


@pytest.fixture(scope="module")
def benchmark_systems():
    out = {}
    for name, make in _benchmark_families().items():
        family = make()
        lambdas = None
        if BENCHMARK_SYSTEMS[name][0] == "chain":
            lambdas = [LambdaIndex.of(range(k)) for k in range(1, len(family.covers) + 1)]
        out[name] = build_system(family, lambdas, max_dim=16)
    return out


@pytest.mark.parametrize("name", list(BENCHMARK_SYSTEMS))
def test_sampled_verdicts_are_exact_on_benchmark_families(benchmark_systems, name):
    system = benchmark_systems[name]
    _assert_sampled_verdicts_are_exact(system, 200, 10, seed=7)
    assert len(check_homotopy(system).details["resolved"]) == BENCHMARK_SYSTEMS[name][1]


@pytest.mark.parametrize("name", list(BENCHMARK_SYSTEMS))
def test_structural_checks_match_rebuilds_on_benchmark_families(benchmark_systems, name):
    system = benchmark_systems[name]
    for check, rebuilt in (
        (check_flag_reconstruction, full_check_flag_reconstruction),
        (check_skeleton_equality, full_check_skeleton_equality),
    ):
        report = check(system)
        assert report.passed and report == rebuilt(system)


@pytest.mark.parametrize("name", list(BENCHMARK_SYSTEMS))
def test_clique_numbers_and_thread_classes_on_benchmark_families(benchmark_systems, name):
    system = benchmark_systems[name]
    for level in system.levels:
        flag = level_flag(level, system.max_dim)
        # no clique has more vertices than the graph, so the cap never binds
        width = clique_number(level.adjacency, len(level.adjacency))
        assert width == max(map(len, flag)), level.lam
        cliques = maximal_cliques(level.lam, level.adjacency, system.max_dim)
        assert max(map(len, cliques)) == width and set(cliques) <= set(flag), level.lam
    _assert_thread_checks_match_scans(system)
    result = equivalence_classes(system)
    assert compare_quotient_to_ground(system, result) == full_compare_quotient_to_ground(
        system, result
    )


@pytest.mark.parametrize("name", list(BENCHMARK_SYSTEMS))
def test_one_search_build_matches_two_searches_on_benchmark_families(benchmark_systems, name):
    system = benchmark_systems[name]
    for level in system.levels:
        wedges = [v.wedge for v in level.vertices]
        flag, nerve = build_complexes(level.lam, level.adjacency, wedges, system.max_dim)
        expected = two_search_build(level.lam, level.adjacency, level.fibers, system.max_dim)
        assert (flag, nerve) == expected, level.lam
        assert (nerve is flag) == (nerve == flag), level.lam


@pytest.mark.parametrize("name", list(BENCHMARK_SYSTEMS))
def test_core_nerves_match_pruned_search_on_benchmark_families(benchmark_systems, name):
    system = benchmark_systems[name]
    for level in system.levels:
        core = nerve_core(level, system.max_dim)
        assert core.cx == pruned_core_nerve(level, core.vertices, system.max_dim), level.lam


@pytest.mark.parametrize("name", list(BENCHMARK_SYSTEMS))
def test_cores_match_full_complexes_on_benchmark_families(benchmark_systems, name):
    # the chain {0}, {0,1}, ... up to all covers
    system = benchmark_systems[name]
    n = len(system.family.covers)
    chain = [system.position[LambdaIndex.of(range(k))] for k in range(1, n + 1)]
    table = betti_stabilization(system, chain)
    assert table.to_json() == full_betti_stabilization(system, chain)


# ---------------------------------------------------------------------------
# the readers of maximal cliques, against whole flag complexes and the
# closed-neighbourhood flag core


def _assert_clique_readers_match_oracles(system):
    """``check_nerve_absorption`` against the check on whole flag
    complexes, and on each level the flag Betti row of the maximal-clique
    core against the closed-neighbourhood core's, each padded as
    ``betti_stabilization`` pads it; past the guard, the same message from
    either side."""
    try:
        expected = full_check_nerve_absorption(system)
    except GuardExceeded as e:
        with pytest.raises(GuardExceeded, match=f"^{re.escape(str(e))}$"):
            check_nerve_absorption(system)
    else:
        assert check_nerve_absorption(system) == expected
    d = system.max_dim
    for level in system.levels:
        width = clique_number(level.adjacency, d + 2)
        if width > d + 1:
            with pytest.raises(GuardExceeded) as e:
                level_flag(level, d)
            with pytest.raises(GuardExceeded, match=f"^{re.escape(str(e.value))}$"):
                maximal_cliques(level.lam, level.adjacency, d)
            continue
        cliques = maximal_cliques(level.lam, level.adjacency, d)
        row = betti(flag_core(level, cliques, d)).padded(max(map(len, cliques)))
        assert row == betti(graph_flag_core(level, d)).padded(width), level.lam


@given(family_and_lambda() | planted_triangles(), st.sampled_from([0, 1, 30]))
def test_clique_readers_match_oracles_on_generated_families(data, max_dim):
    family, _ = data
    _assert_clique_readers_match_oracles(build_system(family, max_dim=max_dim))


def test_clique_readers_match_oracles_on_presets(preset_systems):
    for _, _, system in preset_systems.values():
        _assert_clique_readers_match_oracles(system)


@pytest.mark.parametrize("name", list(BENCHMARK_SYSTEMS))
def test_clique_readers_match_oracles_on_benchmark_families(benchmark_systems, name):
    _assert_clique_readers_match_oracles(benchmark_systems[name])


@pytest.fixture(scope="module")
def circle_48_system():
    # arcs 3/6/12/24 with no overlap, all 15 levels: 404,725 flag
    # simplices over all levels, which the old nerve check enumerated
    space = generate_space(CircleGrid(), 48)
    arcs = tuple(
        generate_cover(space, Arcs(n, Fraction(0)), cover_id=i)
        for i, n in enumerate((3, 6, 12, 24))
    )
    return build_system(CoverFamily(arcs, space), None, 16)


def test_clique_readers_match_oracles_on_circle_48(circle_48_system):
    assert check_nerve_absorption(circle_48_system).passed
    _assert_clique_readers_match_oracles(circle_48_system)


def _unmet_or(f, system):
    """``f(system)``, or the message of the ``PreconditionUnmet`` it raises."""
    try:
        return f(system)
    except PreconditionUnmet as e:
        return str(e)


def _assert_thread_checks_match_scans(system):
    """``check_star_conditions`` and ``equivalence_classes`` against their
    scans of every level, down to the counterexample and the witness, and
    against their scans that read every thread's closed star anew;
    ``check_fibers`` against its scan of every thread for every point."""
    assert check_fibers(system) == thread_scan_check_fibers(system)
    star = _unmet_or(check_star_conditions, system)
    assert star == _unmet_or(every_level_star_conditions, system)
    assert star == _unmet_or(thread_scan_star_conditions, system)
    relation = _unmet_or(equivalence_classes, system)
    assert relation == _unmet_or(triple_scan_equivalence_classes, system)
    assert relation == _unmet_or(pair_scan_equivalence_classes, system)


def _thread_verdict(system):
    """"pass" or "fail" when ``star_conditions`` passes or fails, after
    requiring the thread relation to be transitive exactly when it passes,
    and that exactly when the top graph is a disjoint union of cliques
    (adjacent vertices have equal closed stars); the message when the two
    raise ``PreconditionUnmet``, as both must."""
    star = _unmet_or(check_star_conditions, system)
    relation = _unmet_or(equivalence_classes, system)
    if isinstance(star, str) or isinstance(relation, str):
        assert star == relation
        return star
    assert star.passed == (relation.witness is None)
    top = system.levels[system.top].adjacency
    stars = [adj | 1 << v for v, adj in enumerate(top)]
    cliques = all(stars[a] == stars[b] for a, b in graph_edges(top))
    assert star.passed == cliques
    return "pass" if star.passed else "fail"


def test_thread_checks_match_scans_on_presets(preset_systems):
    for _, _, system in preset_systems.values():
        _assert_thread_checks_match_scans(system)


def test_thread_checks_match_scans_on_circle_48(circle_48_system):
    _assert_thread_checks_match_scans(circle_48_system)


@given(family_and_lambda())
def test_thread_checks_match_scans_on_generated_families(data):
    _assert_thread_checks_match_scans(build_system(data[0]))


def test_thread_checks_match_scans_on_random_systems():
    rng = random.Random(2025)
    for _ in range(1000):
        _assert_thread_checks_match_scans(_random_system(rng))


def test_fibers_match_thread_scan_with_a_moved_bond_entry():
    # one entry of one bond moved: some point's fiber escapes that bond,
    # or the top level's bond to itself moved a vertex v to a vertex of
    # every top fiber that holds v, so no thread ends at v and those
    # fibers go unrealized.  The bonds need not be graph homomorphisms
    # here, and the thread checks, which reuse what a repeated closed star
    # gave, must still equal their scans of every thread
    rng = random.Random(2027)
    reasons = set()
    for _ in range(1000):
        system = _random_system(rng)
        pair = rng.choice(sorted(system._bonds))
        bond = list(system.bond(*pair))
        bond[rng.randrange(len(bond))] = rng.randrange(len(system.levels[pair[0]].vertices))
        system._bonds[pair] = tuple(bond)
        report = check_fibers(system)
        assert report == thread_scan_check_fibers(system)
        pairs = [(i, j) for i, up in enumerate(system.above) for j in up]
        for x in system.family.ground.points:
            assert fiber_escape(system, x, pairs) == tuple_scan_fiber_escape(system, x, pairs)
        star = _unmet_or(check_star_conditions, system)
        assert star == _unmet_or(thread_scan_star_conditions, system)
        relation = _unmet_or(equivalence_classes, system)
        assert relation == _unmet_or(pair_scan_equivalence_classes, system)
        reasons.add("pass" if report.passed else report.counterexample.get("reason", "escape"))
    assert reasons == {"pass", "escape", "top fiber not realized by threads"}


def test_star_conditions_pass_exactly_when_the_relation_is_transitive(preset_systems):
    verdicts = {name: _thread_verdict(system) for name, (_, _, system) in preset_systems.items()}
    assert verdicts == {
        "cantor-d3": "pass",
        "interval-g8": "pass",
        "circle-a3612": "fail",
        "circle-a3": "pass",
        "wedge2": "fail",
    }
    rng = random.Random(2025)
    seen = {_thread_verdict(_random_system(rng)) for _ in range(1000)}
    assert seen == {"pass", "fail", "the selected levels have no maximum level"}


def _assert_wedge_masks_match_element_sets(system):
    """Each vertex's wedge, ``carrier_wedge`` on every point fiber and flag
    simplex, and ``thread_image`` on every canonical and vertex thread,
    against the wedges read as point sets from the covers."""
    sets = [element_wedges(system.family, lv.lam, lv.vertices) for lv in system.levels]
    for level, wedges in zip(system.levels, sets):
        assert [members(v.wedge) for v in level.vertices] == [sorted(w) for w in wedges]
        for s in [*level.fibers, *level_flag(level, system.max_dim)]:
            expected = frozenset.intersection(*(wedges[v] for v in s))
            assert members(carrier_wedge(level.vertices, s)) == sorted(expected), s
    threads = [canonical_thread(system, x) for x in system.family.ground.points]
    threads += [tuple((v,) for v in z) for z in vertex_threads(system)]
    for z in threads:
        expected = frozenset.intersection(*(wedges[v] for wedges, s in zip(sets, z) for v in s))
        assert members(thread_image(system, z)) == sorted(expected), z


@given(family_and_lambda() | planted_triangles())
def test_wedge_masks_match_element_sets_on_generated_families(data):
    _assert_wedge_masks_match_element_sets(build_system(data[0], max_dim=30))


def test_wedge_masks_match_element_sets_on_presets(preset_systems):
    for _, _, system in preset_systems.values():
        _assert_wedge_masks_match_element_sets(system)


@pytest.mark.parametrize("name", list(BENCHMARK_SYSTEMS))
def test_wedge_masks_match_element_sets_on_benchmark_families(benchmark_systems, name):
    _assert_wedge_masks_match_element_sets(benchmark_systems[name])


def test_resolved_points_of_presets(preset_systems):
    counts = {"cantor-d3": 8, "interval-g8": 9, "circle-a3612": 12, "wedge2": 23}
    for name, n in counts.items():
        assert len(check_homotopy(preset_systems[name][2]).details["resolved"]) == n, name
    with pytest.raises(PreconditionUnmet):
        check_homotopy(preset_systems["circle-a3"][2])


@given(weighted_systems(), st.integers(0, 2**16))
def test_sampled_verdicts_are_exact_on_generated_families(system, seed):
    _assert_sampled_verdicts_are_exact(system, 20, 3, seed)


@given(weighted_systems(), st.integers(0, 2**16))
def test_samples_follow_the_exact_rules(system, seed):
    # each sampled net converges to the vertex thread through its top
    # vertex; a sampled point thread's image is the wedge of its top
    # carrier, and a thread resolved to x has its carrier in the top fiber
    # of x, a resolved point (a face of such a fiber need not resolve: its
    # wedges may share more than x)
    t = system.top
    adjs = [level.adjacency for level in system.levels]
    for y in sample_cauchy_nets(system, 20, seed):
        z = vertex_thread(system, y[t])
        assert all(a == b or adj[a] >> b & 1 for adj, a, b in zip(adjs, z, y))
    try:
        resolved = check_homotopy(system).details["resolved"]
    except PreconditionUnmet:
        resolved = []
    top = system.levels[t]
    nerve = level_nerve(top, system.max_dim)
    rng = random.Random(seed)
    for _ in range(20):
        s = nerve[rng.randrange(len(nerve))]
        weights = [Fraction(rng.randint(1, 9)) for _ in s]
        point = BarycentricPoint.from_dict({v: w / sum(weights) for v, w in zip(s, weights)})
        image = point_image(system, point_thread(system, point))
        assert image == carrier_wedge(top.vertices, s)
        if image.bit_count() == 1:
            x = image.bit_length() - 1
            assert x in resolved and set(s) <= set(top.fibers[x])


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
    # both readers of the ball rule against the scan of one ball at a time
    balls = [[scan_ball(space, p, r) for r in radii] for p in space.points]
    assert [space.balls(p, radii) for p in space.points] == balls
    expected = [(p, balls[p][k]) for k in range(len(radii)) for p in space.points]
    assert ball_neighborhoods(space, radii) == expected
    assert ball_neighborhoods(space, []) == []
