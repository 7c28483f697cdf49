from __future__ import annotations

import random
from fractions import Fraction

import pytest

import oracles
from conftest import level_flag
from oracles import (
    converge,
    is_cauchy,
    k_simplices,
    non_max_levels,
    perturbed_thread_net,
    sample_cauchy_nets,
    sampled_cauchy_sweep,
    triple_scan_equivalence_classes,
)
from nervelim.cells import (
    EquivalenceResult,
    cauchy_sweep,
    check_equivalence,
    check_star_conditions,
    check_star_contraction,
    compare_quotient_to_ground,
    equivalence_classes,
)
from nervelim.complexes import LambdaIndex
from nervelim.errors import PreconditionUnmet
from nervelim.ground import (
    CoverFamily,
    GroundSpace,
    cover_from_pointsets,
)
from nervelim.systems import build_system, vertex_threads

F = Fraction


def _lam(*ids):
    return LambdaIndex.of(ids)


def _path_system():
    """A single cover whose level graph is a path on 5 vertices."""
    space = GroundSpace(6)
    sets = [{i, i + 1} for i in range(5)]
    family = CoverFamily((cover_from_pointsets(0, sets),), space)
    return build_system(family)


def _one_point_system():
    space = GroundSpace(1)
    family = CoverFamily((cover_from_pointsets(0, [{0}]),), space)
    return build_system(family)


# ---------------------------------------------------------------------------
# level graphs


def _edges(adj):
    return {(a, b) for a, mask in enumerate(adj) for b in range(a + 1, len(adj)) if mask >> b & 1}


def test_cell_graph_reflexive_and_symmetric(preset_systems):
    # loops are implicit: no vertex is its own neighbour
    for name, (_, _, system) in preset_systems.items():
        for level in system.levels:
            adj = level.adjacency
            for a, mask in enumerate(adj):
                assert not mask >> a & 1, name
                assert all(adj[b] >> a & 1 for b in range(len(adj)) if mask >> b & 1), name


def test_graph_of_level_matches_skeleton(cantor_system, circle_system):
    for system in (cantor_system, circle_system):
        for level in system.levels:
            flag = level_flag(level, system.max_dim)
            assert _edges(level.adjacency) == set(k_simplices(flag, 1))


def test_graph_of_level_discrete(cantor_system):
    assert set(cantor_system.levels[cantor_system.top].adjacency) == {0}


def test_graph_of_level_triangle(circle_system):
    assert len(_edges(circle_system.levels[circle_system.position[_lam(0)]].adjacency)) == 3


def test_bonds_are_graph_homomorphisms(preset_systems):
    for name, (_, _, system) in preset_systems.items():
        for i, up in enumerate(system.above):
            for j in up:
                vm = system.bond(i, j)
                target = system.levels[i].adjacency
                for a, b in _edges(system.levels[j].adjacency):
                    assert vm[a] == vm[b] or target[vm[a]] >> vm[b] & 1, name


# ---------------------------------------------------------------------------
# the star conditions


def test_star_contraction_cantor_all_threads(cantor_system):
    report = check_star_conditions(cantor_system)
    assert report.passed
    assert report.details["finiteness"] == "vacuous on finite ground models"


def test_star_contraction_fails_on_path():
    system = _path_system()
    z = vertex_threads(system)[0]  # an end of the path
    assert check_star_contraction(system, z, 0) is None


def test_star_contraction_trivial_on_one_point():
    system = _one_point_system()
    z = vertex_threads(system)[0]
    assert check_star_contraction(system, z, 0) == 0


# ---------------------------------------------------------------------------
# equivalence and the quotient


def test_equivalence_cantor_singletons(cantor_system):
    result = equivalence_classes(cantor_system)
    assert result.quotient is not None and result.witness is None
    assert all(len(c) == 1 for c in result.quotient.classes)
    assert len(result.quotient.classes) == 8


def test_equivalence_interval_classes(interval_system):
    result = equivalence_classes(interval_system)
    assert result.quotient is not None and result.witness is None
    assert len(result.quotient.classes) == 9


@pytest.mark.parametrize(
    "pointsets, witness",
    [
        # three paths on four points; element e is thread e at the one level
        ([{0, 1}, {1, 2}, {2, 3}], (0, 1, 2)),  # 0 ~ 1 ~ 2, not 0 ~ 2
        ([{1, 2}, {0, 1}, {2, 3}], (1, 0, 2)),  # 1 ~ 0 ~ 2, not 1 ~ 2
        ([{0, 1}, {2, 3}, {1, 2}], (0, 2, 1)),  # 0 ~ 2 ~ 1, not 0 ~ 1
    ],
)
def test_equivalence_names_the_first_breaking_triple_in_scan_order(pointsets, witness):
    family = CoverFamily((cover_from_pointsets(0, pointsets),), GroundSpace(4))
    system = build_system(family)
    assert equivalence_classes(system) == EquivalenceResult(witness, None)
    assert triple_scan_equivalence_classes(system).witness == witness


def test_equivalence_reports_transitivity_failure(circle_system):
    result = equivalence_classes(circle_system)
    a, b, c = result.witness
    assert result.quotient is None
    assert not check_equivalence(result).passed


def test_quotient_comparison_cantor(cantor_system):
    report = compare_quotient_to_ground(cantor_system, equivalence_classes(cantor_system))
    assert report.passed
    assert report.details == {"classes": 8, "points": 8}


def test_quotient_comparison_interval(interval_system):
    report = compare_quotient_to_ground(interval_system, equivalence_classes(interval_system))
    assert report.passed
    assert report.details == {"classes": 9, "points": 9}


def test_quotient_comparison_one_point():
    system = _one_point_system()
    report = compare_quotient_to_ground(system, equivalence_classes(system))
    assert report.passed
    assert report.details == {"classes": 1, "points": 1}


def test_quotient_comparison_needs_a_class_per_point():
    # one element over two points: one thread, so one class for two points
    family = CoverFamily((cover_from_pointsets(0, [{0, 1}]),), GroundSpace(2))
    system = build_system(family)
    report = compare_quotient_to_ground(system, equivalence_classes(system))
    assert report.counterexample == {"reason": "no bijection"}
    assert report.details == {"classes": 1, "points": 2}


def test_quotient_comparison_skipped_without_transitivity(circle_system):
    report = compare_quotient_to_ground(circle_system, equivalence_classes(circle_system))
    assert not report.passed
    assert "skipped" in report.details


def test_quotient_json_shape(cantor_system):
    q = equivalence_classes(cantor_system).quotient.to_json()
    assert sorted(q) == ["adjacency", "classes"]
    assert len(q["classes"]) == 8


# ---------------------------------------------------------------------------
# Cauchy nets and convergence


def test_thread_is_cauchy(cantor_system):
    for z in vertex_threads(cantor_system):
        assert is_cauchy(cantor_system, z)


def _alternating_net(system):
    # two non-adjacent top vertices alternated by level-size parity
    threads = vertex_threads(system)
    u, v = threads[0], threads[7]
    return tuple(
        (u if len(level.lam.cover_ids) % 2 == 0 else v)[i]
        for i, level in enumerate(system.levels)
    )


def test_alternating_net_not_cauchy(cantor_system):
    assert not is_cauchy(cantor_system, _alternating_net(cantor_system))


def test_perturbed_thread_is_cauchy(cantor_system):
    rng = random.Random(5)
    non_max = non_max_levels(cantor_system)
    for _ in range(100):
        z = vertex_threads(cantor_system)[rng.randrange(8)]
        net = perturbed_thread_net(cantor_system, z, rng, non_max)
        assert is_cauchy(cantor_system, net)


def test_thread_converges_to_itself(cantor_system):
    z = vertex_threads(cantor_system)[3]
    assert converge(cantor_system, z) == z


def test_perturbed_threads_converge(cantor_system):
    rng = random.Random(11)
    non_max = non_max_levels(cantor_system)
    for _ in range(100):
        z = vertex_threads(cantor_system)[rng.randrange(8)]
        net = perturbed_thread_net(cantor_system, z, rng, non_max)
        assert converge(cantor_system, net) is not None


def test_converge_rejects_non_cauchy(cantor_system):
    with pytest.raises(ValueError):
        converge(cantor_system, _alternating_net(cantor_system))


def test_sampled_sweep_converges(cantor_system):
    report = sampled_cauchy_sweep(cantor_system, 500, seed=9)
    assert report.passed
    assert cauchy_sweep(cantor_system).passed
    nets = sample_cauchy_nets(cantor_system, 50, seed=9)
    assert len(nets) == 50
    assert all(is_cauchy(cantor_system, y) for y in nets)


def test_sweep_deterministic(cantor_system):
    a = sample_cauchy_nets(cantor_system, 30, seed=4)
    b = sample_cauchy_nets(cantor_system, 30, seed=4)
    assert a == b


def test_sweep_fails_when_nets_are_rare(cantor_system, monkeypatch):
    monkeypatch.setattr(oracles, "is_cauchy", lambda system, y: False)
    assert sample_cauchy_nets(cantor_system, 10, seed=0) == []
    report = sampled_cauchy_sweep(cantor_system, 10, seed=0)
    assert not report.passed
    assert report.details == {"reason": "not enough Cauchy nets", "found": 0}


def test_sweep_states_its_witness_rule(preset_systems):
    for name, (_, _, system) in preset_systems.items():
        report = cauchy_sweep(system)
        assert report.passed, name
        assert report.details == {
            "witness": "each Cauchy net converges to the vertex thread through its top vertex"
        }
    with pytest.raises(PreconditionUnmet):
        cauchy_sweep(build_system(preset_systems["cantor-d3"][1], [_lam(0), _lam(1)]))


def test_sweep_catches_a_bond_to_itself_that_is_not_the_identity(cantor_system):
    # a system of its own, so the corrupted bond stays out of the fixture
    system = build_system(cantor_system.family)
    i = system.position[_lam(0, 1)]
    # level {0,1} has four vertices; swap two of them
    system._bonds[(i, i)] = (1, 0, 2, 3)
    report = cauchy_sweep(system)
    assert not report.passed
    assert report.counterexample == {
        "lambda": [0, 1],
        "reason": "bond to itself is not the identity",
    }
