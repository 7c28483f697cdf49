"""Acceptance suite: every criterion at its stated tolerance.

All equalities here are exact (rational arithmetic, integer Betti
numbers); runtime bounds are asserted per criterion.  One line per
criterion is printed so a verbose run reads as a checklist.
"""

from __future__ import annotations

import time
from fractions import Fraction

from conftest import level_flag, level_flags, level_nerve
from oracles import (
    cycle_complex,
    discrete_complex,
    path_complex,
    sampled_cauchy_sweep,
    sampled_check_homotopy,
    skeleton_adjacency,
    vertex_thread_image,
    vertex_threads,
    wedge_graph_complex,
)
from nervelim.cells import (
    cauchy_sweep,
    check_star_conditions,
    compare_quotient_to_ground,
    equivalence_classes,
)
from nervelim.cli import main as cli_main
from nervelim.complexes import LambdaIndex, build_flag
from nervelim.homology import betti, betti_stabilization
from nervelim.presets import PRESETS
from nervelim.systems import (
    check_functoriality,
    check_homotopy,
    check_section_identity,
    check_simpliciality,
    find_nerve_absorbing_level,
)

F = Fraction

PRESET_NAMES = ("cantor-d3", "interval-g8", "circle-a3612", "wedge2")


def _criterion(n: int, desc: str, bound_s: float, body) -> None:
    start = time.perf_counter()
    try:
        body()
    except BaseException:
        print(f"ACCEPTANCE {n}: FAIL  {desc}")
        raise
    elapsed = time.perf_counter() - start
    print(f"ACCEPTANCE {n}: PASS  {desc}  ({elapsed:.2f}s)")
    assert elapsed < bound_s, f"runtime {elapsed:.2f}s exceeds the {bound_s}s budget"


def test_criterion_1_flag_reconstruction(preset_systems):
    def body():
        for name in PRESET_NAMES:
            t0 = time.perf_counter()
            _, _, system = preset_systems[name]
            for level in system.levels:
                flag, nerve = level_flag(level, system.max_dim), level_nerve(level, system.max_dim)
                skeleton = skeleton_adjacency(flag)
                rebuilt = build_flag(level.lam, skeleton, system.max_dim)
                assert rebuilt == flag
                assert set(nerve) <= set(flag)
                assert skeleton_adjacency(nerve) == skeleton
            assert time.perf_counter() - t0 < 5.0, name

    _criterion(1, "flag reconstruction and skeleton equality on every level", 20.0, body)


def test_criterion_2_system_coherence(preset_systems):
    def body():
        _, _, cantor = preset_systems["cantor-d3"]
        assert len(cantor.levels) == 7
        assert check_simpliciality(cantor).passed
        report = check_functoriality(cantor)
        assert report.passed
        for name in PRESET_NAMES:
            assert check_simpliciality(preset_systems[name][2]).passed, name

    _criterion(2, "bonds simplicial and functorial on all chains", 5.0, body)


def test_criterion_3_section_identity(preset_systems):
    def body():
        for name in ("cantor-d3", "interval-g8"):
            report = check_section_identity(preset_systems[name][2])
            assert report.passed, name

    _criterion(3, "section identity: every point returns as itself, resolved", 2.0, body)


def test_criterion_4_fiber_formula(preset_systems):
    def body():
        for name in PRESET_NAMES:
            _, _, system = preset_systems[name]
            t = system.top
            threads = vertex_threads(system)
            images = [vertex_thread_image(system, z) for z in threads]
            nerves = [set(level_nerve(level, system.max_dim)) for level in system.levels]
            for x in system.family.ground.points:
                fibers = [level.fibers[x] for level in system.levels]
                # the spanned set is a nerve simplex at every level
                for nerve, fb in zip(nerves, fibers):
                    assert fb in nerve
                # projections carry fiber vertices into fiber vertices
                for i, up in enumerate(system.above):
                    for j in up:
                        image = {system.bond(i, j)[v] for v in fibers[j]}
                        assert image <= set(fibers[i])
                # the top fiber is realized by exactly the threads through x
                through = {
                    threads[i][t] for i in range(len(threads)) if images[i] >> x & 1
                }
                assert through == set(fibers[t])

    _criterion(4, "fibers span nerve simplices and project into each other", 5.0, body)


def test_criterion_5_homotopy_contract(preset_systems):
    def body():
        system = preset_systems["cantor-d3"][2]
        # the sampled homotopy is the oracle of the exact decision
        report = sampled_check_homotopy(system, count=50, seed=0)
        assert report.passed
        assert report.details["threads"] == 50
        assert report.details["stages"] == [F(0), F(1, 4), F(1, 2), F(3, 4), F(1)]
        assert check_homotopy(system).passed

    _criterion(5, "homotopy endpoints and image preservation on 50 threads", 10.0, body)


def test_criterion_6_nerve_absorption(preset_systems):
    def body():
        _, _, circle = preset_systems["circle-a3612"]
        i = circle.position[LambdaIndex.of([0])]
        j = find_nerve_absorbing_level(circle, i, level_flags(circle))
        assert j is not None and j in circle.above[i] and j != i
        truncated = preset_systems["circle-a3"][2]
        i = truncated.position[LambdaIndex.of([0])]
        assert find_nerve_absorbing_level(truncated, i, level_flags(truncated)) is None

    _criterion(6, "flag-into-nerve witness found on circle, none when truncated", 5.0, body)


def test_criterion_7_homology_stabilization(preset_systems):
    def body():
        expectations = {
            "interval-g8": ((1, 0, 0), path_complex(9)),
            "circle-a3612": ((1, 1, 0), cycle_complex(12)),
            "wedge2": ((1, 2, 0), wedge_graph_complex(2, 12)),
            "cantor-d3": ((8, 0, 0), discrete_complex(8)),
        }
        for name, (expected, oracle_complex) in expectations.items():
            preset = PRESETS[name]
            _, _, system = preset_systems[name]
            chain = [system.position[LambdaIndex.of(ids)] for ids in preset.chain]
            table = betti_stabilization(system, chain)
            nerve_rows = [r for r in table.rows if r.complex_kind == "N"]
            final = nerve_rows[-1].bettis.padded(3)
            assert final == expected, name
            assert betti(oracle_complex).padded(3) == expected, name
            if name != "cantor-d3":
                assert table.nerve_stabilized, name
        # the coarse circle flag complex is the filled triangle
        circle = preset_systems["circle-a3612"][2]
        coarse = circle.levels[circle.position[LambdaIndex.of([0])]]
        assert betti(level_flag(coarse, circle.max_dim)).padded(3) == (1, 0, 0)

    _criterion(7, "Betti values match the explicit triangulation oracles", 10.0, body)


def test_criterion_8_cell_structure_suite(preset_systems):
    def body():
        _, _, system = preset_systems["cantor-d3"]
        assert check_star_conditions(system).passed
        result = equivalence_classes(system)
        assert result.quotient is not None and result.witness is None
        comparison = compare_quotient_to_ground(system, result)
        assert comparison.passed
        assert comparison.details == {"classes": 8, "points": 8}
        # the sampled sweep is the oracle of the exact decision
        sweep = sampled_cauchy_sweep(system, count=10_000, seed=2026)
        assert sweep.passed
        assert sweep.details["nets"] == 10_000
        assert cauchy_sweep(system).passed

    _criterion(8, "star conditions, quotient bijection, 10k Cauchy nets converge", 60.0, body)


def test_criterion_9_determinism(tmp_path):
    def body():
        outputs = {}
        for run in ("a", "b"):
            out = tmp_path / f"cantor-{run}"
            code = cli_main(
                [
                    "check",
                    "--space",
                    "cantor-d3",
                    "--out",
                    str(out),
                    "--seed",
                    "2026",
                ]
            )
            assert code == 0
            outputs[run] = {
                name: (out / name).read_bytes()
                for name in ("report.json", "betti.csv", "quotient.json")
            }
        assert outputs["a"] == outputs["b"]
        for run in ("a", "b"):
            out = tmp_path / f"circle-{run}"
            code = cli_main(
                ["check", "--space", "circle-a3612", "--out", str(out), "--seed", "7"]
            )
            assert code == 0
            outputs[f"c{run}"] = (out / "report.json").read_bytes()
        assert outputs["ca"] == outputs["cb"]

    _criterion(9, "repeated seeded runs produce byte-identical reports", 120.0, body)
