from __future__ import annotations

import csv
import hashlib
import inspect
import io
import json
import re
import traceback
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from tempfile import TemporaryDirectory

import pytest
from hypothesis import event, example, given, settings, strategies as st

from oracles import complex_from_json
from nervelim.checks import ALL_CHECKS
from nervelim.cli import main
from nervelim.ground import GroundSpace, space_to_json
from nervelim.homology import betti
from nervelim.report import dump_json


def run(*args):
    return main([str(a) for a in args])


# ---------------------------------------------------------------------------
# build


def test_build_cantor_writes_seven_levels(tmp_path):
    out = tmp_path / "out"
    assert run("build", "--space", "cantor-d3", "--out", out) == 0
    levels = sorted(p.name for p in out.glob("level_*.json"))
    assert len(levels) == 7
    assert "level_0-1-2.json" in levels
    assert len(list(out.glob("skeleton_*.dot"))) == 7
    assert (out / "space.json").exists() and (out / "covers.json").exists()
    bonds = json.loads((out / "bonds.json").read_text())["bonds"]
    # 12 strictly comparable pairs among the 7 levels of three covers
    assert len(bonds) == 12
    for bond in bonds:
        assert set(bond["target"]) < set(bond["source"])
        assert all(isinstance(v, int) for v in bond["vertex_map"])


def test_build_circle_complex_contents(tmp_path):
    out = tmp_path / "out"
    assert run("build", "--space", "circle-a3612", "--out", out, "--lambdas", "chain") == 0
    data = json.loads((out / "level_0.json").read_text())
    nerve = complex_from_json(data["nerve_complex"])
    flag = complex_from_json(data["flag_complex"])
    assert betti(nerve).padded(2) == (1, 1)  # boundary triangle
    assert betti(flag).padded(2) == (1, 0)  # filled triangle
    assert data["format_version"] == 1


def test_build_malformed_space_exits_2(tmp_path, capsys):
    bad = tmp_path / "space.json"
    covers = tmp_path / "covers.json"
    covers.write_text(json.dumps({"covers": [{"elements": [{"points": [0, 1, 2]}]}]}))
    zero_denominator = {"points": 1, "coords": [["1/0"]], "metric": "euclidean", "labels": None}
    deep = b"[" * 5000 + b"]" * 5000
    # labels are null or a list of strings: not one string, not numbers
    labels = [
        {"points": 3, "coords": None, "metric": "none", "labels": lb} for lb in ("abc", [0, 1, 2])
    ]
    for data in (
        b"{this is not json",
        json.dumps(zero_denominator).encode(),
        b"\xff",
        deep,
        *(json.dumps(d).encode() for d in labels),
    ):
        bad.write_bytes(data)
        code = run("build", "--space", bad, "--covers", covers, "--out", tmp_path / "o")
        assert code == 2
        err = capsys.readouterr().err
        assert "space" in err and len(err.splitlines()) == 1


def test_build_from_files(tmp_path):
    from nervelim.ground import family_to_json, space_to_json
    from nervelim.presets import PRESETS
    from nervelim.report import dump_json

    family = PRESETS["cantor-d3"].factory()
    (tmp_path / "space.json").write_text(dump_json(space_to_json(family.ground)))
    (tmp_path / "covers.json").write_text(dump_json(family_to_json(family)))
    out = tmp_path / "out"
    assert (
        run(
            "build",
            "--space",
            tmp_path / "space.json",
            "--covers",
            tmp_path / "covers.json",
            "--out",
            out,
        )
        == 0
    )
    assert len(list(out.glob("level_*.json"))) == 7


@pytest.mark.parametrize(
    "covers, message",
    [
        ([[[0, 1, 2], [2, 3]]], "cover 0 does not cover the space"),
        ([[[0, 1, 2], [3, 4, 7]]], "cover 0 names point 7"),
        ([], "a family needs at least one cover"),
        # ids that are not JSON integers are refused, not truncated
        ([[[0, 1.7, 2, 3, 4]]], "a point id must be an integer, got 1.7"),
        ([[[0, True, 2, 3, 4]]], "a point id must be an integer, got true"),
        ([[[0, 1, 2, 3, 4.0]]], "a point id must be an integer, got 4.0"),
        ([[[0, "1", 2, 3, 4]]], 'a point id must be an integer, got "1"'),
    ],
    ids=[
        "misses-a-point",
        "names-point-7",
        "no-covers",
        "fractional-point",
        "boolean-point",
        "float-point",
        "string-point",
    ],
)
def test_bad_covers_file_exits_2(tmp_path, capsys, covers, message):
    from nervelim.ground import GroundSpace, space_to_json
    from nervelim.report import dump_json

    (tmp_path / "space.json").write_text(dump_json(space_to_json(GroundSpace(5))))
    data = {"covers": [{"elements": [{"points": e} for e in c]} for c in covers]}
    (tmp_path / "covers.json").write_text(json.dumps(data))
    code = run(
        "build", "--space", tmp_path / "space.json", "--covers", tmp_path / "covers.json",
        "--out", tmp_path / "o",
    )
    assert code == 2
    err = capsys.readouterr().err
    assert message in err and len(err.splitlines()) == 1


@pytest.mark.parametrize(
    "points, covered",
    [(2.9, [0, 1]), (True, [0]), (2.0, [0, 1]), ("2", [0, 1])],
    ids=["fractional", "boolean", "float", "string"],
)
def test_non_integer_point_count_exits_2(tmp_path, capsys, points, covered):
    # each count, read as an integer, would fit the covers file
    space = {**space_to_json(GroundSpace(1)), "points": points}
    (tmp_path / "space.json").write_text(json.dumps(space))
    covers = {"covers": [{"elements": [{"points": covered}]}]}
    (tmp_path / "covers.json").write_text(json.dumps(covers))
    code = run(
        "build", "--space", tmp_path / "space.json", "--covers", tmp_path / "covers.json",
        "--out", tmp_path / "o",
    )
    assert code == 2
    err = capsys.readouterr().err
    assert f"the point count must be an integer, got {json.dumps(points)}" in err
    assert len(err.splitlines()) == 1


@pytest.mark.parametrize(
    "command, blocked",
    [("build", ""), ("check", ""), ("build", "space.json"), ("check", "report.json")],
    ids=["build-out-a-file", "check-out-a-file", "build-space-a-dir", "check-report-a-dir"],
)
def test_unwritable_output_exits_2(tmp_path, capsys, command, blocked):
    # --out is a file, or a file the command writes is a directory
    out = tmp_path / "out"
    if blocked:
        (out / blocked).mkdir(parents=True)
    else:
        out.write_text("")
    checks = ["--checks", "functoriality"] if command == "check" else []
    assert run(command, "--space", "circle-a3", "--out", out, *checks) == 2
    err = capsys.readouterr().err
    assert "cannot write output: " in err and str(out / blocked) in err
    assert len(err.splitlines()) == 1


def test_space_file_without_covers_exits_2(tmp_path):
    from nervelim.ground import space_to_json
    from nervelim.presets import PRESETS
    from nervelim.report import dump_json

    f = tmp_path / "space.json"
    f.write_text(dump_json(space_to_json(PRESETS["cantor-d3"].factory().ground)))
    assert run("build", "--space", f, "--out", tmp_path / "o") == 2


# ---------------------------------------------------------------------------
# check


def test_check_cantor_all_pass(tmp_path, capsys):
    out = tmp_path / "out"
    code = run("check", "--space", "cantor-d3", "--out", out, "--nets", 200)
    assert code == 0
    report = json.loads((out / "report.json").read_text())
    assert report["all_pass"] and len(report["checks"]) == 15
    assert (out / "betti.csv").exists()
    quotient = json.loads((out / "quotient.json").read_text())
    assert len(quotient["classes"]) == 8
    assert quotient["bijection"] == [[x, c] for x, c in enumerate(range(8))]
    assert quotient["checks"] == {"quotient_comparison": True}
    assert "PASS  section_identity" in capsys.readouterr().out


def test_check_truncated_circle_fails_absorption(tmp_path):
    out = tmp_path / "out"
    code = run("check", "--space", "circle-a3", "--out", out)
    assert code == 1
    report = json.loads((out / "report.json").read_text())
    by_name = {c["check"]: c["pass"] for c in report["checks"]}
    assert by_name["nerve_absorption"] is False
    assert not report["all_pass"]


def test_check_empty_list(tmp_path, capsys):
    # a list naming no check is an input error, not a vacuous pass
    for spec in ("", " , "):
        out = tmp_path / "out"
        assert run("check", "--space", "cantor-d3", "--out", out, "--checks", spec) == 2
        assert capsys.readouterr().err == f"check list {spec!r} names no check\n"
        assert not out.exists()


def test_check_unknown_name_exits_2(tmp_path, capsys):
    code = run("check", "--space", "cantor-d3", "--out", tmp_path / "o", "--checks", "nope")
    assert code == 2
    assert "nope" in capsys.readouterr().err


def test_check_selected_subset(tmp_path):
    out = tmp_path / "out"
    code = run(
        "check",
        "--space",
        "wedge2",
        "--out",
        out,
        "--checks",
        "flag_reconstruction,skeleton_equality,betti_stabilization",
    )
    assert code == 0
    report = json.loads((out / "report.json").read_text())
    assert [c["check"] for c in report["checks"]] == [
        "flag_reconstruction",
        "skeleton_equality",
        "betti_stabilization",
    ]
    assert (out / "betti.csv").read_text().splitlines()[-1] == "0|1,F,1,2,0"


def test_check_wedge_defaults_pass(tmp_path):
    out = tmp_path / "out"
    code = run("check", "--space", "wedge2", "--out", out, "--nets", 200)
    assert code == 0
    report = json.loads((out / "report.json").read_text())
    assert report["all_pass"] and len(report["checks"]) == 12


def test_cauchy_sweep_on_one_level_system(tmp_path, capsys):
    # circle-a3 has one level, which is its own top
    out = tmp_path / "out"
    assert run("check", "--space", "circle-a3", "--out", out, "--checks", "cauchy_sweep") == 0
    assert "PASS  cauchy_sweep" in capsys.readouterr().out


def test_fiber_homotopy_without_a_resolved_point_skips(tmp_path, capsys):
    out = tmp_path / "out"
    assert run("check", "--space", "circle-a3", "--out", out, "--checks", "fiber_homotopy") == 1
    assert capsys.readouterr().out == "SKIP  fiber_homotopy\n"
    (entry,) = json.loads((out / "report.json").read_text())["checks"]
    assert entry["details"] == {
        "skipped": "no point is resolved: no top fiber's wedges share one point alone"
    }


def test_thread_checks_read_no_sample_option(tmp_path):
    # the sample options are accepted and read by nothing; the seed is
    # only echoed in the configuration
    checks = ("--checks", "fiber_homotopy,cauchy_sweep")
    a, b = tmp_path / "a", tmp_path / "b"
    assert run("check", "--space", "interval-g8", "--out", a, *checks) == 0
    options = ("--seed", 9, "--nets", 3, "--homotopy-samples", 2)
    assert run("check", "--space", "interval-g8", "--out", b, *checks, *options) == 0
    first, second = (json.loads((out / "report.json").read_text()) for out in (a, b))
    assert first["checks"] == second["checks"]
    assert (first["config"]["seed"], second["config"]["seed"]) == (0, 9)


def test_check_needs_supporting_levels(tmp_path):
    # an antichain of levels has no maximum, so thread checks cannot run
    code = run(
        "check", "--space", "cantor-d3", "--out", tmp_path / "o1",
        "--lambdas", "0;1", "--checks", "star_conditions",
    )
    assert code == 1
    (entry,) = json.loads((tmp_path / "o1" / "report.json").read_text())["checks"]
    assert entry["check"] == "star_conditions" and entry["pass"] is False
    assert entry["details"]["skipped"] == "the selected levels have no maximum level"
    # the preset's betti chain must be among the built levels
    code = run(
        "check", "--space", "cantor-d3", "--out", tmp_path / "o2",
        "--lambdas", "0,1,2", "--checks", "betti_stabilization",
    )
    assert code == 1
    (entry,) = json.loads((tmp_path / "o2" / "report.json").read_text())["checks"]
    assert entry["check"] == "betti_stabilization" and entry["pass"] is False
    assert entry["details"]["skipped"] == "betti chain level L(0) is not among the built levels"


def test_guard_hit_in_a_check_skips_only_that_check(tmp_path, monkeypatch):
    from nervelim import ground

    monkeypatch.setattr(ground, "SELECTION_GUARD", 1)
    out = tmp_path / "out"
    args = ("--space", "cantor-d3", "--out", out)
    assert run("check", *args, "--checks", "selection_completeness,functoriality") == 1
    selection, functoriality = json.loads((out / "report.json").read_text())["checks"]
    assert selection["pass"] is False
    assert selection["details"] == {
        "skipped": "selection search exceeds its guard of 1 partial selections"
    }
    assert functoriality["pass"] is True


def test_skipped_check_shows_as_skip(tmp_path, capsys):
    out = tmp_path / "out"
    args = ("--space", "cantor-d3", "--out", out, "--lambdas", "0;1")
    assert run("check", *args, "--checks", "functoriality,star_conditions") == 1
    assert capsys.readouterr().out.splitlines() == ["PASS  functoriality", "SKIP  star_conditions"]
    assert run("report", "--out", out) == 0
    assert "star_conditions          SKIP" in (out / "report.txt").read_text()
    rows = (out / "checks.csv").read_text().splitlines()
    assert rows[1:] == ["functoriality,pass,null", "star_conditions,SKIP,null"]


def test_default_checks_on_an_antichain_skip_six(tmp_path):
    out = tmp_path / "out"
    assert run("check", "--space", "cantor-d3", "--out", out, "--lambdas", "0;1") == 1
    checks = json.loads((out / "report.json").read_text())["checks"]
    assert [c["check"] for c in checks] == list(ALL_CHECKS)
    skipped = [c["check"] for c in checks if "skipped" in c["details"]]
    assert skipped == [
        "fiber_homotopy",
        "star_conditions",
        "equivalence_classes",
        "quotient_comparison",
        "cauchy_sweep",
        "betti_stabilization",
    ]
    assert not any(c["pass"] for c in checks if c["check"] in skipped)
    assert not (out / "betti.csv").exists() and not (out / "quotient.json").exists()


def test_betti_above_dimension_2(tmp_path):
    # one cover of 5 points by the complements of single points: its nerve
    # is the boundary of a 4-simplex, and one level cannot stabilize
    from itertools import combinations

    from nervelim.ground import GroundSpace, space_to_json
    from nervelim.report import dump_json

    (tmp_path / "space.json").write_text(dump_json(space_to_json(GroundSpace(5))))
    elements = [{"points": list(s)} for s in reversed(list(combinations(range(5), 4)))]
    (tmp_path / "covers.json").write_text(json.dumps({"covers": [{"elements": elements}]}))
    out = tmp_path / "out"
    code = run(
        "check", "--space", tmp_path / "space.json", "--covers", tmp_path / "covers.json",
        "--out", out, "--checks", "betti_stabilization",
    )
    assert code == 1
    rows = json.loads((out / "report.json").read_text())["checks"][0]["details"]["table"]["rows"]
    assert [r["betti"] for r in rows if r["complex"] == "N"] == [[1, 0, 0, 1]]
    assert (out / "betti.csv").read_text() == (
        "level,complex,b0,b1,b2,b3\n0,N,1,0,0,1\n0,F,1,0,0,0\n"
    )


def _write_family(tmp_path, family):
    """Write ``family`` as space and cover files; the flags that read them."""
    from nervelim.ground import family_to_json

    (tmp_path / "space.json").write_text(dump_json(space_to_json(family.ground)))
    (tmp_path / "covers.json").write_text(dump_json(family_to_json(family)))
    return ("--space", tmp_path / "space.json", "--covers", tmp_path / "covers.json")


def _double_wrap(m):
    """The circle of 4m points; cover 1 is 2m closed arcs A_0..A_{2m-1}
    and cover 0 the antipodal unions E_i = A_i | A_{i+m}."""
    from fractions import Fraction

    from nervelim.ground import (
        Arcs,
        CircleGrid,
        CoverFamily,
        cover_from_pointsets,
        generate_cover,
        generate_space,
    )

    space = generate_space(CircleGrid(), 4 * m)
    arcs = generate_cover(space, Arcs(2 * m, Fraction(0)), cover_id=1)
    pairs = [arcs.elements[i].pointset | arcs.elements[i + m].pointset for i in range(m)]
    return CoverFamily((cover_from_pointsets(0, pairs), arcs), space)


def test_betti_stabilization_fails_on_a_double_wrap(tmp_path):
    # the 12-point circle with six arcs and their three antipodal unions.
    # Both nerves have Betti numbers (1, 1), but the bond N_{0,1} -> N_{0}
    # wraps the circle twice, so it induces 0 on H_1 over GF(2) and the
    # chain has not stabilized.
    files = _write_family(tmp_path, _double_wrap(3))
    out = tmp_path / "out"
    args = ("--lambdas", "chain", "--checks", "betti_stabilization", "--out", out)
    assert run("check", *files, *args) == 1


@pytest.mark.parametrize("m", [3, 4, 5, 6])
def test_double_wraps_do_not_stabilize(tmp_path, m):
    # the bond {0,1} -> {0} of the 2m arcs and their m antipodal unions
    # is onto on H_0 and zero on H_1; the Betti rows are those of the full
    # complexes
    from oracles import full_betti_stabilization

    from nervelim.complexes import LambdaIndex
    from nervelim.systems import build_system

    family = _double_wrap(m)
    out = tmp_path / "out"
    args = ("--lambdas", "chain", "--checks", "betti_stabilization", "--out", out)
    assert run("check", *_write_family(tmp_path, family), *args) == 1
    (report,) = json.loads((out / "report.json").read_text())["checks"]
    table = report["details"]["table"]
    system = build_system(family, [LambdaIndex.of([0]), LambdaIndex.of([0, 1])])
    assert table == full_betti_stabilization(system, [0, 1])
    assert [r["betti"][:2] for r in table["rows"] if r["complex"] == "N"] == [[1, 1], [1, 1]]
    (bond,) = table["bonds"]
    assert (bond["source"], bond["target"], bond["ranks"][:2]) == ([0, 1], [0], [1, 0])
    assert not report["pass"] and not table["nerve_stabilized"]


def test_one_level_betti_chain_is_skipped(tmp_path, capsys):
    # a space file with one cover gives the chain {0} alone: no bond can
    # show it stabilized, so the check is skipped with that reason; the
    # level's Betti rows are still written
    from fractions import Fraction

    from nervelim.ground import Arcs, CircleGrid, CoverFamily, generate_cover, generate_space

    space = generate_space(CircleGrid(), 12)
    family = CoverFamily((generate_cover(space, Arcs(6, Fraction(0)), cover_id=0),), space)
    out = tmp_path / "out"
    files = _write_family(tmp_path, family)
    run("check", *files, "--checks", "betti_stabilization", "--out", out)
    assert capsys.readouterr().out == "SKIP  betti_stabilization\n"
    (report,) = json.loads((out / "report.json").read_text())["checks"]
    assert "one level" in report["details"]["skipped"] and not report["pass"]
    assert (out / "betti.csv").read_text() == "level,complex,b0,b1,b2\n0,N,1,1,0\n0,F,1,1,0\n"


@pytest.mark.parametrize("spec", ["0;5", "-1", "0;;1", "0,;1", "", "0;0", "0,1;1,0"])
def test_bad_lambda_selection_exits_2(tmp_path, capsys, spec):
    # cover ids out of range, negative ids, empty parts and a level twice
    code = run("build", "--space", "cantor-d3", "--out", tmp_path / "o", "--lambdas", spec)
    assert code == 2
    err = capsys.readouterr().err
    assert "lambda selection" in err and len(err.splitlines()) == 1


@pytest.mark.parametrize(
    "flag, value",
    [
        ("--nets", 0),
        ("--homotopy-samples", 0),
        ("--max-dim", -1),
        ("--max-dim", -5),
        ("--max-dim", 5000),
    ],
    ids=["--nets", "--homotopy-samples", "--max-dim=-1", "--max-dim=-5", "--max-dim=5000"],
)
def test_zero_sample_count_exits_2(tmp_path, capsys, flag, value):
    code = run("check", "--space", "wedge2", "--out", tmp_path / "o", flag, value)
    assert code == 2
    err = capsys.readouterr().err
    assert flag in err and len(err.splitlines()) == 1


def _star(n):
    """n points and one cover of the elements {0, i}: every wedge holds
    point 0, so level {0} is a clique of n - 1 vertices."""
    from nervelim.ground import CoverFamily, cover_from_pointsets

    return CoverFamily((cover_from_pointsets(0, [{0, i} for i in range(1, n)]),), GroundSpace(n))


def test_max_dim_bound_stops_at_the_guard_without_a_traceback(tmp_path, capsys):
    # at the largest accepted --max-dim the clique search still raises its
    # guard rather than run out of stack
    from nervelim.complexes import MAX_DIM_LIMIT

    files = _write_family(tmp_path, _star(1100))
    guard = (
        f"level {{0}}: a clique of 1099 vertices exceeds the dimension guard"
        f" (max_dim {MAX_DIM_LIMIT} allows {MAX_DIM_LIMIT + 1})"
    )
    assert run("build", *files, "--max-dim", MAX_DIM_LIMIT, "--out", tmp_path / "b") == 2
    assert capsys.readouterr().err == guard + "\n"
    assert not (tmp_path / "b").exists()
    checks = "nerve_absorption,betti_stabilization"
    out = tmp_path / "c"
    code = run("check", *files, "--max-dim", MAX_DIM_LIMIT, "--checks", checks, "--out", out)
    assert code == 1
    assert capsys.readouterr() == ("SKIP  nerve_absorption\nSKIP  betti_stabilization\n", "")
    entries = json.loads((out / "report.json").read_text())["checks"]
    assert [e["details"] for e in entries] == [{"skipped": guard}] * 2


def test_check_runs_past_the_clique_guard(tmp_path, capsys):
    # circle-24-thick at --max-dim 3: level {0,1} has a clique of 6
    # vertices.  build stops there and writes nothing; check runs every
    # check and skips the two that enumerate a complex
    from fractions import Fraction

    from nervelim.ground import Arcs, CircleGrid, CoverFamily, generate_cover, generate_space

    space = generate_space(CircleGrid(), 24)
    arcs = ((3, Fraction(1)), (6, Fraction(1, 4)), (12, Fraction(1, 4)))
    family = CoverFamily(
        tuple(generate_cover(space, Arcs(n, o), cover_id=i) for i, (n, o) in enumerate(arcs)),
        space,
    )
    files = _write_family(tmp_path, family)
    guard = "level {0,1}: a clique of 6 vertices exceeds the dimension guard (max_dim 3 allows 4)"
    assert run("build", *files, "--max-dim", 3, "--out", tmp_path / "b") == 2
    assert capsys.readouterr().err == guard + "\n"
    assert not (tmp_path / "b").exists()
    assert run("check", *files, "--max-dim", 3, "--out", tmp_path / "c") == 1
    assert capsys.readouterr().err == ""
    checks = json.loads((tmp_path / "c" / "report.json").read_text())["checks"]
    entries = {e["check"]: e for e in checks}
    assert list(entries) == list(ALL_CHECKS)
    for name in ("nerve_absorption", "betti_stabilization"):
        assert entries[name]["details"] == {"skipped": guard} and not entries[name]["pass"]
    for name in ("flag_reconstruction", "skeleton_equality"):
        assert entries[name]["pass"]


@pytest.mark.parametrize(
    "args, message",
    [
        (["--checks", "local_refinement,local_refinement"], "names 'local_refinement' twice"),
    ],
    ids=["check-twice"],
)
def test_bad_run_flags_exit_2(tmp_path, capsys, args, message):
    # flags are validated when they are read, whatever checks run
    assert run("check", "--space", "cantor-d3", "--out", tmp_path / "o", *args) == 2
    err = capsys.readouterr().err
    assert message in err and len(err.splitlines()) == 1
    assert not (tmp_path / "o").exists()


def test_check_explicit_lambdas(tmp_path):
    out = tmp_path / "out"
    code = run(
        "check",
        "--space",
        "cantor-d3",
        "--out",
        out,
        "--lambdas",
        "0;0,1;0,1,2",
        "--checks",
        "functoriality,simpliciality,section_identity",
    )
    assert code == 0


# ---------------------------------------------------------------------------
# report


def test_report_without_run_exits_3(tmp_path, capsys):
    assert run("report", "--out", tmp_path / "nothing") == 3
    assert "report.json" in capsys.readouterr().err


@pytest.mark.parametrize(
    "name, text",
    [
        ("report.json", "{this is not json"),
        ("report.json", '{"checks": [{"check": "fibers", "pass": true}]}'),
        ("report.json", '{"checks": [{"check": null, "pass": true, "details": {}}]}'),
        ("report.json", '{"checks": 3}'),
        ("report.json", '{"checks": [{"check": "a,b\\nc", "pass": true, "details": {}}]}'),
        ("report.json", '{"checks": [{"check": "fibers", "pass": "no", "details": {}}]}'),
        ("report.json", "[]"),
        ("report.json", "\udcff"),
        ("report.json", "[" * 5000 + "]" * 5000),
        ("quotient.json", '{"bijection": [[0]]}'),
        ("quotient.json", '{"bijection": [[1, "x"]]}'),
        ("betti.csv", "\udcff"),
    ],
    ids=[
        "bad-json",
        "no-details",
        "null-name",
        "checks-a-number",
        "unknown-name",
        "pass-not-bool",
        "a-list",
        "not-utf8",
        "deep-nesting",
        "short-row",
        "class-not-int",
        "betti-not-utf8",
    ],
)
def test_malformed_check_run_exits_2(tmp_path, capsys, name, text):
    out = tmp_path / "out"
    out.mkdir()
    (out / "report.json").write_text('{"checks": []}')
    _write(out / name, text)
    assert run("report", "--out", out) == 2
    err = capsys.readouterr().err
    assert str(out / name) in err and len(err.splitlines()) == 1


def test_checks_csv_quotes_a_witness_with_commas(tmp_path):
    out = tmp_path / "out"
    assert run("check", "--space", "circle-a3612", "--out", out, "--checks", "local_refinement") == 0
    assert run("report", "--out", out) == 0
    with (out / "checks.csv").open(newline="") as f:
        rows = list(csv.reader(f))
    assert rows[0] == ["check", "pass", "witness"]
    assert all(len(row) == 3 for row in rows)
    assert [(row[0], json.loads(row[2])) for row in rows[1:]] == [("local_refinement", [0, 1, 2])]


def test_report_renders_tables(tmp_path, capsys):
    out = tmp_path / "out"
    run("check", "--space", "cantor-d3", "--out", out, "--nets", 100)
    capsys.readouterr()
    assert run("report", "--out", out) == 0
    text = capsys.readouterr().out
    assert "betti table" in text
    assert "0|1|2,N,8,0,0" in text
    assert "class/point bijection" in text
    assert (out / "report.txt").exists() and (out / "checks.csv").exists()


# ---------------------------------------------------------------------------
# determinism


# sha256 of every file a seeded check run writes, recorded from an earlier
# version of the code: a change to any byte of these artifacts fails here,
# even when two runs of the changed code agree with each other.
PINNED_ARTIFACTS = {
    "cantor-d3": {
        "betti.csv": "551e9835c72ad7ee43a80a444a6174cca1b4d49e2c0aed6461fd21610995aa40",
        "quotient.json": "4ca45a426a0e4968cdef46a0d2454997634e0bb82ed75c2c9f7b7dc76c05cc94",
        "report.json": "2039083a9b471633d26ca6c734b67d26bbcd963e6bd5c5369df0920e29d84c59",
    },
    "interval-g8": {
        "betti.csv": "48c5917b6a9a6b58df8b682e53fd418d4913379a969560855d67dca2d421b820",
        "quotient.json": "cfb498a329f9e920e047e8ab90411d076117dc2242818d25da201c9d8a2101e2",
        "report.json": "299cf42cc5ccfabb87bb4d78f3c2213037bcde9ea889132ba78482c054be8e16",
    },
    "circle-a3612": {
        "betti.csv": "89e015260a25b286ed0f7a7e9e70607fc6915c67e39cdc5554fad624131aa63c",
        "report.json": "59f4cb36896fd7c1bb34bf90d7426877c2a3aad49c7d5daa255c13586fd08fb0",
    },
    "circle-a3": {
        "report.json": "607d5914df1b7366505aa7307ccf975753f0cad5519139fcb4dcba633ad48121",
    },
    "wedge2": {
        "betti.csv": "3fbc10e665d2c69426846e37b2b37044bfa789b581f332f02d2c8d7ab0b286bc",
        "report.json": "2ea0d2d48e0c26f7cb9c185fb74c9a29b3af7ba5f1b5e256752b251ae17761de",
    },
}


def _no_floats(text):
    raise ValueError(f"float {text} in a written file")


@pytest.mark.parametrize("preset", list(PINNED_ARTIFACTS))
def test_written_json_holds_no_floats(tmp_path, preset):
    # rationals are written as "p/q" strings; dump_json would write a float
    samples = ("--nets", 150, "--homotopy-samples", 5)
    assert run("check", "--space", preset, "--out", tmp_path, *samples) in (0, 1)
    assert run("build", "--space", preset, "--out", tmp_path) == 0
    files = sorted(tmp_path.glob("*.json"))
    assert {"report.json", "space.json", "covers.json", "bonds.json"} <= {f.name for f in files}
    for f in files:
        json.loads(f.read_text(), parse_float=_no_floats, parse_constant=_no_floats)


@pytest.mark.parametrize("preset", list(PINNED_ARTIFACTS))
def test_repeat_runs_are_byte_identical(tmp_path, preset):
    samples = () if preset in ("cantor-d3", "wedge2") else ("--homotopy-samples", 5)
    for out in (tmp_path / "a", tmp_path / "b"):
        code = run("check", "--space", preset, "--out", out, "--seed", 123, "--nets", 150, *samples)
        assert code in (0, 1)
        written = {f.name: hashlib.sha256(f.read_bytes()).hexdigest() for f in out.iterdir()}
        assert written == PINNED_ARTIFACTS[preset]


# sha256 of every file a build writes at the default --max-dim, recorded
# from an earlier version of the code like PINNED_ARTIFACTS.
PINNED_BUILDS = {
    "cantor-d3": {
        "bonds.json": "aa3727680439ef0cb17b0970b852a83531b7c6754a3f8da0dcc1fb36245a3271",
        "covers.json": "c5fbd3aba1b114aabe66fc7fc810c99e37d770ff52db854835ee625ad6bd9115",
        "level_0-1-2.json": "e8af2de58df1bb80ad6da0a809f5c40261202fbd883275592d0731d668ce0778",
        "level_0-1.json": "6fea370c985e62d3291d131528b38c07943c3a6fd911cea8190211893caa2e0b",
        "level_0-2.json": "099348281704b4d501769bd714acc7fc0a384a05e9afd0cd81ceac7c070c4da6",
        "level_0.json": "925c88e73a82605da8b6b2bbe2ade6d5650d6a2bf91a2bcbf7bc862057b6c796",
        "level_1-2.json": "089c173e424ce8561a880a91b328482c7449e1e6a3c407d2f332ebbbc6a10c1d",
        "level_1.json": "09e15bcc53fe9f64b575f127e81fa7377323633d5d9950d8d8c00d0f41201e24",
        "level_2.json": "ed51fa107ad7031be8995245dd1e4f21f9d806bba996d9e063e935d8e42d7c2d",
        "skeleton_0-1-2.dot": "de0fa1f3b54edcf30a0a4beb9da7a3efb26b2c6b550c63b2fc70ee7cefd9d2c6",
        "skeleton_0-1.dot": "84e357f9cb1aef08ca7ff2ea3b06719838450874c518a205520366924397dcfd",
        "skeleton_0-2.dot": "9a94dd56e3d49cdc6e688ae79b2cb29b3750875a4dcc5995493f0f84ded963b5",
        "skeleton_0.dot": "2c0c3d3022a46a475672c3a4dfe39741492a3829e7ccccb14fbf08938564b458",
        "skeleton_1-2.dot": "485ee7604c391f5c67b7460240b06bac29c7cc7c72f923bc8808a6cd25c372d8",
        "skeleton_1.dot": "4b6c076a29884ca481b44ab2df3053aee3db7f778a6c1ac9400b39b59e975a89",
        "skeleton_2.dot": "e642ab09a3e381914e98a6b4f285b9c58e0e9e3403140afde3aba0216b6f5e25",
        "space.json": "45fa98186c07da5051b20983d7094f2ac10ba85213e03f6cad0c715a1cba99c4",
    },
    "interval-g8": {
        "bonds.json": "8e90255d413fe6138a482426135dd28c65552aca4d2e7cb148b8385976356762",
        "covers.json": "ad3176bce201a10c4dae95674a5739c118b887675805b1a1214f74bff23c6cb5",
        "level_0-1-2-3.json": "90b725cf1776ef3380e49f88213564217f16788f895233ade9a5668361c48321",
        "level_0-1-2.json": "a2f919fe128accaa4ee7eb62802b359d21c9c7f9e8a47c59e381925d24bbbea7",
        "level_0-1-3.json": "d429f6695aa99432e6e901cb2bb176c038c8b04950295fdbc7382ad36436e18c",
        "level_0-1.json": "7ee0e5ce4b261d76b84a4cc7af2e0e9c17fc7612f36f14136ee4a26fabde2692",
        "level_0-2-3.json": "74ac6abd05635b4307b43ed04dc9e6408b0f16b2c2539503461892a34e0dad12",
        "level_0-2.json": "1c10ccc2690100ace2b399504fa08a758e63255f660a13a1cccc293f78764013",
        "level_0-3.json": "a5000db39e64a47af4edbc6678f6ac4a57b833e7c9c137d7faaa301e880ab1d2",
        "level_0.json": "e028a3a3fa86291e64ce63e341126a86d4f2fe38fffe8d3bc94c400e6467772f",
        "level_1-2-3.json": "08b0e82254da0f68f06eb08920ef3b036910c50fe02e81a27c796b03c0b0d115",
        "level_1-2.json": "c72167bd27cbd669fb73ff65a421f94314ce068626b685c7eb4d09df5a6f6d8a",
        "level_1-3.json": "149dcdaafb3ee5dbc17b39e285db1af59ac1411a66be089ad29b0899cfa9561d",
        "level_1.json": "6db78218328dbfadc36b67a33664af9104a6ec21f7f18aa26b38e3539e9b5639",
        "level_2-3.json": "ac3785410f264fc291454be9866644c32ad981cf9e001bf6d197e8b837b2f06f",
        "level_2.json": "56a8682745fe45329e1bdec47b5028d45f29549ee0a186733d0868ecb30e6fae",
        "level_3.json": "a19b11ff6262d815a6ab3c2253d92c90f9d63be54c4bead581934a8c1831577f",
        "skeleton_0-1-2-3.dot": "b16bca9d1a17158bb316a4a860f80fb1fcfddfd58c50f8d3a79625c866634053",
        "skeleton_0-1-2.dot": "f16ec207390c48a9fc526397cba22b407a2f1df069f484de596d9596f910b56e",
        "skeleton_0-1-3.dot": "87441f01543bffdcef54870b52d5ec81e6191dd461b9dd444a81c2ed612d9f9d",
        "skeleton_0-1.dot": "e8080efb0009d98dfa970a482b03c364b084180febadbf1b8d37d292603fb53c",
        "skeleton_0-2-3.dot": "67591afaff985bc983fdb49e9d15e202d0e01d624f06b5f94211acfebb42f0a1",
        "skeleton_0-2.dot": "b2737b8657d43487e33a7b66000b97775b477fe7b117f78f51ca2f96ea698dee",
        "skeleton_0-3.dot": "48b4875870d536d757e01e749f1010a1bdd0580cf24b067e8479236900a84c2f",
        "skeleton_0.dot": "85078b959242d61bbde605b9effe2e690d27dc932cee73906a779a1061831f1c",
        "skeleton_1-2-3.dot": "d3fe92fd622d977eb1020d43ab22356361b9a4463586658bc2d2eb6e84eb8197",
        "skeleton_1-2.dot": "7f7cba5bb8a9a949ee30e12487973e75ec4b7f611b9842c7b52ed5f15ff48f6b",
        "skeleton_1-3.dot": "76d40918a35cbaa5389c588e9558fa55a71d6fa3cab151c4f6273a25a1b21751",
        "skeleton_1.dot": "bd280ee27019b93c637e42a7ea85a6893c2f04f116cf889ffccfd603b2742757",
        "skeleton_2-3.dot": "ff26b9a852eda2ff894ba5c854cba92100c5c9ccd02981596f425caa2a83ddf8",
        "skeleton_2.dot": "4cc290f4e7ef298acdaa9bdbc59d1b0ee090113beb738cdf66dea8fa37f33f2c",
        "skeleton_3.dot": "ef14d51c6af3aeadef2e248ab91b1ecae53a0fa9b77ef8bf755a3be4c99658a3",
        "space.json": "71f6419ff520f96d1628a53eb7caec4c281f1c507062b7feba9a513d2de96293",
    },
    "circle-a3612": {
        "bonds.json": "192fa3f3f686a5757345147eb2c2d66f15e7957fb12e9b49c37be5f607d11ac2",
        "covers.json": "cc86744bb121e33c3f461264157accc28d615e7d0c12bc1d1cd51d17e21c6a8a",
        "level_0-1-2.json": "67feec06c5d33af928f43510da3401777461214bfe8eec2035b56da3609d8142",
        "level_0-1.json": "c5c3894014844427aaffa13f9752918c7e7fd8dd1fdc92f215d93e31200c65e6",
        "level_0-2.json": "5d072414eee6254a45bdac7e9f10569719a495effe3b48200bbea3a7ab3508e4",
        "level_0.json": "7a2148881d411a46c89930a4b8c57cfef0dd7dce069205d30713f4b32e82c14d",
        "level_1-2.json": "52a3ba5c456267379b8df8235a1b2916e38611152dd8cfd5552b6bcac304a529",
        "level_1.json": "cf29a612dddfc800d7b0804cd95d020ee051752af4758edeb1994820a4b40dcd",
        "level_2.json": "cea913e86bfe95e52c46344babeb543835074e01323c30024a4adcca79499cbd",
        "skeleton_0-1-2.dot": "2b22babc422d4fcda9db7cc3001d3097ed4ea49323334ed43a87cbd149d017b1",
        "skeleton_0-1.dot": "9d1ef6a77ee7ecdbfbb0e5d4e943bdb4e2aa68cfff92d4373e6430ab8c473be0",
        "skeleton_0-2.dot": "a3de5f06cc192dfb98913c090a3bcc018531d5b0de676e90fcc87f53ed33440a",
        "skeleton_0.dot": "5f42c636fea6c79091e9a0368006947bc7a9fcf2216ff50acfa52011ed0f4123",
        "skeleton_1-2.dot": "740ddbf1ac6b07f2f15d3d599ff4a78a450852c4ad71691daf004358117d7fa9",
        "skeleton_1.dot": "ac15697b79b26091bee59b7fec7659382ad0f91e97b067ee0e946e4271ddf7a5",
        "skeleton_2.dot": "074e5d371e49d32521ca8f9319d62abd00d0e5f86ba6de595177b82faeb2d8b7",
        "space.json": "288713e7e3bdb8cbb0b4f605b6d181943e9b770cf826c31fb48afda72df1d7db",
    },
    "circle-a3": {
        "bonds.json": "6ff31f8039ae448582485a0f779b480bb3e79d8588eadac7f850ee577e714b18",
        "covers.json": "c5c76f67e4db5bc8bbc482879eecaabb9d632869465c327af5e579bf9c594415",
        "level_0.json": "7a2148881d411a46c89930a4b8c57cfef0dd7dce069205d30713f4b32e82c14d",
        "skeleton_0.dot": "5f42c636fea6c79091e9a0368006947bc7a9fcf2216ff50acfa52011ed0f4123",
        "space.json": "288713e7e3bdb8cbb0b4f605b6d181943e9b770cf826c31fb48afda72df1d7db",
    },
    "wedge2": {
        "bonds.json": "6a81ad03d3770f25994d3dde6f2aa7f2378061fba6bebd36f9fdae9a392e017a",
        "covers.json": "98eae59b12008493923e132735a3bca173bf13e306872116c3c77c09f458b6bb",
        "level_0-1.json": "8b46efb7ab1a651c5d85995e2f0d83ca76e42ba451afb3020498862e1cf01ab3",
        "level_0.json": "b5b949e3b9ea4589823d876a59802a0ef88af9aa8e12f744f37db42c8808c023",
        "level_1.json": "e334689f861cee731e2e1cd81e1cf0844071dcdf562cffcbf9a930d6ba6fb29e",
        "skeleton_0-1.dot": "c6f8b7b6132ef3485fb5c0985a8a753a5fd18bc6a5492d5b9fffc00f52be88a6",
        "skeleton_0.dot": "6930a2c288c97aa4873eed6ea00f62681f49a4f27b21a81eb4864b983d8595d6",
        "skeleton_1.dot": "1a9f6917f11998044bba3fa18b7417f0b931168512f345ec8877db2a2763ca26",
        "space.json": "f19046b82a5a80a7fae3bfef65a1fadcc12e3dc78f9423e89926109e3fb84ab7",
    },
}


@pytest.mark.parametrize("preset", list(PINNED_BUILDS))
def test_build_artifacts_are_pinned(tmp_path, preset):
    assert run("build", "--space", preset, "--out", tmp_path) == 0
    written = {f.name: hashlib.sha256(f.read_bytes()).hexdigest() for f in tmp_path.iterdir()}
    assert written == PINNED_BUILDS[preset]


# ---------------------------------------------------------------------------
# the command line as a whole


def test_runners_look_up_their_checks_when_called(monkeypatch):
    # A tracer rebinds the functions of the library modules.  A runner that
    # held a function object would run it unseen, and that function would
    # reach a rebound name only from inside its own body.
    from nervelim import cells, ground, homology, systems
    from nervelim.checks import CHECKS
    from nervelim.cli import RunConfig, _load_context

    class Called(Exception):
        pass

    def stub(*args, **kwargs):
        raise Called

    config = RunConfig("cantor-d3", None, "all", None, Path("unused"), 0, 8)
    ctx = _load_context(config)
    modules = (cells, ground, homology, systems)
    for mod in modules:
        for name, value in list(vars(mod).items()):
            if inspect.isfunction(value) and value.__module__ == mod.__name__:
                monkeypatch.setattr(mod, name, stub)
    library_files = {mod.__file__ for mod in modules}
    for name, runner in CHECKS.items():
        with pytest.raises(Called) as called:
            runner(ctx)
        frames = traceback.extract_tb(called.tb)
        assert not [f for f in frames if f.filename in library_files], name


def test_readme_lists_every_check_in_order():
    readme = (Path(__file__).parent.parent / "README.md").read_text()
    start = readme.index("Check names for `--checks`:")
    listed = re.findall(r"`(\w+)`", readme[start : readme.index(".\n", start)])
    assert listed == list(ALL_CHECKS)


TWO_COVERS = [[[0, 1], [1, 2, 3]], [[0], [1, 2], [2, 3]]]
SPACE_FILES = {
    "four-points": dump_json(space_to_json(GroundSpace(4))),
    "zero-denominator": json.dumps(
        {"points": 1, "coords": [["1/0"]], "metric": "euclidean", "labels": None}
    ),
    "truncated": '{"points": 4',
    "a-list": "[]",
    "fractional-count": json.dumps({**space_to_json(GroundSpace(4)), "points": 4.5}),
    "boolean-count": json.dumps({**space_to_json(GroundSpace(1)), "points": True}),
    "not-utf8": "\udcff",  # written as the byte 0xff
    "deep-nesting": "[" * 5000 + "]" * 5000,
}
COVERS_FILES = {
    "two-covers": json.dumps(
        {"covers": [{"elements": [{"points": e} for e in c]} for c in TWO_COVERS]}
    ),
    "no-covers": '{"covers": []}',
    "empty-element": '{"covers": [{"elements": [{"points": []}]}]}',
    "infinite-point": '{"covers": [{"elements": [{"points": [0, 1, 2, 3, 1e400]}]}]}',
    "a-list": "[1, 2]",
    "truncated": '{"covers": [',
    "fractional-point": '{"covers": [{"elements": [{"points": [0, 1.7, 2, 3]}]}]}',
    "boolean-point": '{"covers": [{"elements": [{"points": [0, true, 2, 3]}]}]}',
    "not-utf8": "\udcff",
}
# report.json of a check run, for the report command; "missing" writes none
REPORT_FILES = {
    "valid": dump_json(
        {"checks": [{"check": "fibers", "pass": True, "witness": None, "details": {}}]}
    ),
    "missing": None,
    "truncated": '{"checks": [',
    "not-utf8": "\udcff",
    "deep-nesting": "[" * 5000 + "]" * 5000,
    "a-list": "[]",
    "checks-a-number": '{"checks": 3}',
    "entry-a-string": '{"checks": ["fibers"]}',
    "no-details": '{"checks": [{"check": "fibers", "pass": true}]}',
    "details-a-list": '{"checks": [{"check": "fibers", "pass": true, "details": []}]}',
    "null-name": '{"checks": [{"check": null, "pass": true, "details": {}}]}',
}
# a valid command line around each crashing file of the explicit examples
FUZZ_DEFAULTS = dict(
    lambdas="all", checks=None, nets=1, samples=1, report="valid"
)


def _write(path, text):
    """Write ``text`` as UTF-8, with each lone surrogate as the byte it escapes."""
    path.write_bytes(text.encode("utf-8", "surrogateescape"))


def _mostly(valid, junk):
    """Valid values two draws in three, so that many runs get past parsing."""
    return st.one_of(valid, valid, junk)


@settings(max_examples=150, deadline=None)
@example(command="check", space="four-points", covers="no-covers", **FUZZ_DEFAULTS)
@example(command="build", space="four-points", covers="no-covers", **FUZZ_DEFAULTS)
@example(command="check", space="zero-denominator", covers="two-covers", **FUZZ_DEFAULTS)
@example(command="build", space="four-points", covers="fractional-point", **FUZZ_DEFAULTS)
@example(
    command="report", space="cantor-d3", covers="two-covers", **{**FUZZ_DEFAULTS, "report": "no-details"}
)
@given(
    command=st.sampled_from(["build", "check", "report"]),
    space=_mostly(st.sampled_from(["cantor-d3", "four-points"]), st.sampled_from(list(SPACE_FILES))),
    covers=_mostly(st.just("two-covers"), st.sampled_from(list(COVERS_FILES))),
    lambdas=_mostly(
        st.sampled_from(["all", "chain", "0", "0;1", "0;0,1", "1;0,1,2"]),
        st.text("0123456789;,- ", max_size=8),
    ),
    checks=st.none()
    | st.lists(st.sampled_from([*ALL_CHECKS, "nope", " fibers ", ""]), max_size=4).map(",".join),
    nets=_mostly(st.integers(1, 3), st.integers(-1, 3)),
    samples=_mostly(st.integers(1, 3), st.integers(-1, 3)),
    report=st.sampled_from(list(REPORT_FILES)),
)
def test_fuzzed_command_lines_exit_cleanly(
    command, space, covers, lambdas, checks, nets, samples, report
):
    # every run ends in an exit code, and an input error in one stderr line
    with TemporaryDirectory() as tmp:
        root = Path(tmp)
        argv = [command, f"--out={root / 'out'}"]
        if command == "report":
            text = REPORT_FILES[report]
            if text is not None:
                (root / "out").mkdir()
                _write(root / "out" / "report.json", text)
        else:
            argv.append(f"--lambdas={lambdas}")
            if space in SPACE_FILES:
                _write(root / "space.json", SPACE_FILES[space])
                _write(root / "covers.json", COVERS_FILES[covers])
                argv += [f"--space={root / 'space.json'}", f"--covers={root / 'covers.json'}"]
            else:
                argv.append(f"--space={space}")
        if command == "check":
            argv += [f"--nets={nets}", f"--homotopy-samples={samples}"]
            if checks is not None:
                argv.append(f"--checks={checks}")
        err = io.StringIO()
        with redirect_stdout(io.StringIO()), redirect_stderr(err):
            code = main(argv)
    event(f"exit {code}")
    assert code in (0, 1, 2, 3)
    if code == 2:
        assert len(err.getvalue().splitlines()) == 1, err.getvalue()
