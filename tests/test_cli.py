from __future__ import annotations

import json

import pytest

from nervelim.cli import main
from nervelim.complexes import complex_from_json
from nervelim.homology import betti


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
    bad.write_text("{this is not json")
    code = run("build", "--space", bad, "--covers", bad, "--out", tmp_path / "o")
    assert code == 2
    assert "space" in capsys.readouterr().err


def test_build_from_files(tmp_path):
    from nervelim.ground import family_to_json, space_to_json
    from nervelim.presets import PRESETS
    from nervelim.report import dump_json

    space, family = PRESETS["cantor-d3"].factory()
    (tmp_path / "space.json").write_text(dump_json(space_to_json(space)))
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


def test_space_file_without_covers_exits_2(tmp_path):
    from nervelim.ground import space_to_json
    from nervelim.presets import PRESETS
    from nervelim.report import dump_json

    space, _ = PRESETS["cantor-d3"].factory()
    f = tmp_path / "space.json"
    f.write_text(dump_json(space_to_json(space)))
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


def test_check_empty_list(tmp_path):
    out = tmp_path / "out"
    assert run("check", "--space", "cantor-d3", "--out", out, "--checks", "") == 0
    report = json.loads((out / "report.json").read_text())
    assert report["checks"] == [] and report["all_pass"] is True


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


def test_check_sampled_mode_marks_report(tmp_path):
    out = tmp_path / "out"
    code = run(
        "check",
        "--space",
        "cantor-d3",
        "--out",
        out,
        "--checks",
        "selection_completeness",
        "--mode",
        "sampled:40",
    )
    assert code == 0
    report = json.loads((out / "report.json").read_text())
    details = report["checks"][0]["details"]
    assert details["note"] == "sampled, not a proof" and details["samples"] == 40


def test_check_needs_supporting_levels(tmp_path, capsys):
    # an antichain of levels has no maximum, so thread checks cannot run
    code = run(
        "check", "--space", "cantor-d3", "--out", tmp_path / "o1",
        "--lambdas", "0;1", "--checks", "star_conditions",
    )
    assert code == 2
    assert "star_conditions" in capsys.readouterr().err
    # the preset's betti chain must be among the built levels
    code = run(
        "check", "--space", "cantor-d3", "--out", tmp_path / "o2",
        "--lambdas", "0,1,2", "--checks", "betti_stabilization",
    )
    assert code == 2


@pytest.mark.parametrize("spec", ["0;5", "-1", "0;;1", "0,;1", ""])
def test_bad_lambda_selection_exits_2(tmp_path, capsys, spec):
    # cover ids out of range, negative ids and empty parts
    code = run("build", "--space", "cantor-d3", "--out", tmp_path / "o", "--lambdas", spec)
    assert code == 2
    err = capsys.readouterr().err
    assert "lambda selection" in err and len(err.splitlines()) == 1


@pytest.mark.parametrize("flag", ["--nets", "--homotopy-samples"])
def test_zero_sample_count_exits_2(tmp_path, capsys, flag):
    code = run("check", "--space", "wedge2", "--out", tmp_path / "o", flag, 0)
    assert code == 2
    assert flag in capsys.readouterr().err


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


@pytest.mark.parametrize("preset", ["cantor-d3", "wedge2"])
def test_repeat_runs_are_byte_identical(tmp_path, preset):
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        assert run("check", "--space", preset, "--out", out, "--seed", 123, "--nets", 150) in (0, 1)
    for name in ("report.json", "betti.csv"):
        assert (a / name).read_bytes() == (b / name).read_bytes()
