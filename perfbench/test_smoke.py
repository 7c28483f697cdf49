"""Reduced-size smoke test of the benchmark itself.

    python3 -m pytest perfbench/test_smoke.py

Runs a small workload through the same runner, traced and untraced, and
checks that every metric named in BENCHMARK.json is emitted with its unit,
that the work counts repeat exactly under the same seed, and that a wrong
expected verdict is counted as a failed operation.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
from workloads import (  # noqa: E402
    ALL_CHECKS,
    CIRCLE_A3_CHECKS,
    Op,
    Workload,
    betti_gate,
    verdicts_gate,
)

BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def _built(out: Path, code: int) -> list[str]:
    problems = [] if code == 0 else [f"exit code {code}, expected 0"]
    if not list(out.glob("level_*.json")):
        problems.append("no level files")
    return problems


def small_workload(absorption_passes: bool = False) -> Workload:
    """Every layer on small inputs: two presets with short samples, a build of
    a generated family and a Betti table.  ``absorption_passes`` expects the
    designed circle-a3 failure to pass, which its gate must report."""
    family = ("--space", "{in}/circle-24-thick.space.json",
              "--covers", "{in}/circle-24-thick.covers.json")
    return Workload(
        "smoke",
        ("circle-24-thick",),
        (
            Op("circle-a3", ("check", "--space", "circle-a3", "--seed", "{seed}"),
               verdicts_gate(1, {c: c != "nerve_absorption" or absorption_passes
                                 for c in CIRCLE_A3_CHECKS})),
            Op("cantor-d3", ("check", "--space", "cantor-d3", "--seed", "{seed}", "--nets", "200",
                             "--homotopy-samples", "5"),
               verdicts_gate(0, {c: True for c in ALL_CHECKS})),
            Op("build", ("build", *family, "--lambdas", "0;0,1", "--max-dim", "16"), _built),
            Op("betti", ("check", "--space", "circle-a3612", "--checks", "betti_stabilization"),
               betti_gate([("0", "N", [1, 1]), ("0", "F", [1, 0, 0]),
                           ("0|1", "N", [1, 1, 0, 0]), ("0|1", "F", [1, 1, 0, 0]),
                           ("0|1|2", "N", [1, 1] + [0] * 6), ("0|1|2", "F", [1, 1] + [0] * 6)])),
        ),
        repeat=3,
    )


def _names_and_units(section: str) -> dict[str, str]:
    return {m["name"]: m["unit"] for m in BENCHMARK[section]}


def _check_shape(result: dict, section: str) -> None:
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == _names_and_units(section)
    for m in result["metrics"].values():
        assert isinstance(m["value"], (int, float))
    json.dumps(result)


def test_end_to_end_metrics(tmp_path):
    result = run.run(small_workload(), seed=5, seconds=0, traced=False, work=tmp_path / "w")
    _check_shape(result, "end_to_end")
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] == 5  # four operations and the repeat
    for name in ("wall_cal", "setup_s", "cpu_cal", "peak_rss_mb"):
        assert result["metrics"][name]["value"] > 0


def test_per_layer_metrics_and_exact_counts(tmp_path):
    first = run.run(small_workload(), seed=5, seconds=0, traced=True, work=tmp_path / "a")
    second = run.run(small_workload(), seed=5, seconds=0, traced=True, work=tmp_path / "b")
    _check_shape(first, "per_layer")
    assert first["correct"] and second["correct"]
    counts = [n for n, unit in _names_and_units("per_layer").items() if unit in ("count", "bytes")]
    for name in counts:
        assert first["metrics"][name]["value"] == second["metrics"][name]["value"], name
        assert first["metrics"][name]["value"] > 0, name
    for layer_time in ("cells.cauchy_sweep_s", "systems.check_homotopy_s", "homology.gf2_rank_s",
                       "complexes.verify_s", "report.dump_json_s", "cli.self_s"):
        assert first["metrics"][layer_time]["value"] > 0, layer_time


def test_wrong_expected_verdict_is_a_failed_operation(tmp_path):
    result = run.run(small_workload(absorption_passes=True), seed=5, seconds=0, traced=False,
                     work=tmp_path / "w")
    assert result["failed"] == 1
    assert not result["correct"]
    assert result["attempted"] == 5
