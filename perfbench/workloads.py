"""The benchmark's workloads: which CLI operations run, and what each must output.

Every workload is a closed loop of ``nervelim`` operations run one after
another by a single client, one process per operation.  No operation takes
more than a few seconds, so that a run passes over them many times and can
report medians.  Each operation carries its own correctness gate, a
function of its output directory and exit code that returns the problems
it finds.  One operation per workload is run a second time in every run,
untraced and with the same seed, and its output directory must hash to the
same digest.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

HERE = Path(__file__).resolve().parent

# problems found in (output directory, exit code)
Gate = Callable[[Path, int], list[str]]


@dataclass(frozen=True)
class Op:
    name: str
    # nervelim arguments; "{in}" is the inputs directory, "{seed}" the seed
    args: tuple[str, ...]
    gate: Gate


@dataclass(frozen=True)
class Workload:
    name: str
    # families the set-up step generates (none: the workload uses presets)
    families: tuple[str, ...]
    ops: tuple[Op, ...]
    # index of the operation run a second time, untraced, after the last
    # pass: its output must be byte-identical, and in a traced run the two
    # times give the tracing overhead
    repeat: int


# ---------------------------------------------------------------------------
# gates


def _report(out: Path) -> dict:
    return json.loads((out / "report.json").read_text())


def verdicts_gate(exit_code: int, verdicts: dict[str, bool]) -> Gate:
    """Exit code and the pass/fail verdict of every check, in order."""

    def gate(out: Path, code: int) -> list[str]:
        problems = [] if code == exit_code else [f"exit code {code}, expected {exit_code}"]
        got = {c["check"]: c["pass"] for c in _report(out)["checks"]}
        if list(got) != list(verdicts):
            problems.append(f"checks {list(got)}, expected {list(verdicts)}")
        problems += [
            f"{name}: pass={got.get(name)}, expected {want}"
            for name, want in verdicts.items()
            if got.get(name) is not want
        ]
        return problems

    return gate


def level_sizes(out: Path) -> dict[str, dict]:
    """Label-free sizes of every level file of a build: vertices, and the
    simplices of each dimension of the flag complex and the nerve."""
    sizes = {}
    for path in sorted(out.glob("level_*.json")):
        data = json.loads(path.read_text())
        entry = {"vertices": len(data["flag_complex"]["vertices"])}
        for kind in ("flag_complex", "nerve_complex"):
            per_dim: dict[int, int] = {}
            for s in data[kind]["simplices"]:
                per_dim[len(s) - 1] = per_dim.get(len(s) - 1, 0) + 1
            entry[kind] = [per_dim.get(d, 0) for d in range(max(per_dim) + 1)]
        sizes[path.stem] = entry
    return sizes


def sizes_gate(family: str) -> Gate:
    """Exit code 0 and the level sizes recorded in ``expected.json``."""

    def gate(out: Path, code: int) -> list[str]:
        expected = json.loads((HERE / "expected.json").read_text())["level_sizes"][family]
        problems = [] if code == 0 else [f"exit code {code}, expected 0"]
        got = level_sizes(out)
        if len(got) != len(expected):
            problems.append(f"{len(got)} level files, expected {len(expected)}")
        problems += [
            f"{level}: {got.get(level)}, expected {want}"
            for level, want in expected.items()
            if got.get(level) != want
        ]
        return problems

    return gate


def betti_gate(rows: list[tuple[str, str, list[int]]]) -> Gate:
    """Exit code 0 and the Betti table (level, complex, Betti numbers)."""

    def gate(out: Path, code: int) -> list[str]:
        problems = [] if code == 0 else [f"exit code {code}, expected 0"]
        (check,) = _report(out)["checks"]
        got = [
            ("|".join(map(str, r["level"])), r["complex"], r["betti"])
            for r in check["details"]["table"]["rows"]
        ]
        if got != rows:
            problems.append(f"betti rows {got}, expected {rows}")
        if not check["pass"]:
            problems.append("betti_stabilization failed")
        return problems

    return gate


# ---------------------------------------------------------------------------
# workloads

# The presets' default check lists, written out here rather than imported:
# the expected record must not come from the program under test.
ALL_CHECKS = (
    "local_refinement",
    "selection_completeness",
    "flag_reconstruction",
    "skeleton_equality",
    "functoriality",
    "simpliciality",
    "section_identity",
    "fibers",
    "fiber_homotopy",
    "nerve_absorption",
    "star_conditions",
    "equivalence_classes",
    "quotient_comparison",
    "cauchy_sweep",
    "betti_stabilization",
)
STRUCTURAL_CHECKS = tuple(
    c
    for c in ALL_CHECKS
    if c not in ("star_conditions", "equivalence_classes", "quotient_comparison")
)
CIRCLE_A3_CHECKS = (
    "selection_completeness",
    "flag_reconstruction",
    "skeleton_equality",
    "functoriality",
    "simpliciality",
    "nerve_absorption",
)


# A tenth of the presets' default sample sizes (10,000 Cauchy nets and 50
# homotopy threads), which keeps the split between the two samplers.
PRESET_SAMPLES = ("--nets", "1000", "--homotopy-samples", "5")


def _preset(name: str, checks: tuple[str, ...], failing: tuple[str, ...] = ()) -> Op:
    return Op(
        name,
        ("check", "--space", name, "--seed", "{seed}", *PRESET_SAMPLES),
        verdicts_gate(1 if failing else 0, {c: c not in failing for c in checks}),
    )


def _family(name: str) -> tuple[str, ...]:
    return ("--space", f"{{in}}/{name}.space.json", "--covers", f"{{in}}/{name}.covers.json")


def _build(name: str, lambdas: str) -> tuple[str, ...]:
    return ("build", *_family(name), "--lambdas", lambdas, "--max-dim", "16")


# The query side: the cells Cauchy sweep and the systems homotopy check take
# most of the run; building the systems takes a few percent.
PRESETS_CHECK = Workload(
    "presets-check",
    (),
    (
        _preset("cantor-d3", ALL_CHECKS),
        _preset("interval-g8", ALL_CHECKS),
        _preset("circle-a3612", STRUCTURAL_CHECKS),
        # the 3-arc cover alone never absorbs the flag complex into the nerve
        _preset("circle-a3", CIRCLE_A3_CHECKS, failing=("nerve_absorption",)),
        _preset("wedge2", STRUCTURAL_CHECKS),
    ),
    repeat=4,
)

# The construction and write side, with no checks: build_vertices scans
# 2^21 element tuples at the top of the cantor-d6 chain; all seven levels
# of circle-24-thick, whose top nerve and flag complex have 24,864
# simplices each, are built, verified and written.
SCALE_BUILD = Workload(
    "scale-build",
    ("cantor-d6", "circle-24-thick"),
    (
        Op("cantor-d6", _build("cantor-d6", "chain"), sizes_gate("cantor-d6")),
        Op("circle-24-thick", _build("circle-24-thick", "all"), sizes_gate("circle-24-thick")),
    ),
    repeat=1,
)

# GF(2) homology along a chain whose top nerve and flag complex have
# 5,088 simplices each; gf2_rank takes most of the run.
HOMOLOGY_CHAIN = Workload(
    "homology-chain",
    ("circle-24-3812",),
    (
        Op(
            "circle-24-3812",
            (
                "check",
                *_family("circle-24-3812"),
                "--checks",
                "betti_stabilization",
                "--max-dim",
                "16",
                "--seed",
                "{seed}",
            ),
            betti_gate(
                [
                    ("0", "N", [1, 0, 0]),
                    ("0", "F", [1, 0, 0]),
                    ("0|1", "N", [1, 1, 0, 0, 0, 0]),
                    ("0|1", "F", [1, 1, 0, 0, 0, 0]),
                    ("0|1|2", "N", [1, 1] + [0] * 10),
                    ("0|1|2", "F", [1, 1] + [0] * 10),
                ]
            ),
        ),
    ),
    repeat=0,
)

WORKLOADS = {w.name: w for w in (PRESETS_CHECK, SCALE_BUILD, HOMOLOGY_CHAIN)}
