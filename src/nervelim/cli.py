"""Command line surface: build level complexes, run checks, render reports.

Exit codes: 0 all checks pass, 1 a check failed, 2 input error, 3 missing
artifacts.  Runs with the same configuration produce byte identical
output files.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from pathlib import Path
from typing import NamedTuple, Sequence

from . import systems
from .checks import CHECKS, RunContext, betti_chain
from .complexes import (DEFAULT_MAX_DIM, MAX_DIM_LIMIT, LambdaIndex, build_complexes,
                        complex_to_json, maximal_cliques, skeleton_dot)
from .errors import GuardExceeded, InputError, PreconditionUnmet
from .ground import family_to_json, load_family, load_space, space_to_json
from .presets import PRESETS, Preset, file_preset
from .report import FORMAT_VERSION, Report, level_rows, read_json, row_steps, write_json

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_INPUT_ERROR = 2
EXIT_MISSING_ARTIFACTS = 3


class RunConfig(NamedTuple):
    space: str
    covers: str | None
    lambdas: str
    checks: list[str] | None
    out: Path
    seed: int
    max_dim: int

    def echo(self) -> dict:
        return {
            "space": self.space,
            "covers": self.covers,
            "lambdas": self.lambdas,
            "seed": self.seed,
            "max_dim": self.max_dim,
        }


def _parse_lambdas(spec: str, n_covers: int, preset: Preset) -> list[LambdaIndex] | None:
    if spec == "all":
        return None  # build_system default: all nonempty subsets
    if spec == "chain":
        return betti_chain(preset)
    out = []
    for part in spec.split(";"):
        items = part.split(",")
        if any(not i.strip() for i in items):
            raise InputError(f"lambda selection {spec!r} has an empty part")
        try:
            ids = [int(i) for i in items]
        except ValueError as exc:
            raise InputError(f"cannot parse lambda selection {spec!r}") from exc
        bad = [i for i in ids if not 0 <= i < n_covers]
        if bad:
            raise InputError(
                f"lambda selection {spec!r} names cover {bad[0]}; "
                f"cover ids run from 0 to {n_covers - 1}"
            )
        lam = LambdaIndex.of(ids)
        if lam in out:
            raise InputError(f"lambda selection {spec!r} lists level {lam.json_key()} twice")
        out.append(lam)
    return out


def _load_context(config: RunConfig) -> RunContext:
    if config.space in PRESETS:
        preset = PRESETS[config.space]
    else:
        space = load_space(Path(config.space))
        if config.covers is None:
            raise InputError("a space file needs a covers file")
        preset = file_preset(load_family(Path(config.covers), space))
    family = preset.factory()
    lambdas = _parse_lambdas(config.lambdas, len(family.covers), preset)
    system = systems.build_system(family, lambdas, config.max_dim)
    return RunContext(preset, system)


def _parse_checks(spec: str) -> list[str]:
    names: list[str] = []
    for name in (c.strip() for c in spec.split(",")):
        if not name:
            continue
        if name not in CHECKS:
            raise InputError(f"unknown check name {name!r}")
        if name in names:
            raise InputError(f"check list {spec!r} names {name!r} twice")
        names.append(name)
    if not names:
        raise InputError(f"check list {spec!r} names no check")
    return names


# ---------------------------------------------------------------------------
# commands


def _level_payload(level: systems.Level, max_dim: int) -> dict:
    """A level file's contents, its complexes' rows as the search's text,
    found while the file is written."""
    lam, wedges, steps = level.lam, level.wedges, row_steps(len(level.wedges))
    flag, nerve = level_rows(lambda flush, nerve: build_complexes(
        lam, level.adjacency, wedges, max_dim, steps, flush, nerve))
    return {
        "format_version": FORMAT_VERSION,
        "lambda": list(lam.cover_ids),
        "flag_complex": complex_to_json(lam, level.elements, wedges, flag, True),
        "nerve_complex": complex_to_json(lam, level.elements, wedges, nerve, False),
    }


def cmd_build(config: RunConfig) -> int:
    system = _load_context(config).system
    levels = system.levels
    # the guard first, on every level in order: a guard hit writes nothing
    for lv in levels:
        maximal_cliques(lv.lam, lv.adjacency, system.max_dim)
    out = config.out
    out.mkdir(parents=True, exist_ok=True)
    write_json(out / "space.json", space_to_json(system.family.ground))
    write_json(out / "covers.json", family_to_json(system.family))
    # each level's complexes found while its file is written, and not kept
    written = set()
    for level in levels:
        tag = "-".join(str(i) for i in level.lam.cover_ids)
        written |= {f"level_{tag}.json", f"skeleton_{tag}.dot"}
        write_json(out / f"level_{tag}.json", _level_payload(level, system.max_dim))
        (out / f"skeleton_{tag}.dot").write_text(skeleton_dot(level.adjacency, f"L{tag.replace('-', '_')}"))
    bonds = [
        {
            "source": list(levels[j].lam.cover_ids),
            "target": list(levels[i].lam.cover_ids),
            "vertex_map": list(system.bond(i, j)),
        }
        for i, j in system.pairs
        if i != j
    ]
    write_json(out / "bonds.json", {"format_version": FORMAT_VERSION, "bonds": bonds})
    # the level files of an earlier build, not written by this one
    for path in [*out.glob("level_*.json"), *out.glob("skeleton_*.dot")]:
        if path.name not in written:
            path.unlink()
    print(f"wrote {len(levels)} level files to {out}")
    return EXIT_OK


def cmd_check(config: RunConfig) -> int:
    ctx = _load_context(config)
    names = ctx.preset.checks if config.checks is None else config.checks
    out = config.out
    out.mkdir(parents=True, exist_ok=True)
    reports = []
    extras: dict[str, object] = {}
    for name in names:
        try:
            report, extra = CHECKS[name](ctx)
        except (PreconditionUnmet, GuardExceeded) as exc:
            report, extra = Report(name, False, details={"skipped": str(exc)}), {}
        reports.append(report)
        extras.update(extra)
    payload = {
        "format_version": FORMAT_VERSION,
        "config": config.echo(),
        "checks": [r.to_json() for r in reports],
        "all_pass": all(r.passed for r in reports),
    }
    write_json(out / "report.json", payload)
    for fname, content in sorted(extras.items()):
        if isinstance(content, str):
            (out / fname).write_text(content)
        else:
            write_json(out / fname, content)
    # the extras that report renders, left by an earlier run and not written by this one
    for fname in ("betti.csv", "quotient.json"):
        if fname not in extras:
            (out / fname).unlink(missing_ok=True)
    for r in reports:
        status = "SKIP" if r.details.get("skipped") else "PASS" if r.passed else "FAIL"
        print(f"{status}  {r.check}")
    return EXIT_OK if payload["all_pass"] else EXIT_CHECK_FAILED


def _is_check_entry(chk: object) -> bool:
    """Whether a ``report.json`` entry names a known check and has the
    fields ``report`` reads."""
    return (
        isinstance(chk, dict)
        and isinstance(chk.get("check"), str)
        and chk["check"] in CHECKS
        and isinstance(chk.get("details"), dict)
        and type(chk.get("pass")) is bool
    )


def cmd_report(out: Path) -> int:
    report_path = out / "report.json"
    if not report_path.exists():
        print(f"no report.json under {out}; run the check command first", file=sys.stderr)
        return EXIT_MISSING_ARTIFACTS
    data = read_json(report_path, "check report")
    checks = data.get("checks") if isinstance(data, dict) else None
    if not isinstance(checks, list) or not all(map(_is_check_entry, checks)):
        raise InputError(f"malformed check report {report_path}")
    lines = ["check results", "-------------"]
    rows = [["check", "pass", "witness"]]
    for chk in checks:
        status = "SKIP" if chk["details"].get("skipped") else "pass" if chk["pass"] else "FAIL"
        lines.append(f"{chk['check']:<24} {status}")
        rows.append([chk["check"], status, json.dumps(chk.get("witness"))])
    betti_path = out / "betti.csv"
    if betti_path.exists():
        try:
            betti_table = betti_path.read_text().rstrip()
        except (OSError, ValueError) as exc:
            raise InputError(f"cannot read Betti table {betti_path}: {exc}") from exc
        lines += ["", "betti table", "-----------", betti_table]
    quotient_path = out / "quotient.json"
    if quotient_path.exists():
        q = read_json(quotient_path, "quotient file")
        bijection = q.get("bijection", []) if isinstance(q, dict) else None
        if not isinstance(bijection, list) or not all(
            isinstance(row, list) and len(row) == 2 and all(type(v) is int for v in row)
            for row in bijection
        ):
            raise InputError(f"malformed quotient file {quotient_path}")
        lines += ["", "class/point bijection", "---------------------"]
        for point, cls in bijection:
            lines.append(f"point {point:>3}  ->  class {cls}")
    text = "\n".join(lines) + "\n"
    print(text, end="")
    (out / "report.txt").write_text(text)
    with (out / "checks.csv").open("w", newline="") as f:
        csv.writer(f, lineterminator="\n").writerows(rows)
    return EXIT_OK


# ---------------------------------------------------------------------------
# argument parsing


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--space", required=True, help="preset name or space JSON file")
    p.add_argument("--covers", default=None, help="covers JSON file (unused for presets)")
    p.add_argument(
        "--lambdas",
        default="all",
        help="level selection: all | chain | '0;0,1;0,1,2'",
    )
    p.add_argument("--out", type=Path, required=True, help="output directory")
    p.add_argument("--seed", type=int, default=0, help="no effect; check echoes it in report.json")
    p.add_argument("--max-dim", type=int, default=DEFAULT_MAX_DIM, help="simplex dimension guard")


def main(argv: Sequence[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="nervelim",
        description="build nerve/flag level complexes of cover families and "
        "verify their structural identities",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_build = sub.add_parser("build", help="write level complexes and skeleton files")
    _add_common(p_build)

    p_check = sub.add_parser("check", help="run checks and write a JSON report")
    _add_common(p_check)
    p_check.add_argument(
        "--checks",
        default=None,
        help="comma separated check names (default: the preset's list)",
    )
    # read by nothing; accepted and validated as before because the
    # benchmark's command lines still pass them
    p_check.add_argument("--nets", type=int, default=1, help="no effect (at least 1)")
    p_check.add_argument("--homotopy-samples", type=int, default=1, help="no effect (at least 1)")

    p_report = sub.add_parser("report", help="render tables from a prior check run")
    p_report.add_argument("--out", type=Path, required=True, help="directory of the check run")

    args = parser.parse_args(argv)
    try:
        if args.command == "report":
            return cmd_report(args.out)
        for flag, value in (
            ("--nets", getattr(args, "nets", 1)),
            ("--homotopy-samples", getattr(args, "homotopy_samples", 1)),
        ):
            if value < 1:
                raise InputError(f"{flag} must be at least 1, got {value}")
        if args.max_dim < 0:
            raise InputError(f"--max-dim must be at least 0, got {args.max_dim}")
        if args.max_dim > MAX_DIM_LIMIT:
            raise InputError(f"--max-dim must be at most {MAX_DIM_LIMIT}, got {args.max_dim}")
        checks = None
        if args.command == "check" and args.checks is not None:
            checks = _parse_checks(args.checks)
        config = RunConfig(
            space=args.space,
            covers=args.covers,
            lambdas=args.lambdas,
            checks=checks,
            out=args.out,
            seed=args.seed,
            max_dim=args.max_dim,
        )
        if args.command == "build":
            return cmd_build(config)
        return cmd_check(config)
    except FileNotFoundError as exc:
        print(f"input file not found: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    except OSError as exc:
        # every read of an input file turns its errors into InputError, so
        # this is a failed write under --out
        print(f"cannot write output: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    except (InputError, GuardExceeded) as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_INPUT_ERROR


if __name__ == "__main__":
    raise SystemExit(main())
