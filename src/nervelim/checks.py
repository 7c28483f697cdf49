"""The check registry: the one place a check is defined.

``CHECKS`` maps each check name, in report order, to a runner that takes
the run's context and returns the report and the extra artifacts to write,
by file name.  A runner looks its check function up in the defining module
when it is called, so a function rebound there is the one that runs.  A
check whose precondition the selected levels do not meet raises
``PreconditionUnmet``, and one that hits an enumeration guard raises
``GuardExceeded``; the check command records either as skipped.
``betti_stabilization`` on a one-level chain returns its skipped report
itself, so that the level's Betti rows are still written.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import TYPE_CHECKING, Callable

from . import cells, ground, homology, systems
from .complexes import LambdaIndex
from .errors import PreconditionUnmet
from .report import FORMAT_VERSION, Report

if TYPE_CHECKING:
    from .presets import Preset


def betti_chain(preset: Preset) -> list[LambdaIndex]:
    """The preset's Betti chain, as level names."""
    return [LambdaIndex.of(ids) for ids in preset.chain]


@dataclass
class RunContext:
    preset: Preset
    system: systems.InverseSystem

    @cached_property
    def equivalence(self) -> cells.EquivalenceResult:
        """The thread quotient, shared by the checks that read it."""
        return cells.equivalence_classes(self.system)

    def neighborhoods(self):
        return self.preset.neighborhoods(self.system.family.ground)


Runner = Callable[[RunContext], tuple[Report, dict]]


def _with_quotient(ctx: RunContext, report: Report, bijection: bool) -> tuple[Report, dict]:
    """The report, and ``quotient.json`` when the thread relation has a
    quotient."""
    quotient = ctx.equivalence.quotient
    if quotient is None:
        return report, {}
    rows = enumerate(cells.point_classes(ctx.system, quotient)) if bijection else ()
    return report, {
        "quotient.json": {
            "format_version": FORMAT_VERSION,
            **quotient.to_json(),
            "bijection": [list(row) for row in rows],
            "checks": {report.check: report.passed},
        }
    }


def _betti_stabilization(ctx: RunContext) -> tuple[Report, dict]:
    position = ctx.system.position
    chain = betti_chain(ctx.preset)
    missing = [lam for lam in chain if lam not in position]
    if missing:
        raise PreconditionUnmet(
            f"betti chain level {missing[0]} is not among the built levels"
        )
    table = homology.betti_stabilization(ctx.system, [position[lam] for lam in chain])
    last = [r for r in table.rows if r.complex_kind == "N"][-1].bettis
    expected = ctx.preset.expected_betti
    passed = (expected is None or last.agrees_with(expected)) and (
        table.nerve_stabilized or not ctx.preset.expect_stabilized
    )
    details = {"table": table.to_json(), "expected_nerve": expected}
    if len(chain) < 2 and ctx.preset.expect_stabilized:
        passed = False
        details["skipped"] = "the betti chain has one level, so no bond can show it stabilized"
    return Report("betti_stabilization", passed, details=details), {"betti.csv": table.csv()}


CHECKS: dict[str, Runner] = {
    "local_refinement": lambda ctx: (
        ground.check_local_refinement(ctx.system.family, ctx.neighborhoods()), {}
    ),
    "selection_completeness": lambda ctx: (
        ground.check_selection_completeness(ctx.system.family), {}
    ),
    "flag_reconstruction": lambda ctx: (systems.check_flag_reconstruction(ctx.system), {}),
    "skeleton_equality": lambda ctx: (systems.check_skeleton_equality(ctx.system), {}),
    "functoriality": lambda ctx: (systems.check_functoriality(ctx.system), {}),
    "simpliciality": lambda ctx: (systems.check_simpliciality(ctx.system), {}),
    "section_identity": lambda ctx: (systems.check_section_identity(ctx.system), {}),
    "fibers": lambda ctx: (systems.check_fibers(ctx.system), {}),
    "fiber_homotopy": lambda ctx: (systems.check_homotopy(ctx.system), {}),
    "nerve_absorption": lambda ctx: (systems.check_nerve_absorption(ctx.system), {}),
    "star_conditions": lambda ctx: (cells.check_star_conditions(ctx.system), {}),
    "equivalence_classes": lambda ctx: _with_quotient(
        ctx, cells.check_equivalence(ctx.equivalence), bijection=False
    ),
    "quotient_comparison": lambda ctx: _with_quotient(
        ctx, cells.compare_quotient_to_ground(ctx.system, ctx.equivalence), bijection=True
    ),
    "cauchy_sweep": lambda ctx: (cells.cauchy_sweep(ctx.system), {}),
    "betti_stabilization": _betti_stabilization,
}

ALL_CHECKS = tuple(CHECKS)
