"""Spans and work counts around the public functions of each nervelim layer.

``Tracer.install`` wraps the functions listed in ``TRACED`` and rebinds
every name under which a ``nervelim`` module imported them, so calls from
one module into another are seen too.  Each call records a span: function
name, start, end (``perf_counter_ns``) and the index of the enclosing span.
Some functions also record work counts, computed from the arguments and
the result after the span has closed, so their cost falls in the caller's
self time.  Spans stay in memory until ``dump``.

``derive`` turns the spans of one operation into per-layer totals; the
benchmark sums them over the operations of a pass.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import Counter
from pathlib import Path


def _vertices(args, kwargs, result) -> dict:
    family, lam = args[0], args[1]
    tuples = 1
    for i in lam.cover_ids:
        tuples *= len(family.covers[i].elements)
    return {"complexes.tuples_scanned": tuples, "complexes.vertices": len(result)}


def _nerve(args, kwargs, result) -> dict:
    fiber: Counter = Counter()
    for v in result.vertices:
        fiber.update(v.wedge)
    return {
        "complexes.simplices": len(result.simplices),
        "complexes.max_fiber": max(fiber.values(), default=0),
    }


# layer -> function name -> None, or a function of (args, kwargs, result)
# giving the call's work counts by metric name.  Methods are written
# "Class.method".  Functions left out run inside the span of their caller.
TRACED = {
    "ground": {
        "generate_space": None,
        "generate_cover": None,
        "load_space": None,
        "load_family": None,
        "partition_tables": None,
        "check_local_refinement": None,
        "check_selection_completeness": None,
        "space_to_json": None,
        "family_to_json": None,
    },
    "complexes": {
        "build_vertices": _vertices,
        "build_flag": lambda a, k, r: {"complexes.simplices": len(r.simplices)},
        "build_nerve": _nerve,
        "SimplicialMap.verify": lambda a, k, r: {
            "complexes.verify_images": len(a[0].source.simplices)
        },
        "complex_to_json": None,
        "skeleton_dot": None,
    },
    "systems": {
        "build_system": None,
        "canonical_map": lambda a, k, r: {"systems.canonical_map_calls": 1},
        "PointThread.from_top": None,
        "check_homotopy": lambda a, k, r: {
            "systems.homotopy_kept": r.details.get("threads", r.details.get("found", 0))
        },
        "check_section_identity": None,
        "check_fibers": None,
        "check_nerve_absorption": None,
        "check_functoriality": None,
        "check_simpliciality": None,
        "check_flag_reconstruction": None,
        "check_skeleton_equality": None,
        "check_fiber_adjacency": None,
    },
    "cells": {
        "build_graph_system": None,
        "check_star_conditions": None,
        "equivalence_classes": lambda a, k, r: {"cells.equivalence_classes_calls": 1},
        "check_equivalence": None,
        "compare_quotient_to_ground": None,
        "cauchy_sweep": None,
        "sample_cauchy_nets": lambda a, k, r: {"cells.nets_kept": len(r)},
        "is_cauchy": None,
        "converge": None,
    },
    "homology": {
        "betti_stabilization": None,
        "betti": None,
        "boundary_matrix": lambda a, k, r: {"homology.boundary_columns": len(r.cols)},
        "gf2_rank": None,
    },
    "report": {
        "dump_json": None,
    },
    "cli": {
        "main": None,
        "cmd_build": None,
        "cmd_check": None,
        "cmd_report": None,
    },
}


class Tracer:
    """Records spans of the traced functions of one operation."""

    def __init__(self, op_id: str) -> None:
        self.op_id = op_id
        # [name, start_ns, end_ns, parent index, counts or None]
        self.spans: list[list] = []
        self._stack = [-1]

    def _wrap(self, name: str, fn, count):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [name, clock(), 0, stack[-1], None]
            stack.append(len(spans))
            spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if count is not None:
                try:
                    rec[4] = count(args, kwargs, result)
                except Exception:  # the traced program must not fail for a count
                    rec[4] = {"trace.count_errors": 1}
            return result

        return traced

    def install(self) -> None:
        """Wrap every function in ``TRACED`` and rebind its imported names.

        A listed function the program no longer has is skipped; its
        metrics then read 0."""
        import nervelim.cli  # noqa: F401  (loads every layer)

        modules = {k: m for k, m in sys.modules.items() if k.startswith("nervelim")}
        replaced = {}
        for layer, names in TRACED.items():
            mod = modules[f"nervelim.{layer}"]
            for name, count in names.items():
                full = f"{layer}.{name}"
                if "." in name:
                    cls_name, meth = name.split(".")
                    raw = vars(getattr(mod, cls_name, object)).get(meth)
                    if isinstance(raw, classmethod):
                        wrapped = classmethod(self._wrap(full, raw.__func__, count))
                        setattr(getattr(mod, cls_name), meth, wrapped)
                    elif raw is not None:
                        setattr(getattr(mod, cls_name), meth, self._wrap(full, raw, count))
                    continue
                fn = getattr(mod, name, None)
                if fn is not None:
                    replaced[id(fn)] = self._wrap(full, fn, count)
        for mod in modules.values():
            for attr, value in list(vars(mod).items()):
                wrapper = replaced.get(id(value))
                if wrapper is not None:
                    setattr(mod, attr, wrapper)

    def dump(self, path: Path) -> None:
        path.write_text(json.dumps({"op": self.op_id, "spans": self.spans}))


# ---------------------------------------------------------------------------
# derived per-layer figures


# metric -> functions whose outermost spans are summed
TIMES = {
    "ground.load_s": (
        "ground.generate_space",
        "ground.generate_cover",
        "ground.load_space",
        "ground.load_family",
    ),
    "ground.partition_tables_s": ("ground.partition_tables",),
    "ground.checks_s": ("ground.check_local_refinement", "ground.check_selection_completeness"),
    "complexes.build_vertices_s": ("complexes.build_vertices",),
    "complexes.build_flag_s": ("complexes.build_flag",),
    "complexes.build_nerve_s": ("complexes.build_nerve",),
    "complexes.verify_s": ("complexes.SimplicialMap.verify",),
    "complexes.serialize_s": ("complexes.complex_to_json", "complexes.skeleton_dot"),
    "report.dump_json_s": ("report.dump_json",),
    "systems.build_system_s": ("systems.build_system",),
    "systems.check_homotopy_s": ("systems.check_homotopy",),
    "systems.canonical_map_s": ("systems.canonical_map",),
    "systems.structural_checks_s": tuple(
        f"systems.{n}"
        for n in TRACED["systems"]
        if n.startswith("check_") and n != "check_homotopy"
    ),
    "cells.cauchy_sweep_s": ("cells.cauchy_sweep",),
    "cells.converge_s": ("cells.converge",),
    "cells.build_graph_system_s": ("cells.build_graph_system",),
    "cells.quotient_s": (
        "cells.check_star_conditions",
        "cells.equivalence_classes",
        "cells.check_equivalence",
        "cells.compare_quotient_to_ground",
    ),
    "homology.betti_s": ("homology.betti",),
    "homology.boundary_matrix_s": ("homology.boundary_matrix",),
    "homology.gf2_rank_s": ("homology.gf2_rank",),
}

LAYERS = tuple(TRACED)


# function -> the TIMES metrics it belongs to
_METRICS_OF: dict[str, list[str]] = {}
for _metric, _group_names in TIMES.items():
    for _name in _group_names:
        _METRICS_OF.setdefault(_name, []).append(_metric)

# counts that take the largest value rather than the sum
MAX_COUNTS = frozenset({"complexes.max_fiber"})


def derive(spans: list[list]) -> dict[str, float]:
    """Totals of one operation: the ``TIMES`` metrics, the work counts, and
    the self time of every layer and of ``build_system``, in seconds.

    A span's self time is its duration less the time its direct children
    cover; a group's time sums only its outermost spans, so nested calls
    are not counted twice.
    """
    child_ns = [0] * len(spans)
    for rec in spans:
        if rec[3] >= 0:
            child_ns[rec[3]] += rec[2] - rec[1]
    out: Counter = Counter()
    for layer in LAYERS:
        out[f"{layer}.self_s"] = 0.0
    for i, (name, start, end, parent, counts) in enumerate(spans):
        self_s = (end - start - child_ns[i]) / 1e9
        out[f"{name.split('.', 1)[0]}.self_s"] += self_s
        if name == "systems.build_system":
            out["systems.build_system_self_s"] += self_s
        for metric in _METRICS_OF.get(name, ()):
            if not _has_ancestor_in(spans, parent, TIMES[metric]):
                out[metric] += (end - start) / 1e9
        for key, value in (counts or {}).items():
            out[key] = max(out[key], value) if key in MAX_COUNTS else out[key] + value
        parent_name = spans[parent][0] if parent >= 0 else None
        if name == "systems.PointThread.from_top" and parent_name == "systems.check_homotopy":
            out["systems.homotopy_drawn"] += 1
        elif name == "cells.is_cauchy" and parent_name == "cells.sample_cauchy_nets":
            out["cells.net_candidates"] += 1
    return dict(out)


def _has_ancestor_in(spans: list[list], parent: int, group: tuple[str, ...]) -> bool:
    while parent >= 0:
        if spans[parent][0] in group:
            return True
        parent = spans[parent][3]
    return False
