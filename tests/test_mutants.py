"""The mutant list of ``scripts/mutants.py`` against the source it mutates.

Each mutant names one line of ``src/nervelim``.  A change that moves or
rewrites such a line fails here, in tier-1, and not only in a mutant run.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _mutants():
    spec = importlib.util.spec_from_file_location("mutants", ROOT / "scripts" / "mutants.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_mutant_line_is_found_once():
    # ``locate`` exits unless the line is found exactly once, as ``--list`` checks
    mutants = _mutants()
    assert mutants.MUTANTS
    for name, line, replacement in mutants.MUTANTS:
        assert replacement != line, (name, line)
        mutants.locate(ROOT, name, line)
