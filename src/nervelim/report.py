"""Check reports and deterministic JSON serialization helpers."""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Any

from .errors import InputError

FORMAT_VERSION = 1


@dataclass
class Report:
    """Outcome of a single check.

    ``witness`` carries the object that made the check pass (a cover id, a
    level index), ``counterexample`` the first object that made it fail.
    Both must be JSON-encodable after ``jsonable``.
    """

    check: str
    passed: bool
    witness: Any = None
    counterexample: Any = None
    details: dict = field(default_factory=dict)

    def to_json(self) -> dict:
        return {
            "check": self.check,
            "pass": self.passed,
            "witness": jsonable(self.witness),
            "counterexample": jsonable(self.counterexample),
            "details": jsonable(self.details),
        }


def frac_to_str(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}"


def str_to_frac(s: str) -> Fraction:
    if "/" in s:
        num, den = s.split("/")
        return Fraction(int(num), int(den))
    return Fraction(int(s))


def jsonable(obj: Any) -> Any:
    """Recursively convert to plain JSON types; rationals become "p/q".
    Dictionary keys must be strings."""
    if obj is None or isinstance(obj, (bool, int, str)):
        return obj
    if isinstance(obj, Fraction):
        return frac_to_str(obj)
    if isinstance(obj, float):
        raise TypeError("floats are not serialized; use Fraction")
    if isinstance(obj, dict):
        if not all(isinstance(k, str) for k in obj):
            raise TypeError("dictionary keys must be strings")
        return {k: jsonable(v) for k, v in sorted(obj.items())}
    if isinstance(obj, (list, tuple)):
        return [jsonable(v) for v in obj]
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def read_json(path: Path, what: str) -> Any:
    """The JSON value in the file ``what`` at ``path``.  A file that cannot
    be read or parsed is an input error; a missing one raises
    ``FileNotFoundError``."""
    try:
        return json.loads(Path(path).read_text())
    except FileNotFoundError:
        raise
    except (OSError, ValueError, RecursionError) as exc:
        raise InputError(f"cannot read {what} {path}: {exc}") from exc


def dump_json(obj: Any) -> str:
    """Byte-stable JSON: sorted keys, fixed separators, trailing newline."""
    return json.dumps(jsonable(obj), sort_keys=True, indent=2) + "\n"
