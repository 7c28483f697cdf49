"""Check reports and deterministic JSON serialization helpers."""

from __future__ import annotations

import json
from fractions import Fraction
from itertools import chain
from json.encoder import encode_basestring_ascii as _quote
from pathlib import Path
from typing import Any

from .errors import InputError
from .records import Record

FORMAT_VERSION = 1


class Report(Record):
    """Outcome of a single check.

    ``witness`` carries the object that made the check pass (a cover id, a
    level index), ``counterexample`` the first object that made it fail.
    Both must be encodable by ``dump_json``.  ``details`` defaults to a new
    dict for each report.
    """

    __slots__ = ("check", "passed", "witness", "counterexample", "details")

    def __init__(
        self,
        check: str,
        passed: bool,
        witness: Any = None,
        counterexample: Any = None,
        details: dict | None = None,
    ) -> None:
        if details is None:
            details = {}
        Record.__init__(self, check, passed, witness, counterexample, details)

    def to_json(self) -> dict:
        return {
            "check": self.check,
            "pass": self.passed,
            "witness": self.witness,
            "counterexample": self.counterexample,
            "details": self.details,
        }


def frac_to_str(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}"


def str_to_frac(s: str) -> Fraction:
    if "/" in s:
        num, den = s.split("/")
        return Fraction(int(num), int(den))
    return Fraction(int(s))


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


def _fraction(obj: Any) -> str:
    if isinstance(obj, Fraction):
        return frac_to_str(obj)
    raise TypeError(f"cannot serialize {type(obj).__name__}")


_int = int.__repr__
_CONSTANTS = {None: "null", True: "true", False: "false"}
_INTS = {int}
_ROWS = {list, tuple}
# containers are these types exactly: a NamedTuple record is refused, not
# written as a list
_CONTAINERS = {list, tuple, dict}


def _emit(o: Any, nl: str, out: list[str]) -> None:
    """Append the pieces of ``o`` to ``out``; ``nl`` is a newline and the
    indent of the line ``o`` starts on."""
    if isinstance(o, str):
        out.append(_quote(o))
    elif o is None or isinstance(o, bool):
        out.append(_CONSTANTS[o])
    elif isinstance(o, int):
        out.append(_int(o))
    elif type(o) not in _CONTAINERS:
        out.append(_quote(_fraction(o)))
    elif not o:
        out.append("{}" if isinstance(o, dict) else "[]")
    elif isinstance(o, dict):
        inner = nl + "  "
        sep = "{" + inner
        for k, v in sorted(o.items()):
            out.append(sep + _quote(k) + ": ")
            _emit(v, inner, out)
            sep = "," + inner
        out.append(nl + "}")
    else:
        inner = nl + "  "
        types = set(map(type, o))
        if types == _INTS:
            # one join for a list of plain ints (a bool is not one)
            out.append("[" + inner + ("," + inner).join(map(_int, o)) + nl + "]")
        elif types <= _ROWS and set(map(type, chain.from_iterable(o))) <= _INTS:
            # ... and for a list of such lists: simplices, vertex maps
            cell = inner + "  "
            sep = "," + cell
            rows = ("[" + cell + sep.join(map(_int, r)) + inner + "]" if r else "[]" for r in o)
            out.append("[" + inner + ("," + inner).join(rows) + nl + "]")
        else:
            sep = "[" + inner
            for v in o:
                out.append(sep)
                _emit(v, inner, out)
                sep = "," + inner
            out.append(nl + "]")


def dump_json(obj: Any) -> str:
    """Byte-stable JSON: sorted keys, two-space indent, trailing newline;
    rationals become "p/q".  The bytes are those of ``json.dumps(obj,
    sort_keys=True, indent=2)``, written without its pure-Python encoder.
    Leaves are None, bools, ints, strs and rationals, containers are lists,
    tuples and dicts but no subclass of them, and keys are strs: a float, a
    subclass or another key is a ``TypeError``."""
    out: list[str] = []
    _emit(obj, "\n", out)
    out.append("\n")
    return "".join(out)
