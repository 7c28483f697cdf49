"""Check reports and deterministic JSON serialization helpers."""

from __future__ import annotations

import json
from fractions import Fraction
from itertools import chain
from json.encoder import encode_basestring_ascii as _quote
from pathlib import Path
from typing import Any, Callable

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
# rows of a row list rendered at a time: bounds the row strings alive at once
_CHUNK = 512


def _name_table(rows: list | tuple) -> list[str] | None:
    """``str(i)`` for i from 0 up to the largest int of the int ``rows``,
    when none is negative and the largest is below the count of ints, so
    that the table is no longer than the rows it names; otherwise None.
    The bounds are read from the set of distinct ints, which for vertex
    ids is as small as the table."""
    ints = set(chain.from_iterable(rows))
    if ints and min(ints) >= 0 and max(ints) < sum(map(len, rows)):
        return [str(i) for i in range(max(ints) + 1)]
    return None


def _emit(
    o: Any, nl: str, write: Callable[[str], Any], memo: dict[tuple[int, str], list[str]]
) -> None:
    """Pass the pieces of ``o`` to ``write`` in order; ``nl`` is a newline
    and the indent of the line ``o`` starts on.  A list of int rows is
    rendered ``_CHUNK`` rows at a time, each slice joined and written
    before the next is rendered; ``memo`` holds the pieces of each such
    list written so far, by its id and indent."""
    if isinstance(o, str):
        write(_quote(o))
    elif o is None or isinstance(o, bool):
        write(_CONSTANTS[o])
    elif isinstance(o, int):
        write(_int(o))
    elif type(o) not in _CONTAINERS:
        write(_quote(_fraction(o)))
    elif not o:
        write("{}" if isinstance(o, dict) else "[]")
    elif isinstance(o, dict):
        inner = nl + "  "
        sep = "{" + inner
        for k, v in sorted(o.items()):
            write(sep + _quote(k) + ": ")
            _emit(v, inner, write, memo)
            sep = "," + inner
        write(nl + "}")
    else:
        inner = nl + "  "
        types = set(map(type, o))
        key = id(o), nl
        if types == _INTS:
            # one join for a list of plain ints (a bool is not one)
            write("[" + inner + ("," + inner).join(map(_int, o)) + nl + "]")
        elif key in memo:
            # a row list written before at this indent: a nerve that is its flag complex
            for piece in memo[key]:
                write(piece)
        elif types <= _ROWS and set(map(type, chain.from_iterable(o))) <= _INTS:
            # ... and for a list of such lists: simplices, vertex maps, whose
            # ints are mostly small vertex ids, named from one table
            table = _name_table(o)
            name = _int if table is None else table.__getitem__
            cell = inner + "  "
            first, sep, last = "[" + cell, "," + cell, inner + "]"
            lead, between = "[" + inner, "," + inner
            memo[key] = pieces = []
            for i in range(0, len(o), _CHUNK):
                rows = [first + sep.join(map(name, r)) + last if r else "[]"
                        for r in o[i:i + _CHUNK]]
                pieces.append(lead + between.join(rows))
                write(pieces[-1])
                lead = between
            pieces.append(nl + "]")
            write(pieces[-1])
        else:
            sep = "[" + inner
            for v in o:
                write(sep)
                _emit(v, inner, write, memo)
                sep = "," + inner
            write(nl + "]")


def dump_json(obj: Any) -> str:
    """Byte-stable JSON: sorted keys, two-space indent, trailing newline;
    rationals become "p/q".  The bytes are those of ``json.dumps(obj,
    sort_keys=True, indent=2)``, written without its pure-Python encoder.
    Leaves are None, bools, ints, strs and rationals, containers are lists,
    tuples and dicts but no subclass of them, and keys are strs: a float, a
    subclass or another key is a ``TypeError``.  A list of int rows met
    again at the same indent is written from the pieces kept when it was
    first written."""
    out: list[str] = []
    _emit(obj, "\n", out.append, {})
    out.append("\n")
    return "".join(out)


def write_json(path: Path, obj: Any) -> None:
    """Write ``dump_json(obj)`` to the file at ``path``, passing its pieces
    to the open file in order rather than joining them first.  A value
    that cannot be written raises as ``dump_json`` does and removes the
    file, so a failed write leaves none behind."""
    f = Path(path).open("w")
    try:
        with f:
            _emit(obj, "\n", f.write, {})
            f.write("\n")
    except BaseException:
        Path(path).unlink(missing_ok=True)
        raise
