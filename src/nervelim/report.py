"""Check reports and deterministic JSON serialization helpers."""

from __future__ import annotations

import json
from fractions import Fraction
from json.encoder import encode_basestring_ascii as _quote
from pathlib import Path
from typing import Any, Callable, NamedTuple, Sequence

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
# containers are these types exactly: a NamedTuple record is refused, not
# written as a list
_CONTAINERS = {list, tuple, dict}
# rows of a row list joined into one piece: bounds the text joined at once
_CHUNK = 512
# the indent of the line a level file's simplices list starts on
_ROWS_NL = "\n    "


class RowText(NamedTuple):
    """A list of int rows, each already written as ``_emit`` writes it in a
    level file's ``simplices``, from the steps of ``row_steps``."""

    rows: Sequence[str]


def row_steps(n: int) -> tuple[list[str], list[str], str]:
    """The steps from which ``complexes._all_cliques`` grows a clique's
    row text on vertex ids 0..n-1, as ``RowText`` holds it: the first
    vertex's, each further vertex's, and the close."""
    cell, names = _ROWS_NL + "    ", [str(v) for v in range(n)]
    return ["[" + cell + v for v in names], ["," + cell + v for v in names], _ROWS_NL + "  ]"


def _emit(o: Any, nl: str, write: Callable[[str], Any]) -> None:
    """Pass the pieces of ``o`` to ``write`` in order; ``nl`` is a newline
    and the indent of the line ``o`` starts on.  The rows of a ``RowText``
    are joined ``_CHUNK`` rows at a time, each piece written before the
    next is joined."""
    if isinstance(o, str):
        write(_quote(o))
    elif o is None or isinstance(o, bool):
        write(_CONSTANTS[o])
    elif isinstance(o, int):
        write(_int(o))
    elif type(o) is RowText:
        if nl != _ROWS_NL:
            raise ValueError(f"row text for indent {len(_ROWS_NL) - 1} met at indent {len(nl) - 1}")
        rows, lead, between = o.rows, "[" + nl + "  ", "," + nl + "  "
        for i in range(0, len(rows), _CHUNK):
            write(lead + between.join(rows[i:i + _CHUNK]))
            lead = between
        write(nl + "]" if rows else "[]")
    elif type(o) not in _CONTAINERS:
        write(_quote(_fraction(o)))
    elif not o:
        write("{}" if isinstance(o, dict) else "[]")
    elif isinstance(o, dict):
        inner = nl + "  "
        sep = "{" + inner
        for k, v in sorted(o.items()):
            write(sep + _quote(k) + ": ")
            _emit(v, inner, write)
            sep = "," + inner
        write(nl + "}")
    elif set(map(type, o)) == _INTS:
        # one join for a list of plain ints (a bool is not one)
        inner = nl + "  "
        write("[" + inner + ("," + inner).join(map(_int, o)) + nl + "]")
    else:
        inner = nl + "  "
        sep = "[" + inner
        for v in o:
            write(sep)
            _emit(v, inner, write)
            sep = "," + inner
        write(nl + "]")


def dump_json(obj: Any) -> str:
    """Byte-stable JSON: sorted keys, two-space indent, trailing newline;
    rationals become "p/q".  The bytes are those of ``json.dumps(obj,
    sort_keys=True, indent=2)``, written without its pure-Python encoder.
    Leaves are None, bools, ints, strs and rationals, containers are lists,
    tuples and dicts but no subclass of them, and keys are strs: a float, a
    subclass or another key is a ``TypeError``.  A ``RowText`` is written
    as the list of its rows; met at another indent than a level file's
    simplices, it is a ``ValueError``."""
    out: list[str] = []
    _emit(obj, "\n", out.append)
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
            _emit(obj, "\n", f.write)
            f.write("\n")
    except BaseException:
        Path(path).unlink(missing_ok=True)
        raise
