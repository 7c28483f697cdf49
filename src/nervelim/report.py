"""Check reports and deterministic JSON serialization helpers."""

from __future__ import annotations

import json
import os
from fractions import Fraction
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
# containers are these types exactly: a NamedTuple record is refused, not
# written as a list
_CONTAINERS = {list, tuple, dict}
# the indent of the line a level file's simplices list starts on
_ROWS_NL = "\n    "
_BLOCK = 1 << 16  # the bytes a nerve copies from its level file at once


def row_steps(n: int) -> tuple[list[str], list[str], str]:
    """The steps from which ``complexes._all_cliques`` grows a clique's
    row text on vertex ids 0..n-1, as ``level_rows`` writes it: the first
    vertex's, each further vertex's, and the close."""
    cell, names = _ROWS_NL + "    ", [str(v) for v in range(n)]
    return ["[" + cell + v for v in names], ["," + cell + v for v in names], _ROWS_NL + "  ]"


def level_rows(search: Callable[[Callable[[list], Any], bool], bool]) -> tuple[Callable, Callable]:
    """A level file's flag complex and nerve ``simplices``, as two writers
    that ``_emit`` calls with its ``write``, the append of ``dump_json``'s
    pieces or the write of ``write_json``'s file.  ``search(flush, nerve)``
    hands ``flush`` lists of the flag complex's rows, or the nerve's, as
    text grown from ``row_steps``, and says whether the nerve is the flag
    complex.  The flag complex is written first, as keys are sorted; a
    nerve that is it copies what the sink holds of it (its pieces, or its
    bytes read back in blocks and written to the file's byte layer as they
    are), and any other nerve is searched for."""
    span: list = []  # the rows last written: their place in the sink, and whether the nerve is them

    def write_rows(write: Callable[[str], Any], nerve: bool = False) -> None:
        sink = write.__self__  # type: ignore[attr-defined]
        tell = sink.__len__ if type(sink) is list else sink.tell
        if nerve and span[2]:
            start, end = span[:2]
            if type(sink) is list:
                return sink.extend(sink[start:end])
            sink.flush()
            for at in range(start, end, _BLOCK):
                sink.buffer.write(os.pread(sink.fileno(), min(_BLOCK, end - at), at))
            return
        start, lead, between = tell(), "[" + _ROWS_NL + "  ", "," + _ROWS_NL + "  "

        def flush(rows: list) -> None:
            nonlocal lead
            if rows:
                write(lead + between.join(rows))
                lead = between

        same = search(flush, nerve)
        write(_ROWS_NL + "]" if lead is between else "[]")
        span[:] = start, tell(), same

    return write_rows, lambda write: write_rows(write, True)


def _emit(o: Any, nl: str, write: Callable[[str], Any]) -> None:
    """Pass the pieces of ``o`` to ``write`` in order; ``nl`` is a newline
    and the indent of the line ``o`` starts on.  A callable writes its own
    pieces (``level_rows``), at a level file's simplices only."""
    if isinstance(o, str):
        write(_quote(o))
    elif o is None or isinstance(o, bool):
        write(_CONSTANTS[o])
    elif isinstance(o, int):
        write(_int(o))
    elif callable(o):
        if nl != _ROWS_NL:
            raise ValueError(f"row text for indent {len(_ROWS_NL) - 1} met at indent {len(nl) - 1}")
        o(write)
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
    subclass or another key is a ``TypeError``.  A callable writes a
    level file's simplices (``level_rows``); met at another indent, it is
    a ``ValueError``."""
    out: list[str] = []
    _emit(obj, "\n", out.append)
    out.append("\n")
    return "".join(out)


def write_json(path: Path, obj: Any) -> None:
    """Write ``dump_json(obj)`` to the file at ``path``, passing its pieces
    to the open file in order rather than joining them first.  The file's
    descriptor is open to read as well, so that a nerve that is its flag
    complex is copied from the bytes already written (``level_rows``); its
    text layer only writes, with no decoder to reset on every write.  A
    value that cannot be written, or a search that raises while its rows
    are written, raises as from ``dump_json`` and removes the file, so a
    failed write leaves none behind."""
    f = open(os.open(path, os.O_RDWR | os.O_CREAT | os.O_TRUNC, 0o666), "w")
    try:
        with f:
            _emit(obj, "\n", f.write)
            f.write("\n")
    except BaseException:
        Path(path).unlink(missing_ok=True)
        raise
