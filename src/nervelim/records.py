"""Value records: plain classes that declare their fields in ``__slots__``.

A record is built from its field values in ``__slots__`` order, and its
fields cannot be assigned or deleted after that, so a record used as a dict
key or a set member keeps its hash.  It is equal to a record of the same
class with equal fields, and to nothing else, so two records of different
classes never compare equal, even when their fields do.  It hashes as the
tuple of its fields.  A record that validates its fields or has defaults
writes its own ``__init__`` and ends it with ``Record.__init__``.  The
records with no value semantics (the inverse system, the run context) are
plain classes, and results that hold no validation are
``typing.NamedTuple``s, derived with ``_replace``.  No class decorator runs
at import.
"""

from __future__ import annotations


class Record:
    """Base of the value records; a subclass lists its fields in ``__slots__``."""

    __slots__ = ()

    def __init__(self, *values: object) -> None:
        if len(values) != len(self.__slots__):
            raise TypeError(
                f"{type(self).__name__} takes the values of {self.__slots__}, got {len(values)}"
            )
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r} of a {type(self).__name__}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r} of a {type(self).__name__}")

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other: object) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{n}={v!r}" for n, v in zip(self.__slots__, self._values()))
        return f"{type(self).__name__}({fields})"
