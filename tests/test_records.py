"""The records: value semantics, validation, and what importing costs.

Value records are plain classes on ``records.Record``: built from exactly
their fields, immutable once built, equal within their class on equal
fields, never across classes, and hashed as the tuple of their fields.  Results are ``NamedTuple``s; ``dump_json`` refuses them as
it refuses any other object.  Importing the command line must not load the
``dataclasses`` machinery, and must still load every layer the benchmark
traces.
"""

from __future__ import annotations

import importlib.util
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from nervelim.complexes import LambdaIndex
from nervelim.ground import (
    Arcs,
    Balls,
    CantorDepth,
    CircleGrid,
    Cover,
    CoverElement,
    CoverFamily,
    Cylinders,
    DyadicIntervals,
    GroundSpace,
    IntervalGrid,
    Metric,
    WedgeOfCircles,
    generate_cover,
    generate_space,
)
from nervelim.homology import BettiVector
from nervelim.report import Report

ROOT = Path(__file__).resolve().parent.parent
F = Fraction


def _element(i, points):
    return CoverElement(i, frozenset(points))


# (record, an equal record built apart, its fields in order, a record of
# the same class with other fields)
VALUES = [
    (LambdaIndex((0, 2)), LambdaIndex.of([2, 0]), ((0, 2),), LambdaIndex((0,))),
    (_element(0, {1}), _element(0, {1}), (0, frozenset({1})), _element(1, {1})),
    (Cover(0, (_element(0, {0, 1}),)), Cover(0, (_element(0, {1, 0}),)),
     (0, (_element(0, {0, 1}),)), Cover(1, (_element(0, {0, 1}),))),
    (GroundSpace(2), GroundSpace(2, None, Metric.NONE, None), (2, None, Metric.NONE, None),
     GroundSpace(3)),
    (CoverFamily((Cover(0, (_element(0, {0, 1}),)),), GroundSpace(2)),
     CoverFamily((Cover(0, (_element(0, {0, 1}),)),), GroundSpace(2)),
     ((Cover(0, (_element(0, {0, 1}),)),), GroundSpace(2)),
     CoverFamily((Cover(0, (_element(0, {0, 1}),)),), GroundSpace(2, labels=("a", "b")))),
    (BettiVector((1, 1)), BettiVector((1, 1)), ((1, 1),), BettiVector((1, 0))),
    (CircleGrid(), CircleGrid(), (), None),
    (WedgeOfCircles(2), WedgeOfCircles(2), (2,), WedgeOfCircles(3)),
    (Arcs(3, F(1, 4)), Arcs(3, F(2, 8)), (3, F(1, 4)), Arcs(3, F(0))),
    (DyadicIntervals(1, F(1, 10)), DyadicIntervals(1, F(1, 10)), (1, F(1, 10)),
     DyadicIntervals(2, F(1, 10))),
    (Cylinders(2), Cylinders(2), (2,), Cylinders(1)),
    (Balls(F(0), 1), Balls(F(0), 1), (F(0), 1), Balls(F(0), 2)),
]


@pytest.mark.parametrize("record, equal, fields, other", VALUES, ids=lambda v: type(v).__name__)
def test_value_records_compare_and_hash_by_their_fields(record, equal, fields, other):
    assert record == equal and not record != equal
    assert hash(record) == hash(equal) == hash(fields)
    assert record != fields  # a tuple of the same values is not the record
    if other is not None:
        assert record != other and not record == other
    assert len({record, equal}) == 1


@pytest.mark.parametrize("record", [v[0] for v in VALUES] + [Report("a", True)],
                         ids=lambda v: type(v).__name__)
def test_record_fields_cannot_be_assigned_or_deleted(record):
    # a record keyed in a dict or a set must keep its hash
    for name in record.__slots__:
        value = getattr(record, name)
        with pytest.raises(AttributeError, match=f"cannot assign to field '{name}'"):
            setattr(record, name, value)
        with pytest.raises(AttributeError, match=f"cannot delete field '{name}'"):
            delattr(record, name)
        assert getattr(record, name) is value
    with pytest.raises(AttributeError):
        record.unknown = 1


def test_records_take_exactly_their_fields():
    for make, message in (
        (lambda: Arcs(3), r"^Arcs takes the values of \('count', 'overlap'\), got 1$"),
        (lambda: Cylinders(1, 2), r"^Cylinders takes the values of \('prefix_len',\), got 2$"),
        (lambda: CircleGrid(1), r"^CircleGrid takes the values of \(\), got 1$"),
    ):
        with pytest.raises(TypeError, match=message):
            make()


@pytest.mark.parametrize(
    "a, b",
    [
        (CircleGrid(), IntervalGrid()),
        (IntervalGrid(), CantorDepth()),
        (Arcs(3, F(1, 4)), DyadicIntervals(3, F(1, 4))),
        (WedgeOfCircles(2), Cylinders(2)),
        (LambdaIndex((1,)), BettiVector((1,))),
    ],
)
def test_records_of_different_classes_are_unequal(a, b):
    assert a != b and b != a and not a == b
    assert len({a, b}) == 2


def test_parameter_reprs_name_their_fields():
    # generate_cover puts the scheme's repr in its error messages
    assert repr(Arcs(3, F(1, 4))) == "Arcs(count=3, overlap=Fraction(1, 4))"
    assert repr(CircleGrid()) == "CircleGrid()"
    assert repr(LambdaIndex((0, 1))) == "L(0,1)"
    space = generate_space(CircleGrid(), 1)
    with pytest.raises(ValueError, match=r"^Arcs\(count=4, overlap=Fraction\(0, 1\)\) produced"):
        generate_cover(space, Arcs(4, F(0)))


@pytest.mark.parametrize(
    "make, message",
    [
        (lambda: LambdaIndex(()), "level index must be nonempty"),
        (lambda: LambdaIndex((1, 0)), "sorted and deduplicated"),
        (lambda: LambdaIndex((0, 0)), "sorted and deduplicated"),
        (lambda: CoverElement(0, frozenset()), "cover elements must be nonempty"),
        (lambda: Cover(0, (_element(1, {0}),)), "element ids must be 0..k-1"),
        (lambda: GroundSpace(0), "at least one point"),
        (lambda: GroundSpace(2, ((F(0),),)), "one coordinate vector per point"),
        (lambda: GroundSpace(2, labels=("0",)), "one label per point"),
        (lambda: CoverFamily((), GroundSpace(1)), "at least one cover"),
        (lambda: CoverFamily((Cover(1, (_element(0, {0}),)),), GroundSpace(1)),
         "cover ids must be 0..k-1"),
        (lambda: CoverFamily((Cover(0, (_element(0, {0}),)),), GroundSpace(2)),
         "cover 0 does not cover the space"),
        (lambda: BettiVector((1, -1)), "negative Betti number"),
    ],
)
def test_each_validation_raises(make, message):
    with pytest.raises(ValueError, match=message):
        make()


def test_a_cover_with_points_outside_the_space_does_not_cover_it():
    # as many points as the space has, but not the space's points
    for points in ({0, 2}, {-1, 0}):
        with pytest.raises(ValueError, match="cover 0 does not cover the space"):
            CoverFamily((Cover(0, (_element(0, points),)),), GroundSpace(2))


def test_report_details_are_not_shared():
    a, b = Report("a", True), Report("b", False)
    a.details["seen"] = True
    assert b.details == {} and Report("a", True).details == {}
    assert a == Report("a", True, details={"seen": True}) != b


def _traced_layers() -> tuple[str, ...]:
    path = ROOT / "perfbench" / "layertrace.py"
    spec = importlib.util.spec_from_file_location("benchmark_layertrace", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return tuple(module.TRACED)


def test_cli_import_loads_every_traced_layer_and_no_dataclasses():
    code = (
        "import sys; before = set(sys.modules); import nervelim.cli; "
        "print(*sorted(set(sys.modules) - before))"
    )
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    ).stdout.split()
    assert "dataclasses" not in out and "inspect" not in out
    missing = [layer for layer in _traced_layers() if f"nervelim.{layer}" not in out]
    assert missing == []
