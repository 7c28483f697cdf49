from __future__ import annotations

import math
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from oracles import dump_json_oracle
from nervelim.complexes import LambdaIndex, build_complexes, complex_to_json
from nervelim.ground import Arcs, CircleGrid, CoverFamily, generate_cover, generate_space
from nervelim.homology import BondRanks
from nervelim.report import _CHUNK, FORMAT_VERSION, _name_table, dump_json, write_json
from nervelim.systems import build_system

# what nervelim writes: None, bools, ints, strs and rationals under str keys
SCALARS = st.none() | st.booleans() | st.integers() | st.text() | st.fractions()


def _containers(children):
    values = st.lists(children, max_size=4)
    return (
        values
        | values.map(tuple)
        # rows of plain ints, with a bool now and then, as the fast paths take them
        | st.lists(st.lists(st.integers() | st.booleans(), max_size=3) | st.tuples(st.integers()))
        | st.dictionaries(st.text(), children, max_size=4)
    )


JSON_VALUES = st.recursive(SCALARS, _containers, max_leaves=24)


@pytest.fixture(scope="module")
def path(tmp_path_factory):
    """One file for ``write_json`` to write, rewritten by each use."""
    return tmp_path_factory.mktemp("emitter") / "out.json"


def emitted(obj, path):
    """The texts of ``obj`` from the emitter's two sinks: ``dump_json``'s
    string and the file that ``write_json`` writes."""
    write_json(path, obj)
    return dump_json(obj), path.read_text()


@given(JSON_VALUES)
def test_dump_json_matches_json_dumps(path, obj):
    assert emitted(obj, path) == (dump_json_oracle(obj),) * 2


@pytest.mark.parametrize(
    "obj, text",
    [
        ({"10": 0, "9": 0}, '{\n  "10": 0,\n  "9": 0\n}\n'),
        ([True, 1], "[\n  true,\n  1\n]\n"),
        ([[True, 1]], "[\n  [\n    true,\n    1\n  ]\n]\n"),
        ({"x": (Fraction(1, 3), [], {})}, '{\n  "x": [\n    "1/3",\n    [],\n    {}\n  ]\n}\n'),
        ("é\n", '"\\u00e9\\n"\n'),
        # row lists named from the table, or not: a negative int, 10**30
        # among small ints, an int equal to the table's bound (the count of
        # ints), an empty row, and rows that mix lists and tuples
        ([[-1, 0, 1, 1]], "[\n  [\n    -1,\n    0,\n    1,\n    1\n  ]\n]\n"),
        ([[0, 1], [10**30, 2, 0]],
         "[\n  [\n    0,\n    1\n  ],\n  [\n    1000000000000000000000000000000,\n    2,\n    0\n  ]\n]\n"),
        ([[0, 2]], "[\n  [\n    0,\n    2\n  ]\n]\n"),
        ([[], [0, 1]], "[\n  [],\n  [\n    0,\n    1\n  ]\n]\n"),
        ([(0, 1), [1, 0], (2,)],
         "[\n  [\n    0,\n    1\n  ],\n  [\n    1,\n    0\n  ],\n  [\n    2\n  ]\n]\n"),
    ],
)
def test_dump_json_edge_cases(path, obj, text):
    assert emitted(obj, path) == (text, text)
    assert text == dump_json_oracle(obj)


@pytest.mark.parametrize(
    "rows, table",
    [
        ([[0, 1]], ["0", "1"]),
        ([(1,), [], [0, 1]], ["0", "1"]),
        ([[0], (2,)], None),  # the largest equals the count
        ([[-1, 0], [1, 1]], None),
        ([[0, 1], [2, 10**30]], None),
        ([[], ()], None),
    ],
)
def test_name_table_is_no_longer_than_its_rows(rows, table):
    assert _name_table(rows) == table


@pytest.mark.parametrize(
    "obj, message",
    [
        ({1, 2}, "cannot serialize set"),
        ([[0], {1}], "cannot serialize set"),
    ],
)
def test_dump_json_rejects_what_json_dumps_rejects(obj, message):
    for write in (dump_json, dump_json_oracle):
        with pytest.raises(TypeError, match=f"^{message}$"):
            write(obj)


@pytest.mark.parametrize(
    "obj, message",
    [
        (1.5, "cannot serialize float"),
        ([0, math.inf], "cannot serialize float"),
        ({"x": [[0], math.nan]}, "cannot serialize float"),
        ({10: 0, 9: 0}, "must be a string, not int"),
        ({None: 0}, "must be a string, not NoneType"),
        ({Fraction(1): 0}, "must be a string, not Fraction"),
        ([BondRanks(LambdaIndex((0,)), LambdaIndex((0,)), (1,))], "cannot serialize BondRanks"),
    ],
    ids=["float", "inf-in-list", "nan-in-dict", "int-keys", "none-key", "fraction-key", "record"],
)
def test_dump_json_refuses_floats_and_non_str_keys(obj, message):
    # nervelim writes neither; a float would be a rational that lost its
    # exactness, and a record (a NamedTuple) is not a list
    with pytest.raises(TypeError, match=message):
        dump_json(obj)


def test_write_json_leaves_no_file_when_a_value_is_refused(tmp_path):
    # the float is met after the file is opened and its first piece written
    path = tmp_path / "out.json"
    with pytest.raises(TypeError, match="^cannot serialize float$"):
        write_json(path, {"a": 1.5})
    assert not path.exists()


@pytest.fixture(scope="module")
def thick_payloads():
    """Every level file payload of the circle-24-thick family, as ``build``
    writes them, lowest level first: its top level has 24,864 simplices per
    complex."""
    space = generate_space(CircleGrid(), 24)
    arcs = ((3, Fraction(1)), (6, Fraction(1, 4)), (12, Fraction(1, 4)))
    family = CoverFamily(
        tuple(generate_cover(space, Arcs(n, o), cover_id=i) for i, (n, o) in enumerate(arcs)),
        space,
    )
    system = build_system(family, None, 16)
    built = [
        build_complexes(lv.lam, lv.adjacency, [v.wedge for v in lv.vertices], system.max_dim)
        for lv in system.levels
    ]
    assert max(len(nerve) for _, nerve in built) >= 5000
    # as build writes them: each nerve is its flag complex's own tuple here
    assert all(nerve is flag for flag, nerve in built)
    return [
        {
            "format_version": FORMAT_VERSION,
            "lambda": list(level.lam.cover_ids),
            "flag_complex": complex_to_json(level.lam, level.vertices, flag, True),
            "nerve_complex": complex_to_json(level.lam, level.vertices, nerve, False),
        }
        for level, (flag, nerve) in zip(system.levels, built)
    ]


def test_level_files_match_json_dumps_at_scale(path, thick_payloads):
    for payload in thick_payloads:
        assert emitted(payload, path) == (dump_json_oracle(payload),) * 2


def test_write_json_holds_one_complex_text_at_a_time(path, thick_payloads):
    # the top level file's rows are rendered a slice at a time; what stays
    # alive is the memo's pieces of the one row list both complexes share
    payload = thick_payloads[-1]
    rows = payload["flag_complex"]["simplices"]
    assert len(rows) == 24_864 and payload["nerve_complex"]["simplices"] is rows
    row_text = len(dump_json({"flag_complex": {"simplices": rows}}))
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        write_json(path, payload)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - start < row_text + (1 << 20)


ROWS = st.lists(st.lists(st.integers(), max_size=3) | st.tuples(st.integers()), min_size=1)
# one row list placed twice at one indent, at two indents, and nested in
# dicts and lists
PLACEMENTS = [
    lambda r: {"flag": r, "nerve": r},
    lambda r: {"a": r, "b": {"c": r}},
    lambda r: [r, {"x": [r, {"y": r}]}, [[r]], r],
]


@given(ROWS, st.sampled_from(PLACEMENTS))
def test_dump_json_writes_a_repeated_row_list_as_json_dumps(path, rows, place):
    # the memo of row lists: the same object again, or an equal but
    # distinct one, gives the bytes json.dumps gives
    for obj in (place(rows), place([list(r) for r in rows])):
        assert emitted(obj, path) == (dump_json_oracle(obj),) * 2
    distinct = {"a": rows, "b": [list(r) for r in rows], "c": {"d": rows}}
    assert emitted(distinct, path) == (dump_json_oracle(distinct),) * 2


@pytest.mark.parametrize("count", [_CHUNK - 1, _CHUNK, _CHUNK + 1, 2 * _CHUNK + 1])
@pytest.mark.parametrize("place", PLACEMENTS)
def test_row_lists_across_slice_edges(path, count, place):
    # a row list is written a slice of _CHUNK rows at a time; empty rows
    # end the first slice and start the second, where the list has them
    rows = [(i % 7, i % 5) if i % 3 else [i % 11] for i in range(count)]
    for i in (_CHUNK - 1, _CHUNK):
        if i < count:
            rows[i] = []
    for obj in (place(rows), place(tuple(rows))):
        assert emitted(obj, path) == (dump_json_oracle(obj),) * 2


def test_dump_json_memo_lives_for_one_call(path):
    rows = [[0, 1], [1]]
    payload = {"flag": rows, "nerve": rows}
    first = emitted(payload, path)
    rows.append([2])
    assert emitted(payload, path) == (dump_json_oracle(payload),) * 2
    assert dump_json_oracle(payload) not in first
