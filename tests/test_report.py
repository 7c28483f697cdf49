from __future__ import annotations

import math
import sys
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from oracles import dump_json_oracle
from nervelim.cli import _level_payload
from nervelim.complexes import LambdaIndex, build_complexes, complex_to_json
from nervelim.ground import Arcs, CircleGrid, CoverFamily, generate_cover, generate_space
from nervelim.homology import BondRanks
from nervelim.report import _CHUNK, FORMAT_VERSION, RowText, dump_json, row_steps, write_json
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
        # row lists: a negative int, 10**30 among small ints, an empty row,
        # and rows that mix lists and tuples
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
def thick_levels():
    """The levels of the circle-24-thick family at ``--max-dim 16``, lowest
    first: its top level has 24,864 simplices per complex."""
    space = generate_space(CircleGrid(), 24)
    arcs = ((3, Fraction(1)), (6, Fraction(1, 4)), (12, Fraction(1, 4)))
    family = CoverFamily(
        tuple(generate_cover(space, Arcs(n, o), cover_id=i) for i, (n, o) in enumerate(arcs)),
        space,
    )
    return build_system(family, None, 16).levels


def tuple_payload(level):
    """A level file's contents with its complexes as simplex tuples, the
    form ``json.dumps`` takes."""
    flag, nerve = build_complexes(level.lam, level.adjacency, level.wedges, 16)
    return {
        "format_version": FORMAT_VERSION,
        "lambda": list(level.lam.cover_ids),
        "flag_complex": complex_to_json(level.lam, level.elements, level.wedges, flag, True),
        "nerve_complex": complex_to_json(level.lam, level.elements, level.wedges, nerve, False),
    }


def test_level_files_match_json_dumps_at_scale(path, thick_levels):
    # build's payloads, whose rows are the clique search's text, against
    # json.dumps of the same levels' simplex tuples
    for level in thick_levels:
        expected = dump_json_oracle(tuple_payload(level))
        assert emitted(_level_payload(level, 16), path) == (expected,) * 2


def test_write_json_holds_one_complex_text_at_a_time(path, thick_levels):
    # the top level file: its rows are grown as text in the search, the
    # nerve's rows are the flag complex's own strings, and the write joins
    # one slice of rows at a time, so searching and writing the level hold
    # little more than one complex's row text
    top = thick_levels[-1]
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        payload = _level_payload(top, 16)
        held = tracemalloc.get_traced_memory()[0] - start
        tracemalloc.reset_peak()
        write_json(path, payload)
        write_peak = tracemalloc.get_traced_memory()[1] - start - held
    finally:
        tracemalloc.stop()
    rows = payload["flag_complex"]["simplices"].rows
    assert len(rows) == 24_864 and payload["nerve_complex"]["simplices"].rows is rows
    # the level's row strings, held once, and under 1 MB besides
    assert held < sum(map(sys.getsizeof, rows)) + (1 << 20)
    assert write_peak < (1 << 20) < sum(map(len, rows))


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
    # a row list met again: the same object, or an equal but distinct
    # one, gives the bytes json.dumps gives
    for obj in (place(rows), place([list(r) for r in rows])):
        assert emitted(obj, path) == (dump_json_oracle(obj),) * 2
    distinct = {"a": rows, "b": [list(r) for r in rows], "c": {"d": rows}}
    assert emitted(distinct, path) == (dump_json_oracle(distinct),) * 2


@pytest.mark.parametrize("count", [_CHUNK - 1, _CHUNK, _CHUNK + 1, 2 * _CHUNK + 1])
@pytest.mark.parametrize("place", PLACEMENTS)
def test_row_lists_across_slice_edges(path, count, place):
    # long lists of int rows, as check's writers hand them over, with
    # empty rows at the edges of a RowText's first slice
    rows = [(i % 7, i % 5) if i % 3 else [i % 11] for i in range(count)]
    for i in (_CHUNK - 1, _CHUNK):
        if i < count:
            rows[i] = []
    for obj in (place(rows), place(tuple(rows))):
        assert emitted(obj, path) == (dump_json_oracle(obj),) * 2


def test_dump_json_memo_lives_for_one_call(path):
    # no call keeps what an earlier call wrote: a row list changed between
    # two writes is written as it is now
    rows = [[0, 1], [1]]
    payload = {"flag": rows, "nerve": rows}
    first = emitted(payload, path)
    rows.append([2])
    assert emitted(payload, path) == (dump_json_oracle(payload),) * 2
    assert dump_json_oracle(payload) not in first


def row_text(rows):
    """Each row's text grown from ``row_steps`` as the clique search grows
    it, for rows on vertex ids below 40."""
    first, rest, close = row_steps(40)
    return [first[r[0]] + "".join(rest[v] for v in r[1:]) + close for r in rows]


@pytest.mark.parametrize("count", [_CHUNK - 1, _CHUNK, _CHUNK + 1, 2 * _CHUNK + 1])
def test_row_text_across_slice_edges(path, count):
    # a RowText is joined a slice of _CHUNK rows at a time, as a flag
    # complex and as a nerve holding the same strings
    rows = [(i % 7, 7 + i % 5, 20 + i % 13) if i % 3 else (i % 37,) for i in range(count)]
    text = row_text(rows)
    obj = {"flag_complex": {"simplices": RowText(text)}, "nerve_complex": {"simplices": RowText(text)}}
    expected = {"flag_complex": {"simplices": rows}, "nerve_complex": {"simplices": rows}}
    assert emitted(obj, path) == (dump_json_oracle(expected),) * 2


def test_row_text_at_another_indent_is_refused(tmp_path):
    # row text is written only where it was rendered for: a level file's
    # simplices, two levels down
    rows = RowText(row_text([(0,), (0, 1)]))
    assert dump_json({"a": {"simplices": rows}}) == dump_json_oracle({"a": {"simplices": [[0], [0, 1]]}})
    for obj in (rows, {"simplices": rows}, {"a": {"b": {"simplices": rows}}}, [rows], [[[rows]]]):
        out = tmp_path / "out.json"
        with pytest.raises(ValueError, match="^row text for indent 4 met at indent "):
            write_json(out, obj)
        assert not out.exists()
