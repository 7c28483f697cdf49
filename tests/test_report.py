from __future__ import annotations

import json
import math
import re
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import example, given, strategies as st

import nervelim.cli
from oracles import dump_json_oracle
from nervelim.cli import _level_payload
from nervelim.complexes import _CHUNK, LambdaIndex, build_complexes, build_flag, complex_to_json
from nervelim.errors import GuardExceeded
from nervelim.ground import Arcs, CircleGrid, CoverFamily, generate_cover, generate_space
from nervelim.homology import BondRanks
from nervelim.presets import PRESETS
from nervelim.report import FORMAT_VERSION, dump_json, level_rows, row_steps, write_json
from nervelim.systems import Level, build_system

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


def circle_family(n, arcs):
    """The family of ``Arcs`` covers of the n-point circle grid, one per
    (count, overlap) of ``arcs``."""
    space = generate_space(CircleGrid(), n)
    return CoverFamily(
        tuple(generate_cover(space, Arcs(k, o), cover_id=i) for i, (k, o) in enumerate(arcs)),
        space,
    )


@pytest.fixture(scope="module")
def thick_levels():
    """The levels of the circle-24-thick family at ``--max-dim 16``, lowest
    first: its top level has 24,864 simplices per complex."""
    arcs = ((3, Fraction(1)), (6, Fraction(1, 4)), (12, Fraction(1, 4)))
    return build_system(circle_family(24, arcs), None, 16).levels


@pytest.fixture(scope="module")
def top_levels(thick_levels):
    """The top levels of circle-24-thick and of circle-48 (arcs 3/6/12/24,
    no overlap), whose complexes have 24,864 and 197,472 simplices."""
    arcs = tuple((k, Fraction(0)) for k in (3, 6, 12, 24))
    top = build_system(circle_family(48, arcs), [LambdaIndex((0, 1, 2, 3))], 16).levels[0]
    return {"circle-24-thick": thick_levels[-1], "circle-48": top}


def tuple_payload(level, max_dim=16):
    """A level file's contents with its complexes as simplex tuples, the
    form ``json.dumps`` takes."""
    flag, nerve = build_complexes(level.lam, level.adjacency, level.wedges, max_dim)
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


@pytest.mark.parametrize("name", ["circle-24-thick", "circle-48"])
def test_level_file_search_and_write_hold_under_a_mebibyte(path, top_levels, name):
    # the top level file: its rows are handed to the file _CHUNK at a time
    # as the search finds them, and its nerve, the flag complex, is copied
    # from the file in blocks, so no level's rows are held
    top = top_levels[name]
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        write_json(path, _level_payload(top, 16))
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    size = path.stat().st_size
    # under 1 MiB, where one complex's text alone is more
    assert peak < (1 << 20) < size // 2
    flag, nerve = build_complexes(top.lam, top.adjacency, top.wedges, 16)
    assert nerve is flag and len(flag) == {"circle-24-thick": 24_864, "circle-48": 197_472}[name]


def test_a_nerve_that_is_the_flag_complex_is_copied_not_searched(path, monkeypatch):
    # circle-a3612: the nerve of level {0} is a proper subcomplex, and every
    # other level's is the flag complex.  One search per level, and a
    # second, the nerve's, at {0} alone
    searches = []

    def counting(lam, adjacency, wedges, max_dim, steps, flush, nerve):
        searches.append((lam.json_key(), nerve))
        return build_complexes(lam, adjacency, wedges, max_dim, steps, flush, nerve)

    monkeypatch.setattr(nervelim.cli, "build_complexes", counting)
    levels = build_system(PRESETS["circle-a3612"].factory(), None, 8).levels
    for level in levels:
        expected = dump_json_oracle(tuple_payload(level, 8))
        searches.clear()
        assert emitted(_level_payload(level, 8), path) == (expected,) * 2
        flag, nerve = build_complexes(level.lam, level.adjacency, level.wedges, 8)
        name = level.lam.json_key()
        kinds = (False, True) if name == "0" else (False,)
        assert searches == [(name, nerve) for nerve in kinds] * 2
        assert (nerve is flag) == (name != "0")


def free_level(adjacency, wedges):
    """A level on these vertices, graph and wedges, each vertex's element
    tuple its id, as a level file writes them; its fibers are not read."""
    n = len(wedges)
    return Level(LambdaIndex((0,)), tuple((v,) for v in range(n)), tuple(wedges), list(adjacency), [])


@st.composite
def graphs_and_wedges(draw):
    """A graph on up to 9 vertices, as neighbour bitmasks, and a wedge
    bitmask per vertex over 3 points, an empty one now and then."""
    n = draw(st.integers(1, 9))
    edges = draw(st.sets(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))))
    adj = [0] * n
    for a, b in edges:
        if a != b:
            adj[a] |= 1 << b
            adj[b] |= 1 << a
    return adj, draw(st.lists(st.integers(0, 7), min_size=n, max_size=n))


def edgeless(wedges):
    """A graph with no edge on these wedges: one clique per vertex."""
    return [0] * len(wedges), wedges


@given(graphs_and_wedges(), st.sampled_from([0, 1, 2, 30]))
# the nerve is the flag complex, a proper subcomplex of it, and empty
@example(([0b110, 0b101, 0b011], [1, 1, 1]), 2)
@example(([0b110, 0b101, 0b011], [3, 5, 6]), 2)
@example(([0b110, 0b101, 0b011], [0, 0, 0]), 2)
# row counts at the chunk's edges, and the first clique whose wedges share
# no point after the first chunk
@example(edgeless([1] * (_CHUNK - 1)), 0)
@example(edgeless([1] * _CHUNK), 0)
@example(edgeless([1] * (_CHUNK + 1)), 0)
@example(edgeless([1] * _CHUNK + [0]), 0)
@example(edgeless([1] * (_CHUNK + 1) + [0, 1]), 0)
@example(edgeless([0] * (_CHUNK + 1)), 0)
def test_streamed_level_file_is_json_dumps_of_the_tuple_payload(path, data, max_dim):
    # the level file that build writes while its searches run, against
    # json.dumps of the payload the tuple search gives; past the guard, the
    # write raises the flag complex's message and leaves no file
    level = free_level(*data)
    try:
        payload = tuple_payload(level, max_dim)
    except GuardExceeded as e:
        for write in (lambda: write_json(path, _level_payload(level, max_dim)),
                      lambda: dump_json(_level_payload(level, max_dim))):
            with pytest.raises(GuardExceeded, match=f"^{re.escape(str(e))}$"):
                write()
        assert not path.exists()
        return
    expected = json.dumps(payload, sort_keys=True, indent=2) + "\n"
    assert expected == dump_json_oracle(payload)
    assert emitted(_level_payload(level, max_dim), path) == (expected,) * 2


@pytest.mark.parametrize("max_dim", [2, 5, 8])
def test_a_failed_level_write_leaves_no_file(tmp_path, thick_levels, max_dim):
    # the top level of circle-24-thick has cliques of 12 vertices: below
    # that, the write stops at the flag complex's guard, after the file's
    # start is written, and raises build_flag's message for the level
    top = thick_levels[-1]
    out = tmp_path / "level.json"
    with pytest.raises(GuardExceeded) as caught:
        build_flag(top.lam, top.adjacency, max_dim)
    with pytest.raises(GuardExceeded, match=f"^{re.escape(str(caught.value))}$"):
        write_json(out, _level_payload(top, max_dim))
    assert not out.exists() and not list(tmp_path.iterdir())


def test_a_guard_met_after_a_flushed_chunk_leaves_no_file(tmp_path):
    # isolated vertices first, then a clique of 5 vertices past the guard
    # of max_dim 2: the first chunk of rows is written before the guard
    k = _CHUNK + 3
    adjacency = [0] * k + [(0b11111 & ~(1 << v)) << k for v in range(5)]
    level = free_level(adjacency, [1] * len(adjacency))
    out = tmp_path / "level.json"
    with pytest.raises(GuardExceeded, match="^level \\{0\\}: a clique of 5 vertices exceeds"):
        write_json(out, _level_payload(level, 2))
    assert not out.exists()


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
    # empty rows at the edges of a chunk
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


def text_rows(text):
    """A flag complex's and a nerve's writers whose search hands on this
    row text ``_CHUNK`` rows at a time, the nerve being the flag complex."""

    def search(flush, nerve):
        for i in range(0, len(text), _CHUNK):
            flush(text[i:i + _CHUNK])
        return True

    return level_rows(search)


@pytest.mark.parametrize("count", [_CHUNK - 1, _CHUNK, _CHUNK + 1, 2 * _CHUNK + 1])
def test_row_text_across_slice_edges(path, count):
    # rows handed on a chunk at a time, as a flag complex and as a nerve
    # copied from what the sink holds of the flag complex
    rows = [(i % 7, 7 + i % 5, 20 + i % 13) if i % 3 else (i % 37,) for i in range(count)]
    flag, nerve = text_rows(row_text(rows))
    obj = {"flag_complex": {"simplices": flag}, "nerve_complex": {"simplices": nerve}}
    expected = {"flag_complex": {"simplices": rows}, "nerve_complex": {"simplices": rows}}
    assert emitted(obj, path) == (dump_json_oracle(expected),) * 2


def test_row_text_at_another_indent_is_refused(tmp_path):
    # row text is written only where it was rendered for: a level file's
    # simplices, two levels down
    rows = text_rows(row_text([(0,), (0, 1)]))[0]
    assert dump_json({"a": {"simplices": rows}}) == dump_json_oracle({"a": {"simplices": [[0], [0, 1]]}})
    for obj in (rows, {"simplices": rows}, {"a": {"b": {"simplices": rows}}}, [rows], [[[rows]]]):
        out = tmp_path / "out.json"
        with pytest.raises(ValueError, match="^row text for indent 4 met at indent "):
            write_json(out, obj)
        assert not out.exists()
