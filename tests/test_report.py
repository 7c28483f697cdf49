from __future__ import annotations

import math
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from conftest import level_flag, level_nerve
from oracles import dump_json_oracle
from nervelim.complexes import LambdaIndex, complex_to_json
from nervelim.ground import Arcs, CircleGrid, CoverFamily, generate_cover, generate_space
from nervelim.homology import BondRanks
from nervelim.report import FORMAT_VERSION, dump_json
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


@given(JSON_VALUES)
def test_dump_json_matches_json_dumps(obj):
    assert dump_json(obj) == dump_json_oracle(obj)


@pytest.mark.parametrize(
    "obj, text",
    [
        ({"10": 0, "9": 0}, '{\n  "10": 0,\n  "9": 0\n}\n'),
        ([True, 1], "[\n  true,\n  1\n]\n"),
        ([[True, 1]], "[\n  [\n    true,\n    1\n  ]\n]\n"),
        ({"x": (Fraction(1, 3), [], {})}, '{\n  "x": [\n    "1/3",\n    [],\n    {}\n  ]\n}\n'),
        ("é\n", '"\\u00e9\\n"\n'),
    ],
)
def test_dump_json_edge_cases(obj, text):
    assert dump_json(obj) == text == dump_json_oracle(obj)


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


def test_level_files_match_json_dumps_at_scale():
    # the circle-24-thick family: its top level has 24,864 simplices per complex
    space = generate_space(CircleGrid(), 24)
    arcs = ((3, Fraction(1)), (6, Fraction(1, 4)), (12, Fraction(1, 4)))
    family = CoverFamily(
        tuple(generate_cover(space, Arcs(n, o), cover_id=i) for i, (n, o) in enumerate(arcs)),
        space,
    )
    system = build_system(family, None, 16)
    nerves = [level_nerve(level, system.max_dim) for level in system.levels]
    assert max(map(len, nerves)) >= 5000
    for level, nerve in zip(system.levels, nerves):
        flag = level_flag(level, system.max_dim)
        payload = {
            "format_version": FORMAT_VERSION,
            "lambda": list(level.lam.cover_ids),
            "flag_complex": complex_to_json(level.lam, level.vertices, flag, True),
            "nerve_complex": complex_to_json(level.lam, level.vertices, nerve, False),
        }
        assert dump_json(payload) == dump_json_oracle(payload)
