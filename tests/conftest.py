from __future__ import annotations

import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, settings, strategies as st

sys.path.insert(0, str(Path(__file__).parent))

from nervelim import build_system
from nervelim.complexes import DEFAULT_MAX_DIM, Complex, build_flag, build_nerve
from nervelim.ground import CoverFamily, GroundSpace, cover_from_pointsets
from nervelim.presets import PRESETS

settings.register_profile(
    "ci",
    max_examples=60,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("ci")


def build_level(family, lam, max_dim=DEFAULT_MAX_DIM):
    """The level ``lam`` of ``family``, built as ``build_system`` builds it."""
    return build_system(family, [lam], max_dim).levels[0]


def level_flag(level, max_dim: int) -> Complex:
    """The flag complex of ``level``, built as the program's readers build
    it, under the ``max_dim`` of the system the level belongs to."""
    return build_flag(level.lam, level.adjacency, max_dim)


def level_nerve(level, max_dim: int) -> Complex:
    """The nerve of ``level``, as ``level_flag`` builds the flag complex."""
    return build_nerve(level.lam, level.adjacency, level.fibers, max_dim)


def level_flags(system) -> list[Complex]:
    """Every level's flag complex, in level order, as
    ``check_nerve_absorption`` builds them."""
    return [level_flag(level, system.max_dim) for level in system.levels]


def pointset_family(space, pointset_lists):
    """The family whose cover i has the point sets ``pointset_lists[i]``."""
    covers = tuple(
        cover_from_pointsets(i, sets) for i, sets in enumerate(pointset_lists)
    )
    return CoverFamily(covers, space)


@st.composite
def family_and_lambda(draw):
    # at most 2 covers x 3 elements = 9 vertices, so raw subset
    # enumeration in the oracle stays cheap
    n = draw(st.integers(min_value=1, max_value=5))
    n_covers = draw(st.integers(min_value=1, max_value=2))
    lists = []
    for _ in range(n_covers):
        n_elements = draw(st.integers(min_value=1, max_value=3))
        sets = [
            set(draw(st.sets(st.integers(0, n - 1), min_size=1)))
            for _ in range(n_elements)
        ]
        sets[-1] |= set(range(n)) - set().union(*sets)
        lists.append(sets)
    space = GroundSpace(n)
    return pointset_family(space, lists), lists


@st.composite
def planted_triangles(draw):
    """A family in the shape ``family_and_lambda`` draws, with three
    elements of cover 0 that meet pairwise and share no point, planted
    among random ones.  A second cover, when drawn, holds the whole space,
    so the three wedges survive at the level of both covers."""
    n = draw(st.integers(min_value=3, max_value=5))
    a, b, c = draw(st.permutations(range(n)))[:3]
    lists = [[{a, b}, {b, c}, {a, c}]]
    if draw(st.booleans()):
        lists.append([set(range(n))])
    for sets in lists:
        for _ in range(draw(st.integers(min_value=0, max_value=1))):
            sets.append(set(draw(st.sets(st.integers(0, n - 1), min_size=1))))
    lists[0][-1] |= set(range(n)) - set().union(*lists[0])
    return pointset_family(GroundSpace(n), lists), lists


@pytest.fixture(scope="session")
def preset_systems():
    """Each preset's family and fully built inverse system, built once."""
    out = {}
    for name, preset in PRESETS.items():
        family = preset.factory()
        out[name] = (family.ground, family, build_system(family, max_dim=DEFAULT_MAX_DIM))
    return out


@pytest.fixture(scope="session")
def cantor_system(preset_systems):
    return preset_systems["cantor-d3"][2]


@pytest.fixture(scope="session")
def interval_system(preset_systems):
    return preset_systems["interval-g8"][2]


@pytest.fixture(scope="session")
def circle_system(preset_systems):
    return preset_systems["circle-a3612"][2]


@pytest.fixture(scope="session")
def wedge_system(preset_systems):
    return preset_systems["wedge2"][2]

