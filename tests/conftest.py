from __future__ import annotations

import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, settings

sys.path.insert(0, str(Path(__file__).parent))

from nervelim import build_system
from nervelim.complexes import DEFAULT_MAX_DIM
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

