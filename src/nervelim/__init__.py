"""Nerve and flag complexes of cover families over finite ground models,
inverse systems with coordinate-projection bonds, and cell-structure checks."""

from .complexes import (
    Complex,
    LambdaIndex,
    Vertex,
    build_complexes,
    build_flag,
    build_vertices,
    carrier_wedge,
)
from .ground import (
    Cover,
    CoverElement,
    CoverFamily,
    GroundSpace,
    Metric,
    check_local_refinement,
    check_selection_completeness,
    generate_cover,
    generate_space,
)
from .homology import BettiVector, betti, betti_stabilization
from .systems import (
    InverseSystem,
    build_system,
    canonical_map,
    canonical_thread,
    thread_image,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
