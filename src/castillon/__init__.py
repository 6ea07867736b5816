"""Inscribed-polygon (Cramer-Castillon) solvers on a triangle's incircle,
excircles and inconics, with closed-form golden-ratio solutions and
verification of the shared Brocard-geometry objects."""

from . import brocard, ccp_closed, ccp_general, centers, core, inconic
from .ccp_closed import (
    GoldenConstants,
    SignedSides,
    excircle_solutions,
    exversion,
    generator_seed,
    golden_constants,
    incircle_solutions,
    solution_symmedian,
    twenty_three_from_one,
)
from .ccp_general import (
    CcpProblem,
    CcpSolution,
    MobiusMap,
    chord_involution,
    solve_ccp_mobius,
    solve_ccp_perspectrix,
)
from .core import (
    CircleData,
    ConicMatrix,
    TriangleData,
    VertexMatrix,
    bary_to_cartesian,
    cartesian_to_bary,
    conic_from_tangent_lines,
    excircle,
    incircle,
    line_through,
    triangle_from_sides,
    triangle_from_vertices,
)
from .inconic import (
    InconicSpec,
    inconic_from_perspector,
    solve_ccp_inconic,
)

__version__ = "0.1.0"
