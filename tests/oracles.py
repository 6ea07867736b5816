"""Helpers only the tests use: comparisons, circle and conic oracles and
samplers that no entry point of the package needs.

Each is written against the package's public types (`core.CircleData`,
`core.ConicMatrix`, ...), so a test reads it like package code.  Not a test
module: pytest does not collect it.
"""

from __future__ import annotations

import math

import numpy as np

from castillon import core
from castillon.ccp_general import MobiusMap, _involution
from castillon.core import CircleData, ConicMatrix
from castillon.errors import CenterPoint, GeometryError

Array = np.ndarray

PERSPECTOR_FLOOR = 0.05


class DegenerateConic(GeometryError):
    """Conic fit produced a null space of dimension other than one."""


def sin_angle(p, q) -> float:
    """`core.sin_angles` of one pair of vectors or matrices, compared entrywise."""
    return float(core.sin_angles(np.ravel(p), np.ravel(q)))


def is_infinite_bary(p) -> bool:
    p = np.asarray(p, dtype=float)
    return abs(p.sum()) <= 1e-14 * np.abs(p).max()


def point_at(circle: CircleData, theta: float) -> Array:
    return circle.center + circle.radius * np.array([math.cos(theta), math.sin(theta)])


def circle_tangency_residual(circle: CircleData, line) -> float:
    """|distance(center, line) - radius|, in length units."""
    return abs(core.point_line_distance(circle.center, line) - circle.radius)


def circle_to_conic(circle: CircleData) -> ConicMatrix:
    cx, cy = circle.center
    r = circle.radius
    if r <= 0.0:
        raise GeometryError("degenerate circle has no conic matrix")
    m = np.array([
        [1.0, 0.0, -cx],
        [0.0, 1.0, -cy],
        [-cx, -cy, cx * cx + cy * cy - r * r],
    ])
    return ConicMatrix(m, core.POINT_CONIC)


def conic_point_residual(conic: ConicMatrix, Ph) -> float:
    """Scale-invariant on-conic residual of a homogeneous point."""
    if conic.kind != core.POINT_CONIC:
        raise GeometryError("point residual requires a point-conic")
    Ph = np.asarray(Ph, dtype=float)
    val = float(Ph @ conic.m @ Ph)
    return abs(val) / (np.linalg.norm(conic.m) * float(Ph @ Ph))


def conic_from_tangent_lines(lines) -> ConicMatrix:
    """Dual conic through five line-coordinate triples.

    The five tangency conditions l^T N l = 0 form a 5x6 linear system in the
    entries of the symmetric dual matrix N; its null vector is the conic.
    Raises DegenerateConic if the null space is not one-dimensional.
    """
    lines = np.asarray(lines, dtype=float)
    if lines.shape != (5, 3):
        raise GeometryError("exactly five lines are required")
    lines = lines / np.linalg.norm(lines, axis=1, keepdims=True)
    l, m, n = lines[:, 0], lines[:, 1], lines[:, 2]
    system = np.column_stack([l * l, 2 * l * m, 2 * l * n, m * m, 2 * m * n, n * n])
    _, svals, vt = np.linalg.svd(system)
    # a 5x6 system always has a null vector (vt[-1]); a second vanishing
    # singular value means the lines do not pin down a unique conic
    if svals[-1] <= 1e-10 * svals[0]:
        raise DegenerateConic("tangent lines do not determine a unique conic")
    A, B, C, D, E, F = vt[-1]
    return ConicMatrix(np.array([[A, B, C], [B, D, E], [C, E, F]]), core.LINE_CONIC)


def random_interior_perspector(rng: np.random.Generator) -> Array:
    """Positive barycentric triple, each entry in [PERSPECTOR_FLOOR, 1), so
    bounded away from the triangle's sides."""
    return rng.uniform(PERSPECTOR_FLOOR, 1.0, 3)


def chord_involution(circle: CircleData, P) -> MobiusMap:
    """Involution t -> t' pairing the two circle intersections of chords
    through P.  P at the center yields the antipodal map t -> -1/t; P on the
    circle yields the (degenerate) constant map onto its own parameter."""
    x, y = map(float, P)
    if not (math.isfinite(x) and math.isfinite(y)):
        raise CenterPoint("chord pivot must be a finite point")
    cx, cy, r = circle.xyr
    return _involution(complex(x - cx, y - cy) / r)
