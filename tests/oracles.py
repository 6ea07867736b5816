"""Helpers only the tests use: comparisons, circle and conic oracles and
samplers that no entry point of the package needs.

Each is written against the package's public types (`core.CircleData`,
`core.ConicMatrix`, ...), so a test reads it like package code.  Not a test
module: pytest does not collect it.
"""

from __future__ import annotations

import math

import numpy as np

from castillon import ccp_closed, core
from castillon.ccp_closed import SignedSides
from castillon.ccp_general import _involution
from castillon.core import CircleData, ConicMatrix
from castillon.errors import CenterPoint, GeometryError, InfinitePoint

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
    return ConicMatrix(m)


def conic_point_residual(conic: ConicMatrix, Ph) -> float:
    """Scale-invariant on-conic residual of a homogeneous point."""
    Ph = np.asarray(Ph, dtype=float)
    val = float(Ph @ conic.m @ Ph)
    return abs(val) / (np.linalg.norm(conic.m) * float(Ph @ Ph))


def dual_tangency_residual(dual: ConicMatrix, line) -> float:
    """Scale-invariant tangency residual |l^T N l| / (|N| |l|^2) of one
    homogeneous line against a dual (line) conic N, such as
    `conic_from_tangent_lines` fits."""
    n, line = dual.m, np.asarray(line, dtype=float)
    return abs(line @ n @ line) / (np.linalg.norm(n) * (line @ line))


def conic_from_tangent_lines(lines) -> ConicMatrix:
    """Dual conic through five line-coordinate triples, as the symmetric
    matrix N of its tangent lines l, l^T N l = 0.

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
    return ConicMatrix(np.array([[A, B, C], [B, D, E], [C, E, F]]))


def golden_coefficients(phi):
    """The incircle's two coefficient matrices (T1, T2) of the column
    products (vw, uw, uv), at any phi, by the expressions `ccp_closed.T1` and
    `ccp_closed.T2` are built from."""
    t1 = np.array([
        [phi * phi, 1.0, (phi - 1.0) ** 2],
        [(phi - 2.0) ** 2, 1.0, (phi - 1.0) ** 2],
        [(phi - 2.0) ** 2, (2.0 * phi - 3.0) ** 2, (phi - 1.0) ** 2],
    ])
    t2 = np.array([
        [1.0, phi * phi, (phi + 1.0) ** 2],
        [(2.0 * phi + 1.0) ** 2, phi * phi, (phi + 1.0) ** 2],
        [(2.0 * phi + 1.0) ** 2, (3.0 * phi + 2.0) ** 2, (phi + 1.0) ** 2],
    ])
    return t1, t2


def signed_uvw(sd: SignedSides) -> tuple:
    """(u, v, w) = (s - a, s - b, s - c) of a formal side triple, with
    s = (a + b + c) / 2; elementwise, so on a batch's arrays too."""
    s = 0.5 * (sd.a + sd.b + sd.c)
    return s - sd.a, s - sd.b, s - sd.c


def incircle_vertices(tri: core.TriangleData, phi) -> Array:
    """Cartesian vertices of the two incircle solutions (T1, T2), as one
    (2, 3, 2) array, from the coefficient matrices at any phi."""
    u, v, w = signed_uvw(SignedSides.from_triangle(tri))
    products = np.array([v * w, u * w, u * v])
    rows = np.array(golden_coefficients(phi)) * products
    return core.rows_to_cartesian(rows, tri.vertices)


def finite_total(x: float, y: float, z: float) -> float:
    """Sum of one barycentric triple, left to right on floats; InfinitePoint
    where it is at most 1e-14 max |component|.  The per-triple reference of
    `core.row_totals`."""
    total = x + y + z
    if abs(total) <= 1e-14 * max(abs(x), abs(y), abs(z)):
        raise InfinitePoint(core.AT_INFINITY)
    return total


def _exverted(tri: core.TriangleData, tag: str) -> SignedSides:
    sd = SignedSides.from_triangle(tri)
    return sd if tag == core.INCIRCLE else sd.exverted(tag[-1])


def circle_center(tri: core.TriangleData, tag: str) -> Array:
    """One circle's centre evaluated alone: its weights, the exverted sides,
    through one 1-D matmul over the vertices and `finite_total`."""
    weights = list(_exverted(tri, tag))
    return (np.array(weights) @ tri.vertices) / finite_total(*weights)


def pair_rows(sd: SignedSides, tag: str) -> Array:
    """Cleared rows of one circle's two solutions, (..., 2, 3, 3): its
    coefficient pair times the column products (vw, uw, uv) of `sd`, which is
    exverted for an excircle, evaluated for that circle alone."""
    u, v, w = signed_uvw(sd)
    products = np.array([v * w, u * w, u * v]).T[..., None, None, :]
    return np.ascontiguousarray(ccp_closed._coefficient_pair(tag) * products)


def solution_pair(tri: core.TriangleData, tag: str) -> tuple[Array, Array]:
    """One circle's closed-form rows and cartesian vertices evaluated alone,
    (..., 2, 3, 3) and (..., 2, 3, 2): `pair_rows` of the exverted sides, one
    stacked matmul, and a division by `finite_total` of each row."""
    rows = pair_rows(_exverted(tri, tag), tag)
    totals = [finite_total(*row) for row in rows.reshape(-1, 3).tolist()]
    vertices = rows @ tri.vertices[..., None, :, :]
    return rows, vertices / np.array(totals).reshape(rows.shape[:-1] + (1,))


def report_passed(report) -> bool:
    """Whether every check of a `brocard.Report` passes on every triangle."""
    return all(np.all(c.passed) for c in report.checks)


def report_max_residual(report) -> float:
    """Largest residual over the checks of a `brocard.Report`; 0 for none."""
    return max((float(np.max(c.residual)) for c in report.checks), default=0.0)


def random_interior_perspector(rng: np.random.Generator) -> Array:
    """Positive barycentric triple, each entry in [PERSPECTOR_FLOOR, 1), so
    bounded away from the triangle's sides."""
    return rng.uniform(PERSPECTOR_FLOOR, 1.0, 3)


def chord_involution(circle: CircleData, P) -> tuple[float, float, float, float]:
    """Entries [[m00, m01], [m10, m11]] of the involution t -> t' pairing the
    two circle intersections of chords through P.  P at the center yields
    the antipodal map t -> -1/t; P on the circle yields the (degenerate)
    constant map onto its own parameter."""
    x, y = map(float, P)
    if not (math.isfinite(x) and math.isfinite(y)):
        raise CenterPoint("chord pivot must be a finite point")
    cx, cy, r = circle.xyr
    return _involution(complex(x - cx, y - cy) / r)
