"""Inscribed-triangle problem on an arbitrary inconic, in closed form.

Barycentrics are affine invariants, and an inconic with an interior
perspector [x : y : z] is the affine image of the incircle of a triangle
whose Gergonne point is [x : y : z].  So the two solutions are the incircle
golden-ratio rows evaluated at (u, v, w) = (1/x, 1/y, 1/z), read in the
reference triangle.  The single conic all six solution sides touch is the
image of the solutions' shared Brocard inellipse: the inconic of the first
solution whose perspector is [x : y : z] in that solution's barycentrics.

`circularizing_map` is the affine map sending the inconic to the unit
circle; it draws the image panel of the inconic figure.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from . import ccp_closed, core
from .core import ConicMatrix, TriangleData
from .errors import DegenerateTriangle, GeometryError, NonEllipse

Array = np.ndarray


class InconicSpec(NamedTuple):
    perspector: Array            # positive barycentric triple
    conic: ConicMatrix           # cartesian frame


def _inconic_matrix(p) -> Array:
    """Barycentric point-conic matrix of the inconic with perspector p."""
    x, y, z = p
    return np.array([
        [y * y * z * z, -x * y * z * z, -x * y * y * z],
        [-x * y * z * z, x * x * z * z, -x * x * y * z],
        [-x * y * y * z, -x * x * y * z, x * x * y * y],
    ])


def inconic_from_perspector(p, tri: TriangleData) -> InconicSpec:
    """Inconic with Brianchon point p; touches side BC at [0 : q : r] etc.

    Requires an interior perspector (all components one sign), which makes
    the inconic a real ellipse.
    """
    p = np.asarray(p, dtype=float)
    if np.all(p < 0):
        p = -p
    if not np.all(p > 0):
        raise NonEllipse("perspector must be interior (all components positive)")
    conic_bary = ConicMatrix(_inconic_matrix(p))
    return InconicSpec(perspector=p, conic=core.conic_bary_to_cart(conic_bary, tri))


def circularizing_map(spec: InconicSpec) -> tuple[Array, Array]:
    """Linear part W and center of the affine map P -> W @ P - W @ center,
    which sends the inconic to the unit circle at the origin."""
    ellipse = core.ellipse_axes(spec.conic)
    return (ellipse.axes / ellipse.semi_axes) @ ellipse.axes.T, ellipse.center


class InconicSolutions(NamedTuple):
    triangles: tuple[Array, Array]     # two 3x2 cartesian vertex arrays
    conic: ConicMatrix                 # the common circumscribed conic
    tangency_residual: float
    incidence_residual: float


@np.errstate(all="ignore")  # the checks below refuse what overflows or has no line
def solve_ccp_inconic(spec: InconicSpec, tri: TriangleData) -> InconicSolutions:
    """Two solution triangles through A, B, C inscribed in the inconic, plus
    the single conic all six of their sides touch."""
    p = spec.perspector
    u, v, w = 1.0 / p
    # positive u, v, w make every term of the incircle's rows positive, so
    # none lies at infinity
    rows = np.array(ccp_closed.circle_rows(v + w, u + w, u + v, core.INCIRCLE)).reshape(2, 3, 3)
    triangles = core.rows_to_cartesian(rows, tri.vertices)

    try:
        Binv = np.linalg.inv(rows[0] / rows[0].sum(axis=1, keepdims=True))
    except np.linalg.LinAlgError as exc:  # its vertices are collinear to working precision
        raise DegenerateTriangle("the first solution's vertex matrix is singular") from exc
    q = p @ Binv
    conic = core.conic_bary_to_cart(ConicMatrix(Binv @ _inconic_matrix(q) @ Binv.T), tri)

    sides = core.polygon_sides(triangles)
    tangency = core.tangency_residual(conic, sides.reshape(-1, 3))
    if not tangency <= 1e-8:  # NaN too, where two vertices coincide and a side has no line
        raise GeometryError(f"common conic misses a solution side ({tangency:.2e})")

    # each side measured from the vertex of ABC nearest it: all three, once each
    dist = core.point_line_distance(tri.vertices, sides[..., None, :])
    scale = float(np.max(np.abs(tri.vertices))) or 1.0
    incidence = np.max(dist.min(axis=-1)) / scale
    if not incidence <= 1e-9 or (np.sort(dist.argmin(axis=-1)) != (0, 1, 2)).any():
        raise GeometryError("solution sides do not pass cyclically through A, B, C")

    return InconicSolutions(
        triangles=(triangles[0], triangles[1]),
        conic=conic,
        tangency_residual=tangency,
        incidence_residual=incidence,
    )
