"""Numeric foundation: triangles, barycentric coordinates, lines, circles, conics.

Everything operates on small numpy arrays, except the float kernels of the
solvers (`cross`, `line_through`, `foot_on_line`, `CircleData.xyr`), which
take and return plain floats because numpy's per-call dispatch on 2- and
3-vectors costs more than the arithmetic.  The verify path works on batches
instead: a `TriangleData` whose fields are arrays with a leading batch axis
(`stack_triangles`), and the conversions, centers and residuals below take
that axis, row by row.  Their stacked products (`dot`, `@`, `solve`, `inv`)
round each row exactly as one triangle alone, so a batch and a single
triangle agree to the bit.  Homogeneous quantities
(barycentric points, line coefficient triples, conic matrices) are defined up
to a nonzero scale; equality checks therefore use the sine of the angle
between coordinate vectors, never componentwise differences.

Cartesian embeddings are canonical: B = (0, 0), C = (a, 0), A in the upper
half-plane, unless a triangle is built from explicit vertices.
"""

from __future__ import annotations

import math
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .errors import (
    CoincidentPoints,
    DegenerateConic,
    DegenerateTriangle,
    GeometryError,
    InfinitePoint,
    NonEllipse,
)

Array = np.ndarray

# Reject triangles with area below AREA_CUTOFF * s^2: every downstream
# formula divides by an area-derived quantity.
AREA_CUTOFF = 1e-12


# ---------------------------------------------------------------------------
# homogeneous-coordinate helpers


def dot(p, q):
    """Dot product along the last axis, row by row; bit-identical to
    `np.dot` of one pair of vectors."""
    return (p[..., None, :] @ q[..., :, None])[..., 0, 0]


def norm(p):
    """Euclidean norm along the last axis; bit-identical to `np.linalg.norm`
    of one vector."""
    return np.sqrt(dot(p, p))


def mathmap(fn, *args):
    """A function of plain floats (`math`'s, or `pow`) on floats, and
    elementwise on arrays.  numpy's own atan2, atan, hypot and power loops
    (and sin, where numpy has a SIMD one) round differently from C's, so
    this keeps a batch, a single triangle and the `solve` documents on one
    rounding."""
    if np.ndim(args[0]):
        shape = np.shape(args[0])
        return np.array(list(map(fn, *(np.broadcast_to(x, shape).tolist() for x in args))))
    return fn(*args)


def sin_angles(p, q):
    """Sine of the angle between coordinate vectors along the last axis,
    row by row over any leading (batch) axes.

    Scale (and sign) invariant; this is the canonical equality residual for
    homogeneous objects.  Computed as the norm of the component of q
    orthogonal to p, which stays accurate down to machine precision for
    nearly parallel vectors, unlike sqrt(1 - cos^2).  Reads 1.0 where either
    vector is zero.
    """
    p, q = np.asarray(p, dtype=float), np.asarray(q, dtype=float)
    norm_p, norm_q = norm(p), norm(q)
    with np.errstate(divide="ignore", invalid="ignore"):
        p, q = p / norm_p[..., None], q / norm_q[..., None]
        orth = norm(q - dot(p, q)[..., None] * p)
    return np.where((norm_p == 0.0) | (norm_q == 0.0), 1.0, np.minimum(1.0, orth))


def sin_angle(p, q) -> float:
    """`sin_angles` of one pair of vectors or matrices, compared entrywise."""
    return float(sin_angles(np.ravel(p), np.ravel(q)))


def normalize_bary(p) -> Array:
    """Canonical representative: component sum 1 for finite points,
    max |component| = 1 (first nonzero component positive) at infinity."""
    p = np.asarray(p, dtype=float)
    scale = np.abs(p).max()
    if scale == 0.0:
        raise GeometryError("zero barycentric triple")
    total = p.sum()
    if abs(total) > 1e-14 * scale:
        return p / total
    q = p / scale
    return q if q[np.flatnonzero(q)[0]] > 0 else -q


def is_infinite_bary(p) -> bool:
    p = np.asarray(p, dtype=float)
    return abs(p.sum()) <= 1e-14 * np.abs(p).max()


def homog(P) -> Array:
    """Cartesian point(s) -> homogeneous (x, y, 1), along the last axis."""
    P = np.asarray(P, dtype=float)
    return np.concatenate([P, np.ones(P.shape[:-1] + (1,))], axis=-1)


# ---------------------------------------------------------------------------
# triangles


class TriangleData(NamedTuple):
    """Immutable triangle: sidelengths, derived metric data, an embedding.

    a, b, c are the lengths of the sides opposite A, B, C;  s is the
    semiperimeter and u = s - a, v = s - b, w = s - c.  In a batch
    (`stack_triangles`) each field is an array with a leading batch axis.
    """

    a: float
    b: float
    c: float
    s: float
    u: float
    v: float
    w: float
    area: float
    r: float
    R: float
    vertices: Array  # 3x2, rows A, B, C

    @property
    def A(self) -> Array:
        return self.vertices[..., 0, :]

    @property
    def B(self) -> Array:
        return self.vertices[..., 1, :]

    @property
    def C(self) -> Array:
        return self.vertices[..., 2, :]

    @property
    def sides(self) -> tuple[float, float, float]:
        return (self.a, self.b, self.c)

    def bary_matrix(self) -> Array:
        """3x3 matrix V with V @ [x,y,z] = (sum-weighted) homogeneous cartesian."""
        V = np.ones(self.vertices.shape[:-2] + (3, 3))
        V[..., :2, :] = np.swapaxes(self.vertices, -1, -2)
        return V


def stack_triangles(triangles) -> TriangleData:
    """N triangles as one batch: each field an array with a leading axis of N."""
    return TriangleData(*(np.array(field) for field in zip(*triangles)))


def heron(a: float, b: float, c: float) -> float:
    """Triangle area from the sidelengths (Heron's formula)."""
    s = 0.5 * (a + b + c)
    return mathmap(math.sqrt, s * (s - a) * (s - b) * (s - c))


def _derive(a: float, b: float, c: float, vertices: Array) -> TriangleData:
    s = 0.5 * (a + b + c)
    u, v, w = s - a, s - b, s - c
    if np.min((a, b, c, u, v, w)) <= 0.0:
        raise DegenerateTriangle(f"sides ({a}, {b}, {c}) violate the triangle inequality")
    area = heron(a, b, c)
    if np.any(area < AREA_CUTOFF * s * s):
        raise DegenerateTriangle(f"triangle ({a}, {b}, {c}) is numerically flat")
    return TriangleData(
        a=a, b=b, c=c, s=s, u=u, v=v, w=w,
        area=area, r=area / s, R=a * b * c / (4.0 * area),
        vertices=vertices,
    )


def triangle_from_sides(a: float, b: float, c: float) -> TriangleData:
    """Build a triangle in the canonical embedding B=(0,0), C=(a,0), A above."""
    if not all(math.isfinite(x) for x in (a, b, c)):
        raise DegenerateTriangle("non-finite sidelength")
    x = (a * a + c * c - b * b) / (2.0 * a) if a > 0 else 0.0
    y2 = c * c - x * x
    if y2 <= 0.0:
        raise DegenerateTriangle(f"sides ({a}, {b}, {c}) do not embed")
    vertices = np.array([[x, math.sqrt(y2)], [0.0, 0.0], [a, 0.0]])
    return _derive(float(a), float(b), float(c), vertices)


def triangle_from_vertices(pts) -> TriangleData:
    """Build a triangle from an explicit 3x2 vertex array (A, B, C rows), or
    a batch of them (N x 3 x 2)."""
    P = np.array(pts, dtype=float).reshape(np.shape(pts)[:-2] + (3, 2))
    if not np.all(np.isfinite(P)):
        raise DegenerateTriangle("non-finite vertex")
    a, b, c = (norm(P[..., i, :] - P[..., j, :]) for i, j in ((1, 2), (2, 0), (0, 1)))
    return _derive(a, b, c, P)


# ---------------------------------------------------------------------------
# barycentric <-> cartesian


def bary_to_cartesian(p, tri: TriangleData) -> Array:
    """Map a finite homogeneous barycentric triple to a cartesian point."""
    p = np.asarray(p, dtype=float)
    total = p.sum(axis=-1)
    if (abs(total) <= 1e-14 * abs(p).max(axis=-1)).any():
        raise InfinitePoint("barycentric point at infinity has no cartesian image")
    return (p[..., None, :] @ tri.vertices)[..., 0, :] / total[..., None]


def _signed2(P, Q, R) -> float:
    return (Q[0] - P[0]) * (R[1] - P[1]) - (Q[1] - P[1]) * (R[0] - P[0])


def cartesian_to_bary(P, tri: TriangleData) -> Array:
    """Inverse of bary_to_cartesian; returns the sum-1 representative."""
    P = np.asarray(P, dtype=float)
    A, B, C = tri.vertices
    full = _signed2(A, B, C)
    return np.array([
        _signed2(P, B, C) / full,
        _signed2(A, P, C) / full,
        _signed2(A, B, P) / full,
    ])


def convert_bary(p, tri_from: TriangleData, tri_to: TriangleData) -> Array:
    """Re-express a barycentric triple w.r.t. another triangle.

    Works projectively: solves `tri_to.bary_matrix()` x = h for the point's
    homogeneous cartesian image h under `tri_from`, so points at infinity
    convert to points at infinity.
    """
    h = tri_from.bary_matrix() @ np.asarray(p, dtype=float)[..., None]
    return np.linalg.solve(tri_to.bary_matrix(), h)[..., 0]


# ---------------------------------------------------------------------------
# lines


def cross(p, q) -> tuple[float, float, float]:
    """Cross product of two 3-vectors on plain floats.

    The same multiplies and subtracts as `np.cross`, so the result is
    bit-identical, without numpy's per-call dispatch.
    """
    p0, p1, p2 = p
    q0, q1, q2 = q
    return (p1 * q2 - p2 * q1, p2 * q0 - p0 * q2, p0 * q1 - p1 * q0)


def line_through(p, q) -> Array:
    """Homogeneous line through two homogeneous points (cross product).

    Valid in barycentric or cartesian-homogeneous coordinates alike; by
    duality, the same cross product is the meet of two lines.
    """
    p = np.asarray(p, dtype=float).tolist()
    q = np.asarray(q, dtype=float).tolist()
    line = cross(p, q)
    if math.hypot(*line) <= 1e-14 * math.hypot(*p) * math.hypot(*q):
        raise CoincidentPoints("points are proportional; no unique line")
    return np.array(line)


def incidence_residual(line, p) -> float:
    """|<line, p>| / (|line| |p|): scale-invariant incidence defect."""
    line = np.asarray(line, dtype=float)
    p = np.asarray(p, dtype=float)
    return abs(dot(line, p)) / (norm(line) * norm(p))


def cart_line(P, Q) -> Array:
    """Cartesian homogeneous line through two cartesian points."""
    return line_through((P[0], P[1], 1.0), (Q[0], Q[1], 1.0))


def point_line_distance(P, line) -> float:
    """Euclidean distance of a cartesian point to a cartesian homogeneous line."""
    line, P = np.asarray(line, dtype=float), np.asarray(P, dtype=float)
    l, m, n = line[..., 0], line[..., 1], line[..., 2]
    return abs(l * P[..., 0] + m * P[..., 1] + n) / mathmap(math.hypot, l, m)


def side_incidence(vertices, points, nearest: bool = False) -> tuple[float, set[int]]:
    """Largest distance of side i (vertex i to vertex i + 1) from point i,
    and the set of the points measured.  With `nearest`, each side is
    measured from whichever point is nearest it instead, so the set shows
    whether the sides pass through every point in some order."""
    n = len(vertices)
    worst, hit = 0.0, set()
    for i in range(n):
        side = cart_line(vertices[i], vertices[(i + 1) % n])
        dists = [point_line_distance(P, side) for P in (points if nearest else points[i:i + 1])]
        k = int(np.argmin(dists))
        hit.add(k if nearest else i)
        worst = max(worst, dists[k])
    return worst, hit


def foot_on_line(P, Q, X) -> tuple[float, float]:
    """Foot of the perpendicular from X onto the line through P and Q, as a
    float pair."""
    px, py = P
    dx, dy = Q[0] - px, Q[1] - py
    norm = math.sqrt(dx * dx + dy * dy)
    dx, dy = dx / norm, dy / norm
    k = (X[0] - px) * dx + (X[1] - py) * dy
    return px + k * dx, py + k * dy


def line_bary_to_cart(line, tri: TriangleData) -> Array:
    V = tri.bary_matrix()
    return np.linalg.solve(np.swapaxes(V, -1, -2), np.asarray(line, float)[..., None])[..., 0]


def line_cart_to_bary(line, tri: TriangleData) -> Array:
    return tri.bary_matrix().T @ np.asarray(line, float)


def side_lines(tri: TriangleData) -> Array:
    """Cartesian homogeneous lines of the sides (BC, CA, AB), i.e. opposite
    A, B, C, as the rows of a 3x3 matrix."""
    H = homog(tri.vertices)
    return np.cross(H[..., [1, 2, 0], :], H[..., [2, 0, 1], :])


# ---------------------------------------------------------------------------
# circles


class _Circle(NamedTuple):
    center: Array
    radius: float


class CircleData(_Circle):
    """Circle by cartesian center and radius, or a batch of circles.

    Radius 0 is tolerated only as the degenerate point-circle that shows up
    in equilateral Brocard frames; proper constructions always yield > 0.
    """

    def __new__(cls, center, radius):
        if not all(0.0 <= r < math.inf for r in np.ravel(radius).tolist()):
            raise GeometryError(f"invalid circle radius {radius}")
        return super().__new__(cls, center, radius)

    @cached_property
    def xyr(self) -> tuple[float, float, float]:
        """(center x, center y, radius) of one circle as plain floats, for
        the float kernels."""
        cx, cy = np.asarray(self.center, dtype=float).tolist()
        return cx, cy, float(self.radius)

    def point_at(self, theta: float) -> Array:
        return self.center + self.radius * np.array([math.cos(theta), math.sin(theta)])


def incircle(tri: TriangleData) -> CircleData:
    center = bary_to_cartesian(np.array([tri.a, tri.b, tri.c]), tri)
    return CircleData(center=center, radius=tri.r)


def excircle(tri: TriangleData, which: str) -> CircleData:
    """Excircle opposite vertex `which` in {'A','B','C'}."""
    idx = "ABC".index(which)
    weights = np.array([tri.a, tri.b, tri.c])
    weights[idx] = -weights[idx]
    radius = tri.area / (tri.u, tri.v, tri.w)[idx]
    return CircleData(center=bary_to_cartesian(weights, tri), radius=radius)


def circle_tangency_residual(circle: CircleData, line) -> float:
    """|distance(center, line) - radius|, in length units."""
    return abs(point_line_distance(circle.center, line) - circle.radius)


# ---------------------------------------------------------------------------
# solution triangles

INCIRCLE = "incircle"
EXCIRCLE_A = "excircle-A"
EXCIRCLE_B = "excircle-B"
EXCIRCLE_C = "excircle-C"
CIRCLE_TAGS = (INCIRCLE, EXCIRCLE_A, EXCIRCLE_B, EXCIRCLE_C)


def tagged_circle(tri: TriangleData, tag: str) -> CircleData:
    if tag == INCIRCLE:
        return incircle(tri)
    if tag in (EXCIRCLE_A, EXCIRCLE_B, EXCIRCLE_C):
        return excircle(tri, tag[-1])
    raise GeometryError(f"unknown circle tag {tag!r}")


class VertexMatrix(NamedTuple):
    """One inscribed solution triangle, rows = vertices in reference
    barycentrics; in a batch, N x 3 x 3 rows of N reference triangles."""

    rows: Array  # 3x3
    label: str  # "T1" | "T2"
    circle: str  # one of CIRCLE_TAGS

    def cartesian(self, tri: TriangleData) -> Array:
        """All three rows through one matmul; bit-identical to calling
        `bary_to_cartesian` on each row."""
        rows = self.rows
        totals = rows.sum(axis=-1)
        if np.any(np.abs(totals) <= 1e-14 * np.abs(rows).max(axis=-1)):
            raise InfinitePoint("barycentric point at infinity has no cartesian image")
        return (rows @ tri.vertices) / totals[..., None]


# ---------------------------------------------------------------------------
# conics

POINT_CONIC = "point"
LINE_CONIC = "line"


class _Conic(NamedTuple):
    m: Array
    kind: str


class ConicMatrix(_Conic):
    """Symmetric homogeneous 3x3 conic matrix, or a batch (N x 3 x 3).

    kind 'point': x^T M x = 0 for points on the conic.
    kind 'line':  l^T M l = 0 for tangent lines (dual form).
    """

    __slots__ = ()

    def __new__(cls, m, kind):
        m = np.asarray(m, dtype=float)
        if m.shape[-2:] != (3, 3):
            raise GeometryError("conic matrix must be 3x3 symmetric")
        mt = np.swapaxes(m, -1, -2)
        if np.any(np.abs(m - mt).max(axis=(-2, -1)) > 1e-12 * np.abs(m).max(axis=(-2, -1))):
            raise GeometryError("conic matrix must be 3x3 symmetric")
        if kind not in (POINT_CONIC, LINE_CONIC):
            raise GeometryError(f"unknown conic kind {kind!r}")
        return super().__new__(cls, 0.5 * (m + mt), kind)

    def dual(self) -> "ConicMatrix":
        kind = LINE_CONIC if self.kind == POINT_CONIC else POINT_CONIC
        return ConicMatrix(adjugate3(self.m), kind)


def adjugate3(M) -> Array:
    """Adjugate (cofactor transpose) of a 3x3 matrix, or of each in a batch:
    its columns are the cross products of cyclically consecutive rows."""
    M = np.asarray(M, dtype=float)
    r0, r1, r2 = M[..., 0, :], M[..., 1, :], M[..., 2, :]
    return np.stack([np.cross(r1, r2), np.cross(r2, r0), np.cross(r0, r1)], axis=-1)


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
    return ConicMatrix(m, POINT_CONIC)


def conic_point_residual(conic: ConicMatrix, Ph) -> float:
    """Scale-invariant on-conic residual of a homogeneous point."""
    if conic.kind != POINT_CONIC:
        raise GeometryError("point residual requires a point-conic")
    Ph = np.asarray(Ph, dtype=float)
    val = float(Ph @ conic.m @ Ph)
    return abs(val) / (np.linalg.norm(conic.m) * float(Ph @ Ph))

def conic_line_residual(conic: ConicMatrix, line) -> float:
    """Scale-invariant tangency residual of a homogeneous line."""
    n = conic.m if conic.kind == LINE_CONIC else adjugate3(conic.m)
    line = np.asarray(line, dtype=float)
    val = dot((line[..., None, :] @ n)[..., 0, :], line)
    return abs(val) / (norm(n.reshape(n.shape[:-2] + (9,))) * dot(line, line))


def conic_bary_to_cart(conic: ConicMatrix, tri: TriangleData) -> ConicMatrix:
    W = np.linalg.inv(tri.bary_matrix())
    return ConicMatrix(W.T @ conic.m @ W, conic.kind)


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
    return ConicMatrix(np.array([[A, B, C], [B, D, E], [C, E, F]]), LINE_CONIC)


class Ellipse(NamedTuple):
    center: Array
    semi_axes: tuple[float, float]  # (major, minor)
    axes: Array                     # 2x2, columns the major and minor directions


def ellipse_axes(conic: ConicMatrix) -> Ellipse:
    """Centre, semi-axes and axis directions of a real ellipse given as a
    cartesian point-conic, from one `solve` and one `eigh`."""
    if conic.kind != POINT_CONIC:
        raise GeometryError("ellipse axes require a point-conic")
    M = conic.m
    center = np.linalg.solve(M[:2, :2], -M[:2, 2])
    Q, val = M[:2, :2], float(M[2, 2] + M[:2, 2] @ center)
    if np.trace(Q) < 0:
        Q, val = -Q, -val  # sign Q positive: its smallest eigenvalue marks the major axis
    eigvals, eigvecs = np.linalg.eigh(Q)
    if val >= 0.0 or eigvals[0] <= 0.0:
        raise NonEllipse("conic is not a real ellipse")
    major, minor = (math.sqrt(-val / ev) for ev in eigvals)
    return Ellipse(center=center, semi_axes=(major, minor), axes=eigvecs)
