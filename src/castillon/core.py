"""Numeric foundation: triangles, barycentric coordinates, lines, circles, conics.

Everything operates on small numpy arrays; `CircleData.xyr` hands the
general solvers a circle as plain floats.  Their chord walks run on complex
numbers in the circle's own frame, where it is the unit circle, through one
chord formula (`ccp_general._chord`).  The verify path works on batches
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


def homog(P) -> Array:
    """Cartesian point(s) -> homogeneous (x, y, 1), along the last axis."""
    P = np.asarray(P, dtype=float)
    return np.concatenate([P, np.ones(P.shape[:-1] + (1,))], axis=-1)


# ---------------------------------------------------------------------------
# triangles


class _Triangle(NamedTuple):
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


class TriangleData(_Triangle):
    """Immutable triangle: sidelengths, derived metric data, an embedding.

    a, b, c are the lengths of the sides opposite A, B, C;  s is the
    semiperimeter and u = s - a, v = s - b, w = s - c.  In a batch
    (`stack_triangles`) each field is an array with a leading batch axis.
    Values derived from the triangle alone are built on first use and kept
    with it (`derived`).
    """

    @property
    def sides(self) -> tuple[float, float, float]:
        return (self.a, self.b, self.c)

    def bary_matrix(self) -> Array:
        """3x3 matrix V with V @ [x,y,z] = (sum-weighted) homogeneous cartesian."""
        V = np.ones(self.vertices.shape[:-2] + (3, 3))
        V[..., :2, :] = np.swapaxes(self.vertices, -1, -2)
        return V

    @cached_property
    def _derived(self) -> dict:
        return {}

    def derived(self, build, *args):
        """`build(self, *args)`, evaluated on the first call and kept with
        the triangle, one value per `build` and `args`.  `build` must be a
        pure function of the triangle and `args`, and every caller shares
        what it returns, so no caller may write into it (the stacked builds
        return read-only arrays)."""
        key = (build, *args) if args else build
        store = self._derived
        if key not in store:
            store[key] = build(self, *args)
        return store[key]


def stack_triangles(triangles) -> TriangleData:
    """N triangles as one batch: each field an array with a leading axis of N."""
    return TriangleData(*(np.array(field) for field in zip(*triangles)))


def concat_triangles(batches) -> TriangleData:
    """Batches joined in order as one batch."""
    return TriangleData(*(np.concatenate(fields) for fields in zip(*batches)))


def select_triangles(t: TriangleData, index) -> TriangleData:
    """The rows of a batch that a mask or slice selects, as a new batch."""
    return TriangleData(*(field[index] for field in t))


# The tests a triangle fails, on floats or elementwise on arrays; each reads
# True where it fails.  The scalar builders raise on the first that fails,
# `triangles_from_sides` keeps the rows that fail none.


def _unembedded(y2):
    """A has no height above BC: its squared height y2 is not positive."""
    return y2 <= 0.0


def _breaks_inequality(a, b, c, u, v, w):
    """A side is not positive or breaks the strict triangle inequality."""
    return (a <= 0.0) | (b <= 0.0) | (c <= 0.0) | (u <= 0.0) | (v <= 0.0) | (w <= 0.0)


def _flat(area, s):
    return area < AREA_CUTOFF * s * s


def _fails(test) -> bool:
    """Whether a test fails on a triangle, or on any triangle of a batch."""
    return test.any() if isinstance(test, np.ndarray) else bool(test)


def _tangents(a, b, c):
    """The semiperimeter s and the tangent lengths s - a, s - b, s - c."""
    s = 0.5 * (a + b + c)
    return s, s - a, s - b, s - c


def _apex(a, b, c):
    """x of A in the canonical embedding, and y2, the square of its height."""
    x = (a * a + c * c - b * b) / (2.0 * a)
    return x, c * c - x * x


def _triangle(a, b, c, s, u, v, w, area, vertices) -> TriangleData:
    return TriangleData(
        a=a, b=b, c=c, s=s, u=u, v=v, w=w,
        area=area, r=area / s, R=a * b * c / (4.0 * area),
        vertices=vertices,
    )


def _derive(a: float, b: float, c: float, vertices: Array) -> TriangleData:
    s, u, v, w = _tangents(a, b, c)
    if _fails(_breaks_inequality(a, b, c, u, v, w)):
        raise DegenerateTriangle(f"sides ({a}, {b}, {c}) violate the triangle inequality")
    area = mathmap(math.sqrt, s * u * v * w)  # Heron's formula
    if _fails(_flat(area, s)):
        raise DegenerateTriangle(f"triangle ({a}, {b}, {c}) is numerically flat")
    return _triangle(a, b, c, s, u, v, w, area, vertices)


def triangle_from_sides(a: float, b: float, c: float) -> TriangleData:
    """Build a triangle in the canonical embedding B=(0,0), C=(a,0), A above."""
    if not all(math.isfinite(x) for x in (a, b, c)):
        raise DegenerateTriangle("non-finite sidelength")
    x, y2 = _apex(a, b, c) if a > 0 else (0.0, c * c)
    if _unembedded(y2):
        raise DegenerateTriangle(f"sides ({a}, {b}, {c}) do not embed")
    vertices = np.array([[x, math.sqrt(y2)], [0.0, 0.0], [a, 0.0]])
    return _derive(float(a), float(b), float(c), vertices)


@np.errstate(invalid="ignore")  # Heron's product is negative where the inequality fails
def triangles_from_sides(a: Array, b: Array, c: Array) -> TriangleData:
    """The triangles `triangle_from_sides` builds from positive finite side
    arrays a, b, c, as one batch of the rows it accepts, in order.  Each row
    takes the same IEEE operations (`np.sqrt` rounds as `math.sqrt`), so it
    is bit-identical to `triangle_from_sides` of its sides."""
    x, y2 = _apex(a, b, c)
    s, u, v, w = _tangents(a, b, c)
    area = np.sqrt(s * u * v * w)  # Heron's formula
    keep = ~(_unembedded(y2) | _breaks_inequality(a, b, c, u, v, w) | _flat(area, s))
    a, b, c, s, u, v, w, area, x, y2 = (q[keep] for q in (a, b, c, s, u, v, w, area, x, y2))
    vertices = np.zeros(a.shape + (3, 2))
    vertices[:, 0, 0], vertices[:, 0, 1], vertices[:, 2, 0] = x, np.sqrt(y2), a
    return _triangle(a, b, c, s, u, v, w, area, vertices)


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


AT_INFINITY = "barycentric point at infinity has no cartesian image"


def row_totals(p: Array) -> tuple[Array, Array]:
    """The sum of each triple along the last axis, left to right (x + y) + z
    as numpy sums three entries, as an axis of 1; and where that sum is at
    most 1e-14 max |component|, a point at infinity."""
    totals = p.sum(axis=-1, keepdims=True)
    return totals, np.abs(totals) <= 1e-14 * np.abs(p).max(axis=-1, keepdims=True)


def rows_to_cartesian(rows: Array, vertices: Array) -> Array:
    """Cartesian points of the barycentric rows of the matrices `rows` over
    vertex arrays (..., 3, 2) that broadcast with them: one matmul (numpy
    rounds each entry as a chain of fused multiply-adds, each matrix of a
    stack as alone) and one division; InfinitePoint if a row is at infinity."""
    totals, infinite = row_totals(rows)
    if infinite.any():
        raise InfinitePoint(AT_INFINITY)
    return (rows @ vertices) / totals


def bary_to_cartesian(p, tri: TriangleData) -> Array:
    """Map a finite homogeneous barycentric triple to a cartesian point."""
    p = np.asarray(p, dtype=float)
    return rows_to_cartesian(p[..., None, :], tri.vertices)[..., 0, :]


def _signed2(P, Q, R) -> float:
    return (Q[0] - P[0]) * (R[1] - P[1]) - (Q[1] - P[1]) * (R[0] - P[0])


def cartesian_to_bary(P, tri: TriangleData) -> Array:
    """Inverse of bary_to_cartesian; returns the sum-1 representative.  P is
    one point or a 2 x n array (then 3 x n), taken point by point on floats:
    the array formula's IEEE operations, bit for bit, without its dispatch."""
    P = np.asarray(P, dtype=float)
    A, B, C = tri.vertices.tolist()
    full = _signed2(A, B, C)
    rows = [(_signed2(Q, B, C) / full, _signed2(A, Q, C) / full, _signed2(A, B, Q) / full)
            for Q in P.reshape(2, -1).T.tolist()]
    return np.array(rows).T.reshape((3,) + P.shape[1:])


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


def line_through(p, q) -> Array:
    """Homogeneous line through two homogeneous points (cross product).

    Valid in barycentric or cartesian-homogeneous coordinates alike; by
    duality, the same cross product is the meet of two lines.
    """
    p, q = np.asarray(p, dtype=float), np.asarray(q, dtype=float)
    line = np.cross(p, q)
    if math.hypot(*line) <= 1e-14 * math.hypot(*p) * math.hypot(*q):
        raise CoincidentPoints("points are proportional; no unique line")
    return line


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

    source = None  # (triangle, tag) of a circle that `tagged_circle` built

    def __new__(cls, center, radius):
        if not all(0.0 <= r < math.inf for r in np.asarray(radius).ravel().tolist()):
            raise GeometryError(f"invalid circle radius {radius}")
        return super().__new__(cls, center, radius)

    @cached_property
    def xyr(self) -> tuple[float, float, float]:
        """(center x, center y, radius) of one circle as plain floats, for
        the general solvers' chord walks."""
        cx, cy = np.asarray(self.center, dtype=float).tolist()
        return cx, cy, float(self.radius)


# ---------------------------------------------------------------------------
# the incircle, the excircles and their solution triangles

INCIRCLE = "incircle"
EXCIRCLE_A = "excircle-A"
EXCIRCLE_B = "excircle-B"
EXCIRCLE_C = "excircle-C"
CIRCLE_TAGS = (INCIRCLE, EXCIRCLE_A, EXCIRCLE_B, EXCIRCLE_C)

# The field each circle's radius divides the area by, in `CIRCLE_TAGS` order.
_RADIUS_FIELD = ("s", "u", "v", "w")


def circle_index(tag: str) -> int:
    """A circle's position in `CIRCLE_TAGS`, the leading axis of what is
    built for all four circles at once."""
    if tag not in CIRCLE_TAGS:
        raise GeometryError(f"unknown circle tag {tag!r}")
    return CIRCLE_TAGS.index(tag)


def _radius(tri: TriangleData, k: int) -> float:
    return tri.area / getattr(tri, _RADIUS_FIELD[k])


def four_circles(tri: TriangleData):
    """The `TriangleData.derived` build of a triangle's `ccp_closed.FourCircles`,
    imported once per triangle, at call time, since ccp_closed imports core."""
    from .ccp_closed import build_four_circles
    return build_four_circles(tri)


def _center(tri: TriangleData, k: int) -> Array:
    circles = tri.derived(four_circles)
    if circles.centers_infinite[k]:
        raise InfinitePoint(AT_INFINITY)
    return circles.centers[k]


def tagged_circle(tri: TriangleData, tag: str) -> CircleData:
    """The incircle or an excircle of one triangle, by tag, with its `xyr`.
    Its radius, the area over s, s - a, s - b or s - c, is positive and
    finite by construction, so it skips `CircleData`'s check."""
    k = circle_index(tag)
    circle = _Circle.__new__(CircleData, _center(tri, k), _radius(tri, k))
    circle.xyr, circle.source = (*circle.center.tolist(), float(circle.radius)), (tri, tag)
    return circle


def identify_circle(tri: TriangleData, circle: CircleData) -> str:
    """The tag of the triangle's circle that `circle` is: its `source` tag on
    that triangle object, else the one it matches to 1e-9 of its radius.  A
    candidate of its radius compares the centre `tagged_circle` reads, so a
    named circle matches exactly at any distance from the origin."""
    if circle.source is not None and circle.source[0] is tri:
        return circle.source[1]
    cx, cy, r = circle.xyr
    for k, tag in enumerate(CIRCLE_TAGS):
        radius = _radius(tri, k)
        if abs(radius - r) <= 1e-9 * radius:
            ox, oy = _center(tri, k).tolist()
            if math.hypot(ox - cx, oy - cy) <= 1e-9 * radius:
                return tag
    raise GeometryError("circle is neither the incircle nor an excircle")


def solution_residuals(circle: CircleData, solutions, points, nearest: bool) -> dict[str, float]:
    """A `solve` document's residuals, in radii, the largest over the solutions'
    vertex arrays: `on_circle`, a vertex's distance from the circle, and
    `incidence`, the `side_incidence` of the points (`nearest` as there)."""
    center, radius = circle
    on_circle = max(abs(np.linalg.norm(V - center) - radius)
                    for verts in solutions for V in verts)
    incidence = max(side_incidence(verts, points, nearest)[0] for verts in solutions)
    return {"on_circle": on_circle / radius, "incidence": incidence / radius}


class VertexMatrix(NamedTuple):
    """One inscribed solution triangle, rows = vertices in reference
    barycentrics, and the same vertices in cartesian coordinates; in a
    batch, N x 3 x 3 rows and N x 3 x 2 vertices of N reference triangles."""

    rows: Array  # 3x3
    label: str  # "T1" | "T2"
    vertices: Array  # 3x2, `rows_to_cartesian` of the rows

    def cartesian(self, tri: TriangleData) -> Array:
        """The cartesian vertices, evaluated with the rows; read like
        `CcpSolution.cartesian`."""
        return self.vertices


# ---------------------------------------------------------------------------
# conics

class _Conic(NamedTuple):
    m: Array


class ConicMatrix(_Conic):
    """Symmetric homogeneous 3x3 point-conic matrix M, x^T M x = 0 for the
    points x on the conic, or a batch (N x 3 x 3)."""

    __slots__ = ()

    def __new__(cls, m):
        m = np.asarray(m, dtype=float)
        if m.shape[-2:] != (3, 3):
            raise GeometryError("conic matrix must be 3x3 symmetric")
        mt = np.swapaxes(m, -1, -2)
        if np.any(np.abs(m - mt).max(axis=(-2, -1)) > 1e-12 * np.abs(m).max(axis=(-2, -1))):
            raise GeometryError("conic matrix must be 3x3 symmetric")
        return super().__new__(cls, 0.5 * (m + mt))


def adjugate3(M) -> Array:
    """Adjugate (cofactor transpose) of a 3x3 matrix, or of each in a batch:
    its columns are the cross products of cyclically consecutive rows."""
    M = np.asarray(M, dtype=float)
    r0, r1, r2 = M[..., 0, :], M[..., 1, :], M[..., 2, :]
    return np.stack([np.cross(r1, r2), np.cross(r2, r0), np.cross(r0, r1)], axis=-1)


def tangency_residual(conic: ConicMatrix, lines) -> Array:
    """Largest scale-invariant tangency residual |l^T N l| / (|N| |l|^2) over
    a stack of homogeneous lines l (..., k, 3), where N is the conic's
    adjugate, its dual (line) form, formed once."""
    n = adjugate3(conic.m)[..., None, :, :]
    lines = np.asarray(lines, dtype=float)
    val = dot((lines[..., None, :] @ n)[..., 0, :], lines)
    return np.max(abs(val) / (norm(n.reshape(n.shape[:-2] + (9,))) * dot(lines, lines)),
                  axis=-1)


def conic_bary_to_cart(conic: ConicMatrix, tri: TriangleData) -> ConicMatrix:
    W = np.linalg.inv(tri.bary_matrix())
    return ConicMatrix(W.T @ conic.m @ W)


class Ellipse(NamedTuple):
    center: Array
    semi_axes: tuple[float, float]  # (major, minor)
    axes: Array                     # 2x2, columns the major and minor directions


def ellipse_axes(conic: ConicMatrix) -> Ellipse:
    """Centre, semi-axes and axis directions of a real ellipse given as a
    cartesian point-conic, from one `solve` and one `eigh`."""
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
