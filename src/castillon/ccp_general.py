"""General inscribed-polygon solver: find N-gons inscribed in a circle whose
sides pass cyclically through N given points.

Two independent algorithms are provided.

* `solve_ccp_mobius` composes the chord involutions of the given points on
  the tangent-half-angle parameter of the circle.  Each involution is a real
  2x2 projective map, so the composite's fixed points come from one
  quadratic, yielding 0, 1 or 2 real solutions.

* `solve_ccp_perspectrix` (triangle/incircle-or-excircle case only) runs the
  classical axis construction: three seeded chord paths, the two cross
  intersections on the homography axis, and the axis-circle intersection.

Both run on plain Python floats and tuples, not numpy arrays: the 2x2 maps,
the circle parameters, the chord walk and the circle identification.  On 2-
and 3-vectors numpy's per-call dispatch costs several times the arithmetic,
and one solve takes a few dozen such steps.  Numpy arrays are built only for
the returned vertices.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from . import core
from .core import CircleData, TriangleData, VertexMatrix
from .errors import (
    CenterPoint,
    DegenerateComposition,
    GeometryError,
    NoRealIntersection,
    PathClosed,
)

Array = np.ndarray


# ---------------------------------------------------------------------------
# circle parameter:  point at angle theta <-> t = tan(theta/2), kept as a
# homogeneous pair (p : q) with t = p/q so that theta = pi (t = infinity)
# needs no special casing.


def _unit(p: float, q: float) -> tuple[float, float]:
    norm = math.hypot(p, q)
    return p / norm, q / norm


def param_from_point(circle: CircleData, P) -> tuple[float, float]:
    cx, cy, r = circle.xyr
    x, y = map(float, P)
    c, s = (x - cx) / r, (y - cy) / r
    return _unit(s, 1.0 + c) if 1.0 + c >= 0.5 else _unit(1.0 - c, s)


def point_from_param(circle: CircleData, pq) -> tuple[float, float]:
    cx, cy, r = circle.xyr
    p, q = pq
    den = p * p + q * q
    return cx + r * ((q * q - p * p) / den), cy + r * (2.0 * p * q / den)


class MobiusMap(NamedTuple):
    """Real 2x2 matrix [[m00, m01], [m10, m11]] acting projectively on the
    circle parameter; an immutable tuple of four floats."""

    m00: float
    m01: float
    m10: float
    m11: float

    def __call__(self, pq) -> tuple[float, float]:
        a, b, c, d = self
        p, q = pq
        x, y = a * p + b * q, c * p + d * q
        if math.hypot(x, y) <= 1e-13 * math.hypot(a, b, c, d) * math.hypot(p, q):
            # pq spans the kernel of a rank-1 chord map (pivot on the circle);
            # the continuous extension is the map's constant image direction
            x, y = a * -q + b * p, c * -q + d * p
        return _unit(x, y)

    def _times(self, inner: "MobiusMap") -> tuple[float, float, float, float]:
        a, b, c, d = self
        e, f, g, h = inner
        return a * e + b * g, a * f + b * h, c * e + d * g, c * f + d * h

    def compose(self, inner: "MobiusMap") -> "MobiusMap":
        p00, p01, p10, p11 = self._times(inner)
        scale = max(abs(p00), abs(p01), abs(p10), abs(p11))
        if scale == 0.0:
            # two pivots on the circle that the chord walk joins
            raise DegenerateComposition("composed chord map is zero")
        return MobiusMap(p00 / scale, p01 / scale, p10 / scale, p11 / scale)

    def identity_defect(self) -> float:
        a, b, c, d = self
        half = 0.5 * (a + d)
        return math.hypot(a - half, b, c, d - half) / math.hypot(a, b, c, d)


def chord_involution(circle: CircleData, P) -> MobiusMap:
    """Involution t -> t' pairing the two circle intersections of chords
    through P.  P at the center yields the antipodal map t -> -1/t; P on the
    circle yields the (degenerate) constant map onto its own parameter."""
    x, y = map(float, P)
    if not (math.isfinite(x) and math.isfinite(y)):
        raise CenterPoint("chord pivot must be a finite point")
    cx, cy, r = circle.xyr
    px, py = (x - cx) / r, (y - cy) / r
    return MobiusMap(py, px - 1.0, px + 1.0, -py)


# ---------------------------------------------------------------------------
# problems and solutions


class _Problem(NamedTuple):
    circle: CircleData
    points: Array  # Nx2, N >= 3


class CcpProblem(_Problem):
    __slots__ = ()

    def __new__(cls, circle: CircleData, points):
        pts = np.asarray(points, dtype=float)
        if pts.ndim != 2 or pts.shape[0] < 3 or pts.shape[1] != 2:
            raise GeometryError("a problem needs at least three cartesian points")
        if not np.all(np.isfinite(pts)):
            raise CenterPoint("problem points must be finite")
        return super().__new__(cls, circle, pts)

    @classmethod
    def on_triangle(cls, tri: TriangleData, circle: CircleData) -> "CcpProblem":
        return cls(circle=circle, points=tri.vertices.copy())


TWO_DISTINCT = "two-distinct"
TANGENT_DOUBLE = "tangent-double"
SINGLE = "single"  # the root left alone after the kernel root is dropped


class CcpSolution(NamedTuple):
    vertices: Array  # Nx2 on the circle, side i..i+1 passes through point i
    multiplicity: str = TWO_DISTINCT

    def max_residuals(self, prob: CcpProblem) -> tuple[float, float]:
        """(on-circle, side-incidence) residuals, both in length units."""
        center, radius = prob.circle
        on_circle = max(abs(np.linalg.norm(V - center) - radius) for V in self.vertices)
        return on_circle, core.side_incidence(self.vertices, prob.points)[0]


def _first_vertex_angle(center, vertices) -> float:
    """Sort key for solutions: angle of vertex 0 about `center`, in [0, 2 pi)."""
    return math.atan2(vertices[0][1] - center[1], vertices[0][0] - center[0]) % (2.0 * math.pi)


def _projective_quadratic_roots(a: float, b: float, c: float, tol: float):
    """Roots of a t^2 + b t + c = 0 as unit homogeneous (p, q) pairs with
    t = p/q.

    Returns (kind, roots) with kind in {'two', 'one', 'none'}.  Uses the
    citardauq pairing so the small root is never formed by cancellation.
    """
    disc = b * b - 4.0 * a * c
    if disc < -tol:
        return "none", []
    if disc <= tol:
        if max(abs(a), abs(b)) <= tol:
            return "one", [(1.0, 0.0)]
        return "one", [_unit(-b, 2.0 * a) if abs(a) >= abs(b) * 1e-14 else _unit(-c, b)]
    sq = math.sqrt(disc)
    qq = -0.5 * (b + math.copysign(sq, b if b != 0.0 else 1.0))
    return "two", [_unit(qq, a), _unit(c, qq)]


def solve_ccp_mobius(prob: CcpProblem) -> list[CcpSolution]:
    """Solve by composing chord involutions; 0, 1 or 2 solutions.

    Raises DegenerateComposition when the composite map is a multiple of the
    identity or zero (every inscribed polygon closes; nothing to enumerate).
    """
    maps = [chord_involution(prob.circle, P) for P in prob.points.tolist()]
    composite = maps[0]
    for nxt in maps[1:]:
        composite = nxt.compose(composite)

    if composite.identity_defect() <= 1e-10:
        raise DegenerateComposition(
            "composed chord map is the identity: special configuration with "
            "infinitely many inscribed polygons"
        )

    m00, m01, m10, m11 = composite
    tol = 1e-10 * (m00 * m00 + m01 * m01 + m10 * m10 + m11 * m11)
    kind, roots = _projective_quadratic_roots(m10, m11 - m00, -m01, tol)
    # A pivot on the circle has a rank-1 chord map, which sends its own
    # parameter to zero.  The composite's kernel then solves the quadratic
    # too, but the walk from it runs into that zero: it is no polygon.
    norm = math.hypot(m00, m01, m10, m11)
    genuine = [(p, q) for p, q in roots
               if math.hypot(m00 * p + m01 * q, m10 * p + m11 * q) > 1e-13 * norm]

    walks = []
    for root in genuine:
        params = [root]
        for inv in maps[:-1]:
            params.append(inv(params[-1]))
        walks.append([point_from_param(prob.circle, pq) for pq in params])
    walks.sort(key=lambda verts: _first_vertex_angle(prob.circle.xyr, verts))
    multiplicity = (TANGENT_DOUBLE if kind == "one"
                    else SINGLE if len(genuine) < len(roots) else TWO_DISTINCT)
    return [CcpSolution(vertices=verts, multiplicity=multiplicity)
            for verts in np.array(walks)]


# ---------------------------------------------------------------------------
# axis (perspectrix) construction for the triangle / incircle-excircle case,
# on plain floats: a circle is (cx, cy, r), a point (x, y) and a homogeneous
# line or point (x, y, z).


def _second_intersection(circ, Q, through) -> tuple[float, float]:
    """Other intersection of the circle with the chord from Q through `through`."""
    cx, cy, r = circ
    qx, qy = Q
    dx, dy = through[0] - qx, through[1] - qy
    norm = math.sqrt(dx * dx + dy * dy)
    if norm <= 1e-14 * r:
        raise PathClosed("chord pivot coincides with the current point")
    dx, dy = dx / norm, dy / norm
    k = 2.0 * ((qx - cx) * dx + (qy - cy) * dy)
    # snap back onto the circle so four-step paths do not drift
    rx, ry = qx - k * dx - cx, qy - k * dy - cy
    norm = math.sqrt(rx * rx + ry * ry)
    return cx + r * rx / norm, cy + r * ry / norm


def _touchpoints(circ, A, B, C) -> list[tuple[float, float]]:
    """Tangency points of the circle with lines BC, CA, AB."""
    center = circ[:2]
    return [core.foot_on_line(P, Q, center) for P, Q in ((B, C), (C, A), (A, B))]


def _rotate_about(circ, P, angle: float) -> tuple[float, float]:
    cx, cy, _ = circ
    ca, sa = math.cos(angle), math.sin(angle)
    rx, ry = P[0] - cx, P[1] - cy
    return cx + (ca * rx - sa * ry), cy + (sa * rx + ca * ry)


def identify_circle(tri: TriangleData, circle: CircleData) -> str:
    """Match a circle against the triangle's incircle/excircles.

    The centres come from the barycentric weights (a, b, c), with the weight
    of the excircle's vertex negated; the radii are area / s and area / (s - a)
    etc., as in `core.incircle` and `core.excircle`.
    """
    a, b, c = tri.sides
    A, B, C = tri.vertices.tolist()
    cx, cy, r = circle.xyr
    candidates = (
        (core.INCIRCLE, (a, b, c), tri.r),
        (core.EXCIRCLE_A, (-a, b, c), tri.area / tri.u),
        (core.EXCIRCLE_B, (a, -b, c), tri.area / tri.v),
        (core.EXCIRCLE_C, (a, b, -c), tri.area / tri.w),
    )
    for tag, (wa, wb, wc), radius in candidates:
        total = wa + wb + wc
        ox = (wa * A[0] + wb * B[0] + wc * C[0]) / total
        oy = (wa * A[1] + wb * B[1] + wc * C[1]) / total
        if (math.hypot(ox - cx, oy - cy) <= 1e-9 * radius
                and abs(radius - r) <= 1e-9 * radius):
            return tag
    raise GeometryError("circle is neither the incircle nor an excircle")


def _meet(p, q, tol: float):
    """Cross product of two homogeneous 3-vectors (their join or meet), or
    None when the sine of the angle between them is at most `tol`."""
    x = core.cross(p, q)
    return None if math.hypot(*x) <= tol * math.hypot(*p) * math.hypot(*q) else x


def _axis_from_seeds(circ, pivots, seeds):
    """Walk the three seed paths and intersect cross-chords; returns the
    homogeneous axis line, or None if this seeding is degenerate."""
    ends = []
    for seed in seeds:
        P = seed
        for pivot in pivots:
            P = _second_intersection(circ, P, pivot)
        if math.hypot(P[0] - seed[0], P[1] - seed[1]) <= 1e-6 * circ[2]:
            return None  # closed path: seed accidentally hit a solution vertex
        ends.append(((*seed, 1.0), (*P, 1.0)))
    (a1, a4), (b1, b4), (c1, c4) = ends

    def cross_point(p, p4, q, q4):
        l1, l2 = _meet(p, q4, 1e-14), _meet(p4, q, 1e-14)
        if l1 is None or l2 is None:
            return None  # seed landed on another path's endpoint
        return _meet(l1, l2, 1e-9)

    h1 = cross_point(a1, a4, b1, b4)
    h2 = cross_point(a1, a4, c1, c4)
    return None if h1 is None or h2 is None else _meet(h1, h2, 1e-9)


def _wrap_angle(x: float) -> float:
    return (x + math.pi) % (2.0 * math.pi) - math.pi


def _closure_gap(circ, pivots, theta: float) -> float:
    """Angular defect of the three-chord walk starting at angle theta."""
    cx, cy, r = circ
    P = (cx + r * math.cos(theta), cy + r * math.sin(theta))
    for pivot in pivots:
        P = _second_intersection(circ, P, pivot)
    return _wrap_angle(math.atan2(P[1] - cy, P[0] - cx) - theta)


def _polish_fixed_point(circ, pivots, P0) -> tuple[float, float]:
    """Newton-polish an approximate solution vertex on the closure gap.

    Uses only geometric chord steps; refines the axis construction's
    intersection points without touching the parameter-map machinery.
    """
    cx, cy, r = circ
    theta = math.atan2(P0[1] - cy, P0[0] - cx)
    step_h = 1e-7
    for _ in range(4):
        g = _closure_gap(circ, pivots, theta)
        if abs(g) < 1e-15:
            break
        gp = (_closure_gap(circ, pivots, theta + step_h) - g) / step_h
        if abs(gp) < 1e-8:
            break
        step = -g / gp
        if abs(step) > 0.05:
            break  # stay local: never hop to the other fixed point
        theta += step
    return cx + r * math.cos(theta), cy + r * math.sin(theta)


def _line_circle_points(circ, line):
    cx, cy, r = circ
    l, m, n = line
    norm = math.hypot(l, m)
    signed = (l * cx + m * cy + n) / norm
    if abs(signed) > r * (1.0 + 1e-9):
        raise NoRealIntersection("axis does not meet the circle")
    fx, fy = cx - signed * l / norm, cy - signed * m / norm
    half = math.sqrt(max(r ** 2 - signed * signed, 0.0))
    dx, dy = -m / norm, l / norm
    return (fx + half * dx, fy + half * dy), (fx - half * dx, fy - half * dy)


def solve_ccp_perspectrix(tri: TriangleData, circle: CircleData) -> tuple[VertexMatrix, VertexMatrix]:
    """Axis construction on the incircle or an excircle of `tri`.

    Seeds follow the constructive recipe: two touchpoints plus the reflection
    of the third touchpoint through the circle center; every path is chained
    by chords through B, then C, then A.  If a seeding degenerates (a path
    closes or the two axis points collapse) the construction retries with a
    deterministic ladder of alternative seeds.
    """
    tag = identify_circle(tri, circle)
    circ = circle.xyr
    cx, cy, _ = circ
    A, B, C = map(tuple, tri.vertices.tolist())
    t_a, t_b, t_c = _touchpoints(circ, A, B, C)
    antipode = lambda P: (2.0 * cx - P[0], 2.0 * cy - P[1])
    pivots = (B, C, A)

    seed_choices = [
        (antipode(t_a), t_b, t_c),
        (t_a, antipode(t_b), antipode(t_c)),
        (antipode(t_a), antipode(t_b), t_c),
    ]
    seed_choices += [
        tuple(_rotate_about(circ, P, angle) for P in (t_a, t_b, t_c))
        for angle in (0.37, 0.91, 1.53)
    ]

    axis = None
    for seeds in seed_choices:
        axis = _axis_from_seeds(circ, pivots, seeds)
        if axis is not None:
            break
    if axis is None:
        raise PathClosed("all seed ladders degenerated; cannot build the axis")

    m1, m4 = _line_circle_points(circ, axis)
    m1 = _polish_fixed_point(circ, pivots, m1)
    m4 = _polish_fixed_point(circ, pivots, m4)

    def triangle_of(M):
        v2 = _second_intersection(circ, M, B)
        return M, v2, _second_intersection(circ, v2, C)

    v1, v4 = sorted((triangle_of(m1), triangle_of(m4)),
                    key=lambda verts: _first_vertex_angle((cx, cy), verts))
    # one call converts all six vertices: cartesian_to_bary broadcasts over
    # a 2 x n coordinate array
    rows = core.cartesian_to_bary(np.array(v1 + v4).T, tri).T
    return (VertexMatrix(rows=rows[:3], label="T1", circle=tag),
            VertexMatrix(rows=rows[3:], label="T2", circle=tag))
