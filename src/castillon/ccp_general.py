"""General inscribed-polygon solver: find N-gons inscribed in a circle whose
sides pass cyclically through N given points.

Two independent algorithms are provided.

* `solve_ccp_mobius` composes the chord involutions of the given points on
  the tangent-half-angle parameter of the circle.  Each involution is a real
  2x2 projective map, so the composite's fixed points come from one
  quadratic, yielding 0, 1 or 2 real solutions.

* `solve_ccp_perspectrix` (triangle/incircle-or-excircle case only) runs the
  classical axis construction: three seeded chord paths, their three cross
  points on the homography axis, kept homogeneous so that a point at
  infinity counts like any other, the join of the best-separated two, and
  the axis-circle intersection.  Newton steps with the exact derivative
  polish the intersections, one chord walk per step.

Both walk their chords in the circle's own frame, on Python complex numbers:
the point (x, y) is z = ((x - cx) + i (y - cy)) / r, so the circle is the
unit circle at the origin wherever the triangle lies and whatever its size,
and every threshold is measured in radii.  There the chord through a pivot
p is the Moebius involution z -> (p - z) / (1 - conj(p) z), `_chord`, the
one chord formula of both solvers.  The mobius solver keeps its composite,
quadratic and root filter on the real tan-half-angle maps, where their
tolerances are defined.  Both return `CcpSolution`s, whose `.cartesian(tri)`
is the vertices as the walk computed them, (cx + r Re z, cy + r Im z).
"""

from __future__ import annotations

import cmath
import math
from typing import NamedTuple

import numpy as np

from . import core
from .core import CircleData, TriangleData
from .errors import (
    CenterPoint,
    DegenerateComposition,
    GeometryError,
    NoRealIntersection,
    PathClosed,
)

Array = np.ndarray


# ---------------------------------------------------------------------------
# the chord walk in the circle's frame, z = ((x - cx) + i (y - cy)) / r


def _chord(z: complex, p: complex) -> complex:
    """Other end of the chord from z on the unit circle through the pivot p:
    the involution (p - z) / (1 - conj(p) z), snapped back onto the circle so
    that long walks do not drift.  PathClosed where p is within 1e-14 of z."""
    d = p - z
    if abs(d) <= 1e-14:
        raise PathClosed("chord pivot coincides with the current point")
    w = d / (1.0 - p.conjugate() * z)
    return w / abs(w)


def _walk(z: complex, pivots) -> list[complex]:
    """The chord walk from z through each pivot in turn.  A pivot on the
    circle is the next vertex from anywhere, so the walk meets it there."""
    vertices = [z]
    for p in pivots:
        try:
            z = _chord(z, p)
        except PathClosed:
            z = p / abs(p)
        vertices.append(z)
    return vertices


# ---------------------------------------------------------------------------
# circle parameter:  point at angle theta <-> t = tan(theta/2), kept as a
# homogeneous pair (p : q) with t = p/q so that theta = pi (t = infinity)
# needs no special casing.


def _unit(p: float, q: float) -> tuple[float, float]:
    norm = math.hypot(p, q)
    return p / norm, q / norm


def _compose(outer: tuple, inner: tuple) -> tuple[float, float, float, float]:
    """outer @ inner on four entries each, scaled to a largest |entry| of 1:
    the one composition formula.  Zero (two pivots on the circle that the
    chord walk joins) raises."""
    (a, b, c, d), (e, f, g, h) = outer, inner
    p00, p01, p10, p11 = a * e + b * g, a * f + b * h, c * e + d * g, c * f + d * h
    scale = max(abs(p00), abs(p01), abs(p10), abs(p11))
    if scale == 0.0:
        raise DegenerateComposition("composed chord map is zero")
    return p00 / scale, p01 / scale, p10 / scale, p11 / scale


class MobiusMap(NamedTuple):
    """Real 2x2 matrix [[m00, m01], [m10, m11]] acting projectively on the
    circle parameter; its methods read any tuple of its four floats."""

    m00: float
    m01: float
    m10: float
    m11: float

    def compose(self, inner: tuple) -> "MobiusMap":
        return MobiusMap(*_compose(self, inner))

    def identity_defect(self) -> float:
        a, b, c, d = self
        half = 0.5 * (a + d)
        return math.hypot(a - half, b, c, d - half) / math.hypot(a, b, c, d)


def _involution(p: complex) -> tuple[float, float, float, float]:
    """The entries of the involution t -> t' pairing the ends of the chords
    through the pivot p of the circle's frame: t -> -1/t for p at the center,
    and the (degenerate) constant map onto p's own parameter for p on it."""
    return p.imag, p.real - 1.0, p.real + 1.0, -p.imag


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
        if not np.isfinite(pts).all():
            raise CenterPoint("problem points must be finite")
        return super().__new__(cls, circle, pts)

    @classmethod
    def on_triangle(cls, tri: TriangleData, circle: CircleData) -> "CcpProblem":
        """The triangle's vertices as the points, which `TriangleData`
        already checked."""
        return _Problem.__new__(cls, circle, tri.vertices)


TWO_DISTINCT = "two-distinct"
TANGENT_DOUBLE = "tangent-double"
SINGLE = "single"  # the root left alone after the kernel root is dropped


class CcpSolution(NamedTuple):
    vertices: Array  # Nx2 on the circle, side i..i+1 passes through point i
    multiplicity: str = TWO_DISTINCT

    def cartesian(self, tri: TriangleData) -> Array:
        """The vertices, already cartesian; read like `VertexMatrix.cartesian`."""
        return self.vertices


def _first_vertex_angle(walk) -> float:
    """Order of solutions: the angle of a walk's vertex 0, in [0, 2 pi)."""
    z = walk[0]
    return math.atan2(z.imag, z.real) % (2.0 * math.pi)


def _solutions(circ, walks, multiplicity: str = TWO_DISTINCT) -> list[CcpSolution]:
    """The walks (lists of vertices in the circle's frame, at most two) as
    cartesian solutions, ordered by `_first_vertex_angle`: one array, built
    from a flat list, its rows taken by index."""
    n = len(walks)
    if not n:
        return []
    cx, cy, r = circ
    if n == 2 and _first_vertex_angle(walks[1]) < _first_vertex_angle(walks[0]):
        walks.reverse()
    flat = []
    for walk in walks:
        for z in walk:
            flat += (cx + r * z.real, cy + r * z.imag)
    verts = np.array(flat).reshape(n, -1, 2)
    first = CcpSolution(verts[0], multiplicity)
    return [first, CcpSolution(verts[1], multiplicity)] if n == 2 else [first]


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
    circ = cx, cy, r = prob.circle.xyr
    pivots = [complex(x - cx, y - cy) / r for x, y in prob.points.tolist()]
    composite = _involution(pivots[0])
    for p in pivots[1:]:
        composite = _compose(_involution(p), composite)

    if MobiusMap.identity_defect(composite) <= 1e-10:
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
    walks = []
    for p, q in roots:
        if math.hypot(m00 * p + m01 * q, m10 * p + m11 * q) > 1e-13 * norm:
            # the root t = p/q is the point (q + ip)^2 / (p^2 + q^2) of the frame
            walks.append(_walk(complex(q, p) ** 2 / (p * p + q * q), pivots[:-1]))
    multiplicity = (TANGENT_DOUBLE if kind == "one"
                    else SINGLE if len(walks) < len(roots) else TWO_DISTINCT)
    return _solutions(circ, walks, multiplicity)


# ---------------------------------------------------------------------------
# axis (perspectrix) construction for the triangle / incircle-excircle case,
# in the circle's frame


def _touchpoints(A: complex, B: complex, C: complex) -> tuple[complex, complex, complex]:
    """Tangency points of the unit circle with lines BC, CA, AB: the feet of
    the perpendiculars from the origin."""
    return (B - (C - B) * (B / (C - B)).real, C - (A - C) * (C / (A - C)).real,
            A - (B - A) * (A / (B - A)).real)


def _meet(a: complex, b: complex, c: complex, d: complex) -> tuple[complex, float]:
    """Meet of the chords ab and cd of the unit circle as the homogeneous
    point (X : w): the point X / w, or the point at infinity in the
    direction X where the chords are parallel (w = 0).  Chord ab is the line
    Re(z conj(n)) = Re((a + b) conj(n)) / 2 with unit normal n = sqrt(ab):
    no cancellation for nearby ends, the tangent where a = b and a diameter
    where a = -b.  w = Im(conj(n) n') is the sine between the chords."""
    n, m = cmath.sqrt(a * b), cmath.sqrt(c * d)
    h, k = ((a + b) * n.conjugate()).real, ((c + d) * m.conjugate()).real
    return 0.5j * (k * n - h * m), (n.conjugate() * m).imag


def _axis(ends) -> tuple[complex, float]:
    """The axis of the chord walk, from the (seed, end) pairs of three seed
    paths, as (direction, moment): the line through the points h and h' is
    (h' - h, Im(conj(h) h')) up to scale.  Any two paths a and b cross on
    the axis, at infinity too: the chords a1 b4 and a4 b1 meet there.  Of
    these three meets, as unit vectors (x, y, w), the axis joins the two
    whose smallest sine is largest: the sine between the chords at either
    meet and the sine between the two.  PathClosed where none exceeds 1e-9.
    """
    (a1, a4), (b1, b4), (c1, c4) = ends
    meets = []
    for X, w in (_meet(a1, b4, a4, b1), _meet(a1, c4, a4, c1), _meet(b1, c4, b4, c1)):
        size = math.hypot(X.real, X.imag, w) or 1.0  # coincident chords: no meet
        meets.append((X / size, w / size, abs(w)))
    ab, ac, bc = meets
    best, axis = 1e-9, None
    for (X, w, sine), (Y, v, sine2) in ((ab, ac), (ab, bc), (ac, bc)):
        d, moment = w * Y - v * X, X.real * Y.imag - X.imag * Y.real
        score = min(sine, sine2, math.hypot(d.real, d.imag, moment))
        if score > best:
            best, axis = score, (d, moment)
    if axis is None:
        raise PathClosed("cannot build the axis: no two cross points of the seed "
                         "paths span it")
    return axis


def _closure_gap(pivots, z: complex) -> tuple[float, float]:
    """Angular defect of the chord walk from z through the pivots, the phase
    of z3 conj(z), and its derivative.  A chord through a pivot p outside
    the circle (a triangle vertex, for its incircle and excircles) maps the
    arc at z onto the arc at its other end w reversed and scaled by
    |p - w| / |p - z|; the walk multiplies these."""
    w, slope = z, 1.0
    for p in pivots:
        nxt = _chord(w, p)
        slope *= -abs(p - nxt) / abs(p - w)
        w = nxt
    w *= z.conjugate()
    return math.atan2(w.imag, w.real), slope - 1.0


def _polish_fixed_point(pivots, z: complex) -> complex:
    """Newton-polish an approximate solution vertex on the closure gap.

    Uses only chord steps, one walk per step; refines the axis
    construction's intersection points without touching the parameter-map
    machinery.  Newton with the exact derivative converges quadratically, so
    after a step of at most 1e-9 rad the next one would be below rounding.
    """
    for _ in range(4):
        g, gp = _closure_gap(pivots, z)
        if abs(g) < 1e-15 or abs(gp) < 1e-8:
            break
        step = -g / gp
        if abs(step) > 0.05:
            break  # stay local: never hop to the other fixed point
        z *= complex(math.cos(step), math.sin(step))
        if abs(step) <= 1e-9:
            break
    return z


def solve_ccp_perspectrix(tri: TriangleData, circle: CircleData) -> list[CcpSolution]:
    """Axis construction on the incircle or an excircle of `tri`.

    Seeds follow the constructive recipe: two touchpoints plus the reflection
    of the third touchpoint through the circle center; every path is chained
    by chords through B, then C, then A.  This one seeding gives three cross
    points on the axis (`_axis`); PathClosed where no two of them span it,
    as on needles whose paths all but coincide.  Returns two `CcpSolution`s,
    ordered as `solve_ccp_mobius` orders its own, holding the walk's vertices
    as they are: a detour through barycentrics would only add rounding.
    """
    core.identify_circle(tri, circle)
    circ = cx, cy, r = circle.xyr
    (xa, ya), (xb, yb), (xc, yc) = tri.vertices.tolist()
    A, B, C = (complex(xa - cx, ya - cy) / r, complex(xb - cx, yb - cy) / r,
               complex(xc - cx, yc - cy) / r)
    pivots = (B, C, A)

    t_a, t_b, t_c = _touchpoints(A, B, C)
    ends = []
    for seed in (-t_a, t_b, t_c):
        ends.append((seed, _chord(_chord(_chord(seed, B), C), A)))
    d, moment = _axis(ends)

    # unit direction u, signed distance dist: it meets the circle at u (+-half - i dist)
    u, dist = d / abs(d), moment / abs(d)
    if abs(dist) > 1.0 + 1e-9:
        raise NoRealIntersection("axis does not meet the circle")
    half = math.sqrt(max(1.0 - dist * dist, 0.0))
    walks = []
    for M in (u * complex(half, -dist), u * complex(-half, -dist)):
        M = _polish_fixed_point(pivots, M)
        v2 = _chord(M, B)
        walks.append((M, v2, _chord(v2, C)))
    return _solutions(circ, walks)
