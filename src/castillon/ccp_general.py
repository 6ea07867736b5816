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
  Newton steps with the exact derivative polish the intersections, one
  chord walk per step; fallback seedings are built only when needed.

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


class MobiusMap(NamedTuple):
    """Real 2x2 matrix [[m00, m01], [m10, m11]] acting projectively on the
    circle parameter; an immutable tuple of four floats."""

    m00: float
    m01: float
    m10: float
    m11: float

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


def _involution(p: complex) -> MobiusMap:
    """Involution t -> t' pairing the ends of the chords through the pivot p
    of the circle's frame: t -> -1/t for p at the center, and the (degenerate)
    constant map onto p's own parameter for p on the circle."""
    return MobiusMap(p.imag, p.real - 1.0, p.real + 1.0, -p.imag)


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
    """Sort key for solutions: the angle of a walk's vertex 0, in [0, 2 pi)."""
    z = walk[0]
    return math.atan2(z.imag, z.real) % (2.0 * math.pi)


def _solutions(circ, walks, multiplicity: str = TWO_DISTINCT) -> list[CcpSolution]:
    """The walks (lists of vertices in the circle's frame) as cartesian
    solutions, ordered by `_first_vertex_angle`: one array, built from a
    flat list."""
    if not walks:
        return []
    cx, cy, r = circ
    walks.sort(key=_first_vertex_angle)
    flat = [x for walk in walks for z in walk for x in (cx + r * z.real, cy + r * z.imag)]
    return [CcpSolution(verts, multiplicity)
            for verts in np.array(flat).reshape(len(walks), -1, 2)]


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
    maps = [_involution(p) for p in pivots]
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

    # each root t = p/q is the point (q + ip)^2 / (p^2 + q^2) of the frame
    walks = [_walk(complex(q, p) ** 2 / (p * p + q * q), pivots[:-1]) for p, q in genuine]
    multiplicity = (TANGENT_DOUBLE if kind == "one"
                    else SINGLE if len(genuine) < len(roots) else TWO_DISTINCT)
    return _solutions(circ, walks, multiplicity)


# ---------------------------------------------------------------------------
# axis (perspectrix) construction for the triangle / incircle-excircle case,
# in the circle's frame


def _touchpoints(A: complex, B: complex, C: complex) -> list[complex]:
    """Tangency points of the unit circle with lines BC, CA, AB: the feet of
    the perpendiculars from the origin."""
    return [P - (Q - P) * (P / (Q - P)).real for P, Q in ((B, C), (C, A), (A, B))]


def _cross_point(a: complex, b: complex, c: complex, d: complex) -> complex | None:
    """Meet of the chords ab and cd of the unit circle,
    (ab (c + d) - cd (a + b)) / (ab - cd); None where the ends of a chord
    coincide (1e-14) or the chords are parallel to a sine of 1e-9: the sine
    of the angle between them is |ab - cd| / 2."""
    if abs(a - b) <= 1e-14 or abs(c - d) <= 1e-14:
        return None
    ab, cd = a * b, c * d
    if abs(ab - cd) <= 2e-9:
        return None
    return (ab * (c + d) - cd * (a + b)) / (ab - cd)


def _axis_from_seeds(pivots, seeds) -> tuple[complex, float] | None:
    """Walk the three seed paths and intersect cross-chords; returns the axis
    through the cross points h1, h2 as (h2 - h1, Im(conj(h1) h2)), or None if
    this seeding is degenerate."""
    ends = []
    for seed in seeds:
        z = seed
        for p in pivots:
            z = _chord(z, p)
        if abs(z - seed) <= 1e-6:
            return None  # closed path: seed accidentally hit a solution vertex
        ends.append((seed, z))
    (a1, a4), (b1, b4), (c1, c4) = ends
    # a None: a seed landed on another path's endpoint, or parallel chords
    h1 = _cross_point(a1, b4, a4, b1)
    h2 = _cross_point(a1, c4, a4, c1)
    if h1 is None or h2 is None:
        return None
    # sine between (x, y, 1) and (x', y', 1): |(-Im d, Re d, moment)| over their norms
    d, moment = h2 - h1, (h1.conjugate() * h2).imag
    norms = math.hypot(abs(h1), 1.0) * math.hypot(abs(h2), 1.0)
    if math.hypot(d.real, d.imag, moment) <= 1e-9 * norms:
        return None
    return d, moment


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


_TURNS = tuple(complex(math.cos(angle), math.sin(angle)) for angle in (0.37, 0.91, 1.53))


def _seed_ladder(touchpoints):
    """The seedings to try, in order, built one at a time: two touchpoints
    plus the antipode of the third, then two antipodal variants, then the
    three touchpoints rotated about the center by 0.37, 0.91 and 1.53 rad."""
    t_a, t_b, t_c = touchpoints
    yield -t_a, t_b, t_c
    yield t_a, -t_b, -t_c
    yield -t_a, -t_b, t_c
    for turn in _TURNS:
        yield t_a * turn, t_b * turn, t_c * turn


def solve_ccp_perspectrix(tri: TriangleData, circle: CircleData) -> list[CcpSolution]:
    """Axis construction on the incircle or an excircle of `tri`.

    Seeds follow the constructive recipe: two touchpoints plus the reflection
    of the third touchpoint through the circle center; every path is chained
    by chords through B, then C, then A.  If a seeding degenerates (a path
    closes or the two axis points collapse) the construction retries with a
    deterministic ladder of alternative seeds.  Returns two `CcpSolution`s,
    ordered as `solve_ccp_mobius` orders its own, holding the walk's vertices
    as they are: a detour through barycentrics would only add rounding.
    """
    core.identify_circle(tri, circle)
    circ = cx, cy, r = circle.xyr
    A, B, C = [complex(x - cx, y - cy) / r for x, y in tri.vertices.tolist()]
    pivots = (B, C, A)

    for seeds in _seed_ladder(_touchpoints(A, B, C)):
        axis = _axis_from_seeds(pivots, seeds)
        if axis is not None:
            break
    else:
        raise PathClosed("all seed ladders degenerated; cannot build the axis")

    # unit direction u, signed distance dist: it meets the circle at u (+-half - i dist)
    d, moment = axis
    u, dist = d / abs(d), moment / abs(d)
    if abs(dist) > 1.0 + 1e-9:
        raise NoRealIntersection("axis does not meet the circle")
    half = math.sqrt(max(1.0 - dist * dist, 0.0))

    def triangle_of(M):
        M = _polish_fixed_point(pivots, M)
        v2 = _chord(M, B)
        return M, v2, _chord(v2, C)

    return _solutions(circ, [triangle_of(u * complex(half, -dist)),
                             triangle_of(u * complex(-half, -dist))])
