"""Brocard geometry of a triangle and verification of the shared-object
claims for the two inscribed solution triangles.

`brocard_frame` takes a `TriangleData`, `brocard_inellipse` the frame.
Triangle centers come from the `centers` registry, the one source of center
formulas; the test suite re-derives each from its defining geometric
property, so a transcribed formula cannot be wrong silently.  Both solutions
of the inscribed-triangle problem share every frame object computed here;
`verify_shared_objects` checks that claim numerically, object by object,
each check at one fixed tolerance (certified for aspect R/r up to 1e3).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from . import ccp_closed, centers, core
from .core import CircleData, ConicMatrix, TriangleData, VertexMatrix
from .errors import OutOfRange

Array = np.ndarray

SQRT3 = math.sqrt(3.0)

# Below this eccentricity (delta / R) the Brocard axis direction is not
# numerically meaningful and the frame degenerates to the equilateral branch.
DEGENERATE_DELTA = 1e-8


class BrocardFrame:
    """All shared Brocard-geometry objects of one triangle, one formula each.

    Each object is built on first read (`functools.cached_property`), so a
    check pays only for the objects it reads.  Barycentrics are w.r.t. the
    same triangle; cartesian embeddings use its vertex coordinates.  For
    (numerically) equilateral triangles the axis, X187 and X16 are undefined
    and read as None.
    """

    def __init__(self, triangle: TriangleData):
        self.triangle = t = triangle
        self.R = t.R
        self.a2, self.b2, self.c2 = t.a * t.a, t.b * t.b, t.c * t.c

    X3 = cached_property(lambda f: centers.center(3, f.triangle))
    X6 = cached_property(lambda f: centers.center(6, f.triangle))
    X15 = cached_property(lambda f: centers.center(15, f.triangle))
    X16 = cached_property(lambda f: None if f.degenerate else centers.center(16, f.triangle))
    X3_cart = cached_property(lambda f: core.bary_to_cartesian(f.X3, f.triangle))
    X6_cart = cached_property(lambda f: core.bary_to_cartesian(f.X6, f.triangle))
    delta = cached_property(lambda f: float(np.linalg.norm(f.X6_cart - f.X3_cart)))
    omega = cached_property(lambda f: math.atan2(4.0 * f.triangle.area, f.a2 + f.b2 + f.c2))
    Omega1 = cached_property(lambda f: np.array([f.a2 * f.c2, f.a2 * f.b2, f.b2 * f.c2]))
    Omega2 = cached_property(lambda f: np.array([f.a2 * f.b2, f.b2 * f.c2, f.c2 * f.a2]))
    Omega1_cart = cached_property(lambda f: core.bary_to_cartesian(f.Omega1, f.triangle))
    Omega2_cart = cached_property(lambda f: core.bary_to_cartesian(f.Omega2, f.triangle))
    # the Brocard circle, on the diameter X3-X6
    circle = cached_property(lambda f: CircleData(center=0.5 * (f.X3_cart + f.X6_cart),
                                                  radius=0.5 * f.delta))
    lemoine = cached_property(lambda f: np.array([1.0 / f.a2, 1.0 / f.b2, 1.0 / f.c2]))
    lemoine_cart = cached_property(lambda f: core.line_bary_to_cart(f.lemoine, f.triangle))
    # the Brocard axis, through X3 and X6
    axis = cached_property(lambda f: None if f.degenerate else core.line_through(f.X3, f.X6))
    axis_cart = cached_property(
        lambda f: None if f.degenerate else core.cart_line(f.X3_cart, f.X6_cart))
    X187 = cached_property(
        lambda f: None if f.degenerate else core.line_through(f.axis, f.lemoine))

    @property
    def degenerate(self) -> bool:
        return self.delta <= DEGENERATE_DELTA * self.R


def brocard_frame(t: TriangleData) -> BrocardFrame:
    """The Brocard frame of a triangle; its objects are built on first read."""
    return BrocardFrame(t)


class SolvedTriangle:
    """A reference triangle with the closed-form solution pair of each circle
    and the Brocard frames of the two solution triangles, each built on first
    use.  The claim verifiers take one of these or a bare TriangleData, so a
    caller checking several claims on one triangle solves each circle once.
    """

    def __init__(self, triangle: TriangleData):
        self.triangle = triangle
        self._pairs: dict[str, tuple[VertexMatrix, VertexMatrix]] = {}
        self._frames: dict[str, tuple[BrocardFrame, BrocardFrame]] = {}

    def solutions(self, tag: str) -> tuple[VertexMatrix, VertexMatrix]:
        if tag not in self._pairs:
            self._pairs[tag] = ccp_closed.solutions_for(self.triangle, tag)
        return self._pairs[tag]

    def frames(self, tag: str) -> tuple[BrocardFrame, BrocardFrame]:
        if tag not in self._frames:
            self._frames[tag] = tuple(
                brocard_frame(core.triangle_from_vertices(vm.cartesian(self.triangle)))
                for vm in self.solutions(tag))
        return self._frames[tag]


def solved(tri) -> SolvedTriangle:
    """`tri` if it is a SolvedTriangle, else a new one of the TriangleData."""
    return tri if isinstance(tri, SolvedTriangle) else SolvedTriangle(tri)


def brocard_angle_from_eccentricity(delta: float, R: float) -> float:
    """Brocard angle from the axis eccentricity: tan w = (sqrt3/3) sqrt(1 - (d/R)^2)."""
    if delta < 0.0 or R <= 0.0 or delta > R * (1.0 + 1e-12):
        raise OutOfRange(f"need 0 <= delta <= R, got delta={delta}, R={R}")
    ratio2 = min((delta / R) ** 2, 1.0)
    return math.atan((SQRT3 / 3.0) * math.sqrt(1.0 - ratio2))


def inter_brocard_distance_sq(R: float, omega: float) -> float:
    """Squared distance of the two Brocard points: 4 R^2 sin^2 w (1 - 4 sin^2 w)."""
    s = math.sin(omega)
    return 4.0 * R * R * s * s * (1.0 - 4.0 * s * s)


@dataclass(frozen=True)
class BrocardInellipse:
    conic: ConicMatrix       # point-conic, cartesian frame
    semi_axes: tuple[float, float]
    foci: tuple[Array, Array]


def _ellipse_conic(center: Array, direction: Array, a_e: float, b_e: float) -> ConicMatrix:
    """Point-conic with given center, major-axis direction and semi-axes."""
    ca, sa = direction
    rot = np.array([[ca, -sa], [sa, ca]])
    local = np.diag([1.0 / (a_e * a_e), 1.0 / (b_e * b_e), -1.0])
    T = np.eye(3)
    T[:2, :2] = rot
    T[:2, 2] = center
    Tinv = np.linalg.inv(T)
    return ConicMatrix(Tinv.T @ local @ Tinv, core.POINT_CONIC)


def brocard_inellipse(frame: BrocardFrame) -> BrocardInellipse:
    """Inellipse with the Brocard points as foci; semi-axes R[sin w, 2 sin^2 w]."""
    a_e = frame.R * math.sin(frame.omega)
    b_e = 2.0 * frame.R * math.sin(frame.omega) ** 2
    f1, f2 = frame.Omega1_cart, frame.Omega2_cart
    gap = np.linalg.norm(f2 - f1)
    if gap <= DEGENERATE_DELTA * frame.R:
        direction = np.array([1.0, 0.0])
    else:
        direction = (f2 - f1) / gap
    conic = _ellipse_conic(0.5 * (f1 + f2), direction, a_e, b_e)
    return BrocardInellipse(conic=conic, semi_axes=(a_e, b_e), foci=(f1, f2))


# ---------------------------------------------------------------------------
# shared-object verification


class Check(NamedTuple):
    name: str
    residual: float
    tolerance: float
    passed: bool
    skipped: bool = False
    note: str = ""


def check(name, residual, tol, note="") -> Check:
    return Check(name=name, residual=float(residual), tolerance=tol,
                 passed=bool(residual <= tol), note=note)


def skip(name, note) -> Check:
    return Check(name=name, residual=0.0, tolerance=0.0, passed=True,
                 skipped=True, note=note)


@dataclass(frozen=True)
class Report:
    """Checks of one claim; `note` summarizes them for the claim's line."""

    name: str
    checks: tuple[Check, ...]
    note: str = ""

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    @property
    def max_residual(self) -> float:
        active = [c.residual for c in self.checks if not c.skipped]
        return max(active) if active else 0.0


def shared_brocard_points(t: TriangleData) -> tuple[Array, Array]:
    """Reference barycentrics of the solutions' common Brocard points.

    First point [alpha/u : beta/v : gamma/w], second is the cyclic shift
    [gamma/u : alpha/v : beta/w], with alpha = (a-b)^2 - (a+b)c and cyclic.
    """
    a, b, c = t.a, t.b, t.c
    alpha = (a - b) ** 2 - (a + b) * c
    beta = (b - c) ** 2 - (b + c) * a
    gamma = (c - a) ** 2 - (c + a) * b
    first = np.array([alpha / t.u, beta / t.v, gamma / t.w])
    second = np.array([gamma / t.u, alpha / t.v, beta / t.w])
    return first, second


def _radical_axis(c1: CircleData, c2: CircleData) -> Array:
    """Cartesian homogeneous line of equal circle powers."""
    d = c2.center - c1.center
    n = (float(c1.center @ c1.center) - c1.radius ** 2
         - float(c2.center @ c2.center) + c2.radius ** 2)
    return np.array([2.0 * d[0], 2.0 * d[1], n])


def verify_shared_objects(tri: TriangleData | SolvedTriangle) -> Report:
    """Check that both incircle solutions share every Brocard-frame object.

    Degenerate (equilateral) frames skip the axis-dependent comparisons; all
    remaining ones must still agree.
    """
    st = solved(tri)
    t = st.triangle
    f1, f2 = st.frames(core.INCIRCLE)
    tri1, tri2 = f1.triangle, f2.triangle
    e1, e2 = brocard_inellipse(f1), brocard_inellipse(f2)
    R = f1.R
    checks: list[Check] = []

    checks.append(check("brocard-angle-equal", abs(f1.omega - f2.omega), 1e-12))
    checks.append(check("brocard-angle-bound",
                        max(0.0, f1.omega - math.pi / 6.0 - 1e-12), 1e-12,
                        note="0 < omega <= pi/6"))
    checks.append(check(
        "angle-eccentricity-formula",
        max(abs(brocard_angle_from_eccentricity(f.delta, f.R) - f.omega) for f in (f1, f2)),
        1e-10))

    for name, p1, p2 in (("brocard-point-1", f1.Omega1_cart, f2.Omega1_cart),
                         ("brocard-point-2", f1.Omega2_cart, f2.Omega2_cart)):
        checks.append(check(f"{name}-shared", math.dist(p1, p2) / R, 1e-9))

    first, second = shared_brocard_points(t)
    checks.append(check("brocard-point-1-closed-form",
                        core.sin_angle(core.convert_bary(f1.Omega1, tri1, t), first), 1e-9))
    checks.append(check("brocard-point-2-closed-form",
                        core.sin_angle(core.convert_bary(f1.Omega2, tri1, t), second), 1e-9))

    gap2 = math.dist(f1.Omega1_cart, f1.Omega2_cart) ** 2
    expect = inter_brocard_distance_sq(R, f1.omega)
    scale = max(expect, (R * math.sin(f1.omega)) ** 2)
    checks.append(check("inter-brocard-distance", abs(gap2 - expect) / scale, 1e-10))

    checks.append(check("circumcenter-shared",
                        math.dist(f1.X3_cart, f2.X3_cart) / R, 1e-9))
    checks.append(check("symmedian-shared",
                        math.dist(f1.X6_cart, f2.X6_cart) / R, 1e-9))

    checks.append(check("brocard-circle-shared",
                        (math.dist(f1.circle.center, f2.circle.center)
                         + abs(f1.circle.radius - f2.circle.radius)) / R, 1e-9))

    checks.append(check("X15-shared",
                        core.sin_angle(core.convert_bary(f1.X15, tri1, t),
                                       core.convert_bary(f2.X15, tri2, t)), 1e-9))
    checks.append(check("isodynamic-property",
                        _isodynamic_defect(f1) / (R * R), 1e-9))

    if f1.degenerate or f2.degenerate:
        checks.append(skip("axis-shared", "equilateral: Brocard axis undefined"))
        checks.append(skip("X16-shared", "equilateral: X16 undefined"))
        checks.append(skip("X187-shared", "equilateral: X187 undefined"))
        checks.append(skip("points-perpendicular-axis", "equilateral"))
        checks.append(skip("lemoine-radical-axis", "equilateral: point circle"))
    else:
        checks.append(check("axis-shared",
                            core.sin_angle(f1.axis_cart, f2.axis_cart), 1e-9))
        checks.append(check("X16-shared",
                            core.sin_angle(core.convert_bary(f1.X16, tri1, t),
                                           core.convert_bary(f2.X16, tri2, t)), 1e-9))
        checks.append(check("X187-shared",
                            core.sin_angle(core.convert_bary(f1.X187, tri1, t),
                                           core.convert_bary(f2.X187, tri2, t)), 1e-9))
        checks.append(check("X15-X16-on-axis",
                            max(core.incidence_residual(f1.axis, f1.X15),
                                core.incidence_residual(f1.axis, f1.X16)), 1e-9))
        jx, jy = (f1.Omega2_cart - f1.Omega1_cart).tolist()
        ax, ay = (f1.X6_cart - f1.X3_cart).tolist()
        join = math.hypot(jx, jy)
        if join > DEGENERATE_DELTA * R:
            cosang = abs(jx * ax + jy * ay) / (join * math.hypot(ax, ay))
            checks.append(check("points-perpendicular-axis", cosang, 1e-10))
        else:
            checks.append(skip("points-perpendicular-axis", "coincident Brocard points"))
        circum = CircleData(center=f1.X3_cart, radius=f1.R)
        rad = _radical_axis(circum, f1.circle)
        checks.append(check("lemoine-radical-axis",
                            core.sin_angle(rad, f1.lemoine_cart), 1e-10))

    checks.append(check("lemoine-shared",
                        core.sin_angle(f1.lemoine_cart, f2.lemoine_cart), 1e-9))

    checks.append(check("inellipse-shared",
                        core.sin_angle(e1.conic.m, e2.conic.m), 1e-9))
    sin_w = math.sin(f1.omega)
    checks.append(check("inellipse-major-axis",
                        abs(e1.semi_axes[0] - R * sin_w) / (R * sin_w), 1e-10))
    checks.append(check("inellipse-axes-ratio",
                        abs(e1.semi_axes[1] / e1.semi_axes[0] - 2.0 * sin_w), 1e-12))
    six_sides = np.vstack([core.side_lines(tri1), core.side_lines(tri2)])
    dual = e1.conic.dual()
    checks.append(check("inellipse-tangent-six-sides",
                        max(core.conic_line_residual(dual, L) for L in six_sides),
                        1e-9))

    return Report(name="shared-brocard-objects", checks=tuple(checks))


def _isodynamic_defect(frame: BrocardFrame) -> float:
    """Max spread of a*|PA| (a squared length) over the vertices, for both
    isodynamic points."""
    t = frame.triangle
    worst = 0.0
    candidates = [frame.X15] if frame.X16 is None else [frame.X15, frame.X16]
    for point in candidates:
        P = core.bary_to_cartesian(point, t)
        vals = [side * math.dist(P, V)
                for side, V in zip(t.sides, t.vertices)]
        worst = max(worst, max(vals) - min(vals))
    return worst


def de_longchamps_concurrence(tri: TriangleData | SolvedTriangle) -> Report:
    """Check that the four shared Brocard axes (incircle + three excircles)
    all contain the reference's de Longchamps point, and that the incircle
    axis is the reference's Soddy line (through X1 and X7)."""
    st = solved(tri)
    t = st.triangle
    X1, X7, X20 = (core.bary_to_cartesian(centers.center(k, t), t) for k in (1, 7, 20))

    checks: list[Check] = []
    for tag in core.CIRCLE_TAGS:
        g1, g2 = st.frames(tag)
        if g1.degenerate or g2.degenerate:
            checks.append(skip(f"axis-{tag}-contains-X20",
                               "equilateral solutions: axis undefined"))
            continue
        checks.append(check(f"axes-{tag}-shared",
                            core.sin_angle(g1.axis_cart, g2.axis_cart), 1e-9))
        checks.append(check(f"axis-{tag}-contains-X20",
                            core.point_line_distance(X20, g1.axis_cart) / t.R, 1e-9))
        if tag == core.INCIRCLE:
            checks.append(check("incircle-axis-contains-X1",
                                core.point_line_distance(X1, g1.axis_cart) / t.R, 1e-9))
            checks.append(check("incircle-axis-contains-X7",
                                core.point_line_distance(X7, g1.axis_cart) / t.R, 1e-9))
    return Report(name="de-longchamps-concurrence", checks=tuple(checks))
