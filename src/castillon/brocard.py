"""Brocard geometry of a triangle and verification of the shared-object
claims for the two inscribed solution triangles.

`brocard_frame` takes a `TriangleData`, `brocard_inellipse` the frame; both
run on one triangle or on a batch (`core.stack_triangles`) with the same
formulas.  Triangle centers come from the `centers` registry, the one source
of center formulas; the test suite re-derives each from its defining
geometric property, so a transcribed formula cannot be wrong silently.  Both
solutions of the inscribed-triangle problem share every frame object
computed here; `verify_shared_objects` checks that claim numerically, object
by object, each check at one fixed tolerance (certified for aspect R/r up to
1e3).  The verifiers take a batch and return one residual column per check,
so a sweep evaluates each check once.
"""

from __future__ import annotations

import math
from functools import cached_property
from typing import NamedTuple

import numpy as np

from . import ccp_closed, centers, core
from .core import CircleData, ConicMatrix, TriangleData
from .errors import OutOfRange

Array = np.ndarray

SQRT3 = math.sqrt(3.0)

# Below this eccentricity (delta / R) the Brocard axis direction is not
# numerically meaningful and the frame degenerates to the equilateral branch.
DEGENERATE_DELTA = 1e-8


class BrocardFrame:
    """All shared Brocard-geometry objects of one triangle, or of each
    triangle of a batch, one formula each.

    Each object is built on first read (`functools.cached_property`), so a
    check pays only for the objects it reads.  Barycentrics are w.r.t. the
    same triangle; cartesian embeddings use its vertex coordinates.  For
    (numerically) equilateral triangles, where `degenerate` holds, the axis,
    X187 and X16 are undefined: they are still computed, and readers check
    `degenerate` before using them.
    """

    def __init__(self, triangle: TriangleData):
        self.triangle = t = triangle
        self.R = t.R
        self.a2, self.b2, self.c2 = t.a * t.a, t.b * t.b, t.c * t.c

    X3 = cached_property(lambda f: centers.center(3, f.triangle))
    X6 = cached_property(lambda f: centers.center(6, f.triangle))
    X15 = cached_property(lambda f: centers.center(15, f.triangle))
    X16 = cached_property(lambda f: centers.center(16, f.triangle))
    X3_cart = cached_property(lambda f: core.bary_to_cartesian(f.X3, f.triangle))
    X6_cart = cached_property(lambda f: core.bary_to_cartesian(f.X6, f.triangle))
    delta = cached_property(lambda f: core.norm(f.X6_cart - f.X3_cart))
    omega = cached_property(lambda f: core.mathmap(
        math.atan2, 4.0 * f.triangle.area, f.a2 + f.b2 + f.c2))
    Omega1 = cached_property(
        lambda f: np.stack([f.a2 * f.c2, f.a2 * f.b2, f.b2 * f.c2], axis=-1))
    Omega2 = cached_property(
        lambda f: np.stack([f.a2 * f.b2, f.b2 * f.c2, f.c2 * f.a2], axis=-1))
    Omega1_cart = cached_property(lambda f: core.bary_to_cartesian(f.Omega1, f.triangle))
    Omega2_cart = cached_property(lambda f: core.bary_to_cartesian(f.Omega2, f.triangle))
    # the Brocard circle, on the diameter X3-X6
    circle = cached_property(lambda f: CircleData(center=0.5 * (f.X3_cart + f.X6_cart),
                                                  radius=0.5 * f.delta))
    lemoine = cached_property(
        lambda f: np.stack([1.0 / f.a2, 1.0 / f.b2, 1.0 / f.c2], axis=-1))
    lemoine_cart = cached_property(lambda f: core.line_bary_to_cart(f.lemoine, f.triangle))
    # the Brocard axis, through X3 and X6
    axis = cached_property(lambda f: np.cross(f.X3, f.X6))
    axis_cart = cached_property(
        lambda f: np.cross(core.homog(f.X3_cart), core.homog(f.X6_cart)))
    X187 = cached_property(lambda f: np.cross(f.axis, f.lemoine))

    @property
    def degenerate(self):
        return self.delta <= DEGENERATE_DELTA * self.R


def brocard_frame(t: TriangleData) -> BrocardFrame:
    """The Brocard frame of a triangle or batch; its objects are built on
    first read."""
    return BrocardFrame(t)


def _solution_frame(t: TriangleData, tag: str, k: int) -> BrocardFrame:
    return brocard_frame(core.triangle_from_vertices(ccp_closed.solutions_for(t, tag)[k].vertices))


def solution_frame(t: TriangleData, tag: str, k: int = 0) -> BrocardFrame:
    """The Brocard frame of solution k (0 for T1, 1 for T2) on circle `tag`
    of a triangle or batch, built on first read and kept with the triangle
    (`TriangleData.derived`), so `solve`, `render` and the verifiers build
    each frame once."""
    return t.derived(_solution_frame, tag, k)


def brocard_angle_from_eccentricity(delta: float, R: float) -> float:
    """Brocard angle from the axis eccentricity: tan w = (sqrt3/3) sqrt(1 - (d/R)^2)."""
    if np.any((delta < 0.0) | (R <= 0.0) | (delta > R * (1.0 + 1e-12))):
        raise OutOfRange(f"need 0 <= delta <= R, got delta={delta}, R={R}")
    ratio2 = np.minimum(np.square(delta / R), 1.0)
    return core.mathmap(math.atan, (SQRT3 / 3.0) * core.mathmap(math.sqrt, 1.0 - ratio2))


def inter_brocard_distance_sq(R: float, omega: float) -> float:
    """Squared distance of the two Brocard points: 4 R^2 sin^2 w (1 - 4 sin^2 w)."""
    s = core.mathmap(math.sin, omega)
    return 4.0 * R * R * s * s * (1.0 - 4.0 * s * s)


def _ellipse_conic(center: Array, direction: Array, a_e: float, b_e: float) -> ConicMatrix:
    """Point-conic with given center, major-axis direction and semi-axes."""
    ca, sa = direction[..., 0], direction[..., 1]
    T = np.zeros(np.shape(a_e) + (3, 3))
    T[..., 0, 0], T[..., 0, 1], T[..., 1, 0], T[..., 1, 1] = ca, -sa, sa, ca
    T[..., :2, 2], T[..., 2, 2] = center, 1.0
    local = np.zeros_like(T)
    local[..., 0, 0], local[..., 1, 1] = 1.0 / (a_e * a_e), 1.0 / (b_e * b_e)
    local[..., 2, 2] = -1.0
    Tinv = np.linalg.inv(T)
    return ConicMatrix(np.swapaxes(Tinv, -1, -2) @ local @ Tinv)


def brocard_inellipse(frame: BrocardFrame) -> ConicMatrix:
    """Inellipse with the Brocard points as foci, semi-axes R[sin w, 2 sin^2 w],
    as a cartesian point-conic."""
    sin_w = core.mathmap(math.sin, frame.omega)
    a_e = frame.R * sin_w
    b_e = 2.0 * frame.R * core.mathmap(pow, sin_w, 2)
    f1, f2 = frame.Omega1_cart, frame.Omega2_cart
    gap = core.norm(f2 - f1)
    with np.errstate(divide="ignore", invalid="ignore"):
        direction = np.where((gap <= DEGENERATE_DELTA * frame.R)[..., None],
                             [1.0, 0.0], (f2 - f1) / gap[..., None])
    return _ellipse_conic(0.5 * (f1 + f2), direction, a_e, b_e)


# ---------------------------------------------------------------------------
# shared-object verification


class Check(NamedTuple):
    """One check over a batch: a residual per triangle, and a mask of the
    triangles it does not apply to (their residual reads 0)."""

    name: str
    residual: Array
    tolerance: float
    skipped: Array = False
    note: str = ""

    @property
    def passed(self) -> Array:
        return self.skipped | (self.residual <= self.tolerance)


def check(name, residual, tol, skipped=False, note="") -> Check:
    return Check(name=name, residual=np.where(skipped, 0.0, residual), tolerance=tol,
                 skipped=skipped, note=note)


class Report(NamedTuple):
    """Checks of one claim over a batch; `note` summarizes them for the
    claim's line."""

    name: str
    checks: tuple[Check, ...]
    note: str = ""


EQUILATERAL = "skipped where a solution frame is equilateral (no Brocard axis)"


def shared_brocard_points(t: TriangleData) -> tuple[Array, Array]:
    """Reference barycentrics of the solutions' common Brocard points.

    First point [alpha/u : beta/v : gamma/w], second is the cyclic shift
    [gamma/u : alpha/v : beta/w], with alpha = (a-b)^2 - (a+b)c and cyclic.
    """
    a, b, c = t.a, t.b, t.c
    alpha = core.mathmap(pow, a - b, 2) - (a + b) * c
    beta = core.mathmap(pow, b - c, 2) - (b + c) * a
    gamma = core.mathmap(pow, c - a, 2) - (c + a) * b
    first = np.stack([alpha / t.u, beta / t.v, gamma / t.w], axis=-1)
    second = np.stack([gamma / t.u, alpha / t.v, beta / t.w], axis=-1)
    return first, second


def _radical_axis(c1: CircleData, c2: CircleData) -> Array:
    """Cartesian homogeneous line of equal circle powers."""
    d = c2.center - c1.center
    n = (core.dot(c1.center, c1.center) - np.square(c1.radius)
         - core.dot(c2.center, c2.center) + np.square(c2.radius))
    return np.concatenate([2.0 * d, n[..., None]], axis=-1)


@np.errstate(divide="ignore", invalid="ignore")
def verify_shared_objects(t: TriangleData) -> Report:
    """Check that both incircle solutions share every Brocard-frame object.

    Triangles whose solution frames are degenerate (equilateral) skip the
    axis-dependent comparisons; all remaining ones must still agree.
    """
    f1, f2 = (solution_frame(t, core.INCIRCLE, k) for k in (0, 1))
    tri1, tri2 = f1.triangle, f2.triangle
    e1, e2 = brocard_inellipse(f1), brocard_inellipse(f2)
    R = f1.R
    flat = f1.degenerate | f2.degenerate
    first, second = shared_brocard_points(t)

    def shared(p1, p2):
        return core.sin_angles(core.convert_bary(p1, tri1, t), core.convert_bary(p2, tri2, t))

    expect = inter_brocard_distance_sq(R, f1.omega)
    sin_w = core.mathmap(math.sin, f1.omega)
    join, ax = f1.Omega2_cart - f1.Omega1_cart, f1.X6_cart - f1.X3_cart
    gap2 = core.dot(join, join)
    coincident = core.norm(join) <= DEGENERATE_DELTA * R
    radical = _radical_axis(CircleData(center=f1.X3_cart, radius=R), f1.circle)
    sides = np.concatenate([core.polygon_sides(tri1.vertices), core.polygon_sides(tri2.vertices)],
                           axis=-2)
    checks = (
        check("brocard-angle-equal", abs(f1.omega - f2.omega), 1e-12),
        check("brocard-angle-bound", np.maximum(0.0, f1.omega - math.pi / 6.0 - 1e-12),
              1e-12, note="0 < omega <= pi/6"),
        check("angle-eccentricity-formula", np.maximum(*(
            abs(brocard_angle_from_eccentricity(f.delta, f.R) - f.omega) for f in (f1, f2))),
              1e-10),
        check("brocard-point-1-shared", core.norm(f1.Omega1_cart - f2.Omega1_cart) / R, 1e-9),
        check("brocard-point-2-shared", core.norm(f1.Omega2_cart - f2.Omega2_cart) / R, 1e-9),
        check("brocard-point-1-closed-form",
              core.sin_angles(core.convert_bary(f1.Omega1, tri1, t), first), 1e-9),
        check("brocard-point-2-closed-form",
              core.sin_angles(core.convert_bary(f1.Omega2, tri1, t), second), 1e-9),
        check("inter-brocard-distance",
              abs(gap2 - expect) / np.maximum(expect, np.square(R * sin_w)), 1e-10),
        check("circumcenter-shared", core.norm(f1.X3_cart - f2.X3_cart) / R, 1e-9),
        check("symmedian-shared", core.norm(f1.X6_cart - f2.X6_cart) / R, 1e-9),
        check("brocard-circle-shared", (core.norm(f1.circle.center - f2.circle.center)
                                        + abs(f1.circle.radius - f2.circle.radius)) / R, 1e-9),
        check("X15-shared", shared(f1.X15, f2.X15), 1e-9),
        check("isodynamic-property", _isodynamic_defect(f1) / (R * R), 1e-9),
        check("axis-shared", core.sin_angles(f1.axis_cart, f2.axis_cart), 1e-9,
              flat, EQUILATERAL),
        check("X16-shared", shared(f1.X16, f2.X16), 1e-9, flat, EQUILATERAL),
        check("X187-shared", shared(f1.X187, f2.X187), 1e-9, flat, EQUILATERAL),
        check("X15-X16-on-axis", np.maximum(core.incidence_residual(f1.axis, f1.X15),
                                            core.incidence_residual(f1.axis, f1.X16)),
              1e-9, flat, EQUILATERAL),
        check("points-perpendicular-axis",
              abs(core.dot(join, ax)) / (core.norm(join) * core.norm(ax)), 1e-10,
              flat | coincident, EQUILATERAL + " or the Brocard points coincide"),
        check("lemoine-radical-axis", core.sin_angles(radical, f1.lemoine_cart), 1e-10,
              flat, EQUILATERAL),
        check("lemoine-shared", core.sin_angles(f1.lemoine_cart, f2.lemoine_cart), 1e-9),
        check("inellipse-shared", core.sin_angles(*(
            e.m.reshape(e.m.shape[:-2] + (9,)) for e in (e1, e2))), 1e-9),
        check("inellipse-tangent-six-sides", core.tangency_residual(e1, sides), 1e-9),
    )
    return Report(name="shared-brocard-objects", checks=checks)


def _isodynamic_defect(frame: BrocardFrame) -> Array:
    """Max spread of a*|PA| (a squared length) over the vertices, for both
    isodynamic points; X15 alone where the frame is degenerate."""
    t = frame.triangle
    X16 = np.where(frame.degenerate[..., None], frame.X15, frame.X16)
    worst = 0.0
    for point in (frame.X15, X16):
        P = core.bary_to_cartesian(point, t)
        vals = np.stack([side * core.norm(P - t.vertices[..., k, :])
                         for k, side in enumerate(t.sides)], axis=-1)
        worst = np.maximum(worst, vals.max(axis=-1) - vals.min(axis=-1))
    return worst


@np.errstate(divide="ignore", invalid="ignore")
def de_longchamps_concurrence(t: TriangleData) -> Report:
    """Check that the four shared Brocard axes (incircle + three excircles)
    all contain the reference's de Longchamps point, and that the incircle
    axis is the reference's Soddy line (through X1 and X7)."""
    X1, X7, X20 = (core.bary_to_cartesian(centers.center(k, t), t) for k in (1, 7, 20))

    def on_axis(X, frame):
        return core.point_line_distance(X, frame.axis_cart) / t.R

    checks: list[Check] = []
    for tag in core.CIRCLE_TAGS:
        g1, g2 = (solution_frame(t, tag, k) for k in (0, 1))
        flat = g1.degenerate | g2.degenerate
        checks.append(check(f"axes-{tag}-shared", core.sin_angles(g1.axis_cart, g2.axis_cart),
                            1e-9, flat, EQUILATERAL))
        checks.append(check(f"axis-{tag}-contains-X20", on_axis(X20, g1), 1e-9,
                            flat, EQUILATERAL))
        if tag == core.INCIRCLE:
            checks += [check(f"incircle-axis-contains-X{k}", on_axis(X, g1), 1e-9,
                             flat, EQUILATERAL) for k, X in ((1, X1), (7, X7))]
    return Report(name="de-longchamps-concurrence", checks=tuple(checks))
