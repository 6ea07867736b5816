import math

import numpy as np
import pytest

from castillon import brocard, ccp_closed, centers, cli, core
from castillon.errors import OutOfRange


def angle_at(V, P, W):
    d1, d2 = P - V, W - V
    c = float(d1 @ d2) / (np.linalg.norm(d1) * np.linalg.norm(d2))
    return math.acos(max(-1.0, min(1.0, c)))


def test_equilateral_frame(equilateral):
    f = brocard.brocard_frame(equilateral)
    assert abs(f.omega - math.pi / 6) < 1e-14
    assert f.delta < 1e-14
    assert f.degenerate
    centroid = equilateral.vertices.mean(axis=0)
    assert np.linalg.norm(f.X3_cart - centroid) < 1e-13
    assert np.linalg.norm(f.X6_cart - centroid) < 1e-13
    assert f.circle.radius < 1e-14  # point circle


def test_345_brocard_angle_and_points(tri345):
    f = brocard.brocard_frame(tri345)
    # cot w = (9 + 16 + 25) / (4 * 6) = 50/24
    assert abs(f.omega - math.atan2(24, 50)) < 1e-14
    A, B, C = tri345.vertices
    for ang in (angle_at(A, f.Omega1_cart, B),
                angle_at(B, f.Omega1_cart, C),
                angle_at(C, f.Omega1_cart, A)):
        assert abs(ang - f.omega) < 1e-10
    for ang in (angle_at(A, f.Omega2_cart, C),
                angle_at(B, f.Omega2_cart, A),
                angle_at(C, f.Omega2_cart, B)):
        assert abs(ang - f.omega) < 1e-10
    # both Brocard points on the Brocard circle
    for P in (f.Omega1_cart, f.Omega2_cart):
        assert abs(np.linalg.norm(P - f.circle.center) - f.circle.radius) < 1e-10 * f.R


def test_inter_brocard_distance_formula(tri345):
    f = brocard.brocard_frame(tri345)
    gap2 = float(np.sum((f.Omega1_cart - f.Omega2_cart) ** 2))
    expect = brocard.inter_brocard_distance_sq(f.R, f.omega)
    assert abs(gap2 - expect) / expect < 1e-10


def test_eccentricity_angle_formula_limits_and_cross_check(tri345):
    assert abs(brocard.brocard_angle_from_eccentricity(0.0, 1.0) - math.pi / 6) < 1e-14
    assert brocard.brocard_angle_from_eccentricity(1.0, 1.0) == 0.0
    with pytest.raises(OutOfRange):
        brocard.brocard_angle_from_eccentricity(1.1, 1.0)
    f = brocard.brocard_frame(tri345)
    assert abs(brocard_angle_from_frame(f) - f.omega) < 1e-10


def brocard_angle_from_frame(f):
    return brocard.brocard_angle_from_eccentricity(f.delta, f.R)


def test_inellipse_345(tri345):
    f = brocard.brocard_frame(tri345)
    e = brocard.brocard_inellipse(brocard.brocard_frame(tri345))
    assert np.array_equal(brocard.brocard_inellipse(f).conic.m, e.conic.m)
    a_e, b_e = e.semi_axes
    assert abs(a_e - f.R * math.sin(f.omega)) < 1e-12 * f.R
    assert abs(b_e / a_e - 2 * math.sin(f.omega)) < 1e-12
    for line in core.side_lines(tri345):
        assert core.conic_line_residual(e.conic, line) < 1e-10
    # extracting the axes back from the matrix agrees
    got = core.conic_semi_axes(e.conic)
    assert abs(got[0] - a_e) < 1e-10 * a_e
    assert abs(got[1] - b_e) < 1e-10 * a_e


def test_inellipse_equilateral(equilateral):
    f = brocard.brocard_frame(equilateral)
    e = brocard.brocard_inellipse(f)
    assert abs(e.semi_axes[0] - f.R / 2) < 1e-12
    assert abs(e.semi_axes[1] - f.R / 2) < 1e-12
    assert np.linalg.norm(e.foci[0] - e.foci[1]) < 1e-12


def test_shared_brocard_points_equilateral(equilateral):
    first, second = brocard.shared_brocard_points(equilateral)
    assert core.sin_angle(first, [1, 1, 1]) < 1e-12
    assert core.sin_angle(second, [1, 1, 1]) < 1e-12


def test_shared_brocard_points_direct_6913(tri6913):
    vm1, _ = ccp_closed.incircle_solutions(tri6913)
    sol = core.triangle_from_vertices(vm1.cartesian(tri6913))
    f = brocard.brocard_frame(sol)
    first, second = brocard.shared_brocard_points(tri6913)
    assert core.sin_angle(core.convert_bary(f.Omega1, sol, tri6913), first) < 1e-9
    assert core.sin_angle(core.convert_bary(f.Omega2, sol, tri6913), second) < 1e-9


def test_shared_brocard_points_cyclic_structure(tri6913):
    t = tri6913
    a, b, c = t.sides
    alpha = (a - b) ** 2 - (a + b) * c
    beta = (b - c) ** 2 - (b + c) * a
    gamma = (c - a) ** 2 - (c + a) * b
    first, second = brocard.shared_brocard_points(t)
    assert np.allclose(first * np.array([t.u, t.v, t.w]), [alpha, beta, gamma])
    assert np.allclose(second * np.array([t.u, t.v, t.w]), [gamma, alpha, beta])


def test_verify_shared_objects_fixed(tri6913, tri345, equilateral):
    for t in (tri6913, tri345, equilateral):
        report = brocard.verify_shared_objects(t)
        assert report.passed, [(c.name, c.residual) for c in report.checks if not c.passed]


def test_verify_shared_objects_sweep(triangles_100):
    for t in triangles_100:
        report = brocard.verify_shared_objects(t)
        assert report.passed, [(c.name, c.residual) for c in report.checks if not c.passed]


def test_de_longchamps_fixed(tri6913, tri345, equilateral):
    for t in (tri6913, tri345, equilateral):
        report = brocard.de_longchamps_concurrence(t)
        assert report.passed, [(c.name, c.residual) for c in report.checks if not c.passed]


def test_soddy_membership_345(tri345):
    report = brocard.de_longchamps_concurrence(tri345)
    names = {c.name for c in report.checks}
    assert "incircle-axis-contains-X1" in names
    assert "incircle-axis-contains-X7" in names


def test_de_longchamps_sweep(triangles_100):
    for t in triangles_100[:40]:
        assert brocard.de_longchamps_concurrence(t).passed


def _claim_residuals(t):
    """(claim, check) -> (residual, tolerance) of every non-skipped check."""
    st = brocard.SolvedTriangle(t)
    claims = (brocard.verify_shared_objects, brocard.de_longchamps_concurrence,
              centers.verify_correspondences, cli._twenty_three_claim)
    return {(rep.name, c.name): (c.residual, c.tolerance)
            for rep in (claim(st) for claim in claims)
            for c in rep.checks if not c.skipped}


def test_check_residuals_are_scale_free(triangles_100, tri6913):
    # every residual is dimension-free, so scaling the triangle moves it by
    # rounding only.  Rounding alone moves the tightest check
    # (brocard-angle-equal, tol 1e-12) by up to 5e-14, with no trend in k;
    # a residual in the wrong units moves by its power of k.  Below k = 1e-6
    # lines through small triangles' points hit core.line_through's
    # CoincidentPoints cutoff.
    for t in triangles_100[:30] + [tri6913]:
        base = _claim_residuals(t)
        for k in (1e-6, 1e-3, 1e3, 1e6):
            scaled = _claim_residuals(core.triangle_from_sides(k * t.a, k * t.b, k * t.c))
            assert scaled.keys() == base.keys()
            for key, (r1, tol) in base.items():
                assert abs(scaled[key][0] - r1) <= 0.1 * tol, (key, t.sides, k)
