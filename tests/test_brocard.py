import math

import numpy as np
import pytest

from castillon import brocard, ccp_closed, centers, cli, core, sampling
from castillon.ccp_closed import PHI
from castillon.errors import OutOfRange

from oracles import golden_coefficients, pair_rows, report_passed, signed_uvw, sin_angle


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
    assert np.array_equal(brocard.brocard_inellipse(f).m, e.m)
    assert core.tangency_residual(e, core.side_lines(tri345)) < 1e-10
    # the axes read back from the matrix are R sin w and 2 R sin^2 w
    a_e, b_e = f.R * math.sin(f.omega), 2 * f.R * math.sin(f.omega) ** 2
    got = core.ellipse_axes(e).semi_axes
    assert abs(got[0] - a_e) < 1e-10 * a_e
    assert abs(got[1] - b_e) < 1e-10 * a_e


def test_inellipse_equilateral(equilateral):
    f = brocard.brocard_frame(equilateral)
    semi_axes = core.ellipse_axes(brocard.brocard_inellipse(f)).semi_axes
    assert abs(semi_axes[0] - f.R / 2) < 1e-12
    assert abs(semi_axes[1] - f.R / 2) < 1e-12
    assert np.linalg.norm(f.Omega1_cart - f.Omega2_cart) < 1e-12


def test_shared_brocard_points_equilateral(equilateral):
    first, second = brocard.shared_brocard_points(equilateral)
    assert sin_angle(first, [1, 1, 1]) < 1e-12
    assert sin_angle(second, [1, 1, 1]) < 1e-12


def test_shared_brocard_points_direct_6913(tri6913):
    vm1, _ = ccp_closed.incircle_solutions(tri6913)
    sol = core.triangle_from_vertices(vm1.cartesian(tri6913))
    f = brocard.brocard_frame(sol)
    first, second = brocard.shared_brocard_points(tri6913)
    assert sin_angle(core.convert_bary(f.Omega1, sol, tri6913), first) < 1e-9
    assert sin_angle(core.convert_bary(f.Omega2, sol, tri6913), second) < 1e-9


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
        assert report_passed(report), [(c.name, c.residual) for c in report.checks if not c.passed]


def test_verify_shared_objects_sweep(triangles_100):
    for t in triangles_100:
        report = brocard.verify_shared_objects(t)
        assert report_passed(report), [(c.name, c.residual) for c in report.checks if not c.passed]


def test_de_longchamps_fixed(tri6913, tri345, equilateral):
    for t in (tri6913, tri345, equilateral):
        report = brocard.de_longchamps_concurrence(t)
        assert report_passed(report), [(c.name, c.residual) for c in report.checks if not c.passed]


def test_soddy_membership_345(tri345):
    report = brocard.de_longchamps_concurrence(tri345)
    names = {c.name for c in report.checks}
    assert "incircle-axis-contains-X1" in names
    assert "incircle-axis-contains-X7" in names


def test_de_longchamps_sweep(triangles_100):
    for t in triangles_100[:40]:
        assert report_passed(brocard.de_longchamps_concurrence(t))


def _claim_residuals(t):
    """(claim, check) -> (residual, tolerance) of every non-skipped check."""
    claims = (brocard.verify_shared_objects, brocard.de_longchamps_concurrence,
              centers.verify_correspondences, cli._twenty_three_claim)
    return {(rep.name, c.name): (c.residual, c.tolerance)
            for rep in (claim(t) for claim in claims)
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


# --- batches ----------------------------------------------------------------


def _reference_rows(sd):
    """The incircle rows of `oracles.pair_rows` as written before it took
    batches."""
    u, v, w = signed_uvw(sd)
    products = np.array([v * w, u * w, u * v])
    return tuple(t * products for t in golden_coefficients(PHI))


def _reference_printed(tri, rows):
    """The objects `solve` and `render` print for one solution (vertex
    matrix rows of `tri`), by the scalar formulas used before the frames
    took batches: numpy on one triangle, `math` for the angles."""
    verts = (rows @ tri.vertices) / rows.sum(axis=1)[:, None]
    a, b, c = (float(np.linalg.norm(verts[i] - verts[j])) for i, j in ((1, 2), (2, 0), (0, 1)))
    s = 0.5 * (a + b + c)
    area = math.sqrt(s * (s - a) * (s - b) * (s - c))
    R = a * b * c / (4.0 * area)
    a2, b2, c2 = a * a, b * b, c * c

    def cart(p):
        return (p @ verts) / p.sum()

    def sa(x, y, z):
        return 0.5 * (y * y + z * z - x * x)

    x3 = cart(np.array([a * a * sa(a, b, c), b * b * sa(b, c, a), c * c * sa(c, a, b)]))
    x6 = cart(np.array([a * a, b * b, c * c]))
    omega = math.atan2(4.0 * area, a2 + b2 + c2)
    f1 = cart(np.array([a2 * c2, a2 * b2, b2 * c2]))
    f2 = cart(np.array([a2 * b2, b2 * c2, c2 * a2]))
    a_e, b_e = R * math.sin(omega), 2.0 * R * math.sin(omega) ** 2
    gap = np.linalg.norm(f2 - f1)
    ca, sn = (1.0, 0.0) if gap <= brocard.DEGENERATE_DELTA * R else (f2 - f1) / gap
    T = np.eye(3)
    T[:2, :2] = np.array([[ca, -sn], [sn, ca]])
    T[:2, 2] = 0.5 * (f1 + f2)
    Tinv = np.linalg.inv(T)
    m = Tinv.T @ np.diag([1.0 / (a_e * a_e), 1.0 / (b_e * b_e), -1.0]) @ Tinv
    B = np.ones((3, 3))
    B[:2, :] = verts.T
    w = [float(np.sum((verts[i] - verts[j]) ** 2)) for i, j in ((1, 2), (2, 0), (0, 1))]
    symmedian = (w[0] * verts[0] + w[1] * verts[1] + w[2] * verts[2]) / sum(w)
    return {
        "sides": (a, b, c),
        "omega": omega,
        "delta": float(np.linalg.norm(x6 - x3)),
        "lemoine_cart": np.linalg.solve(B.T, np.array([1.0 / a2, 1.0 / b2, 1.0 / c2])),
        "axis_cart": np.cross((*x3, 1.0), (*x6, 1.0)),
        "Omega1_cart": f1,
        "inellipse": 0.5 * (m + m.T),
        "symmedian": core.cartesian_to_bary(symmedian, tri),
    }


def _printed(frame, i=...):
    """The same objects from the library; row i of a batch."""
    return {
        "sides": tuple(np.asarray(x)[i] for x in frame.triangle.sides),
        "omega": np.asarray(frame.omega)[i],
        "delta": np.asarray(frame.delta)[i],
        "lemoine_cart": frame.lemoine_cart[i],
        "axis_cart": frame.axis_cart[i],
        "Omega1_cart": frame.Omega1_cart[i],
        "inellipse": brocard.brocard_inellipse(frame).m[i],
    }


def test_printed_objects_bit_identical_to_scalar_formulas(triangles_100, tri6913):
    # solve and render print these objects of one frame; the frames now take
    # batches, and one triangle and each row of a batch must still give the
    # bits of the scalar formulas
    tris = triangles_100[:40] + [tri6913]
    batch = core.stack_triangles(tris)
    for tag in core.CIRCLE_TAGS:
        vm_batch = ccp_closed.solutions_for(batch, tag)[0]
        frames = brocard.brocard_frame(core.triangle_from_vertices(vm_batch.cartesian(batch)))
        for i, t in enumerate(tris):
            sd = ccp_closed.SignedSides.from_triangle(t)
            sd = sd if tag == core.INCIRCLE else sd.exverted(tag[-1])
            rows = pair_rows(sd, core.INCIRCLE)
            for got, want in zip(rows, _reference_rows(sd)):
                assert np.array_equal(got, want)
            vm = ccp_closed.solutions_for(t, tag)[0]
            assert np.array_equal(vm_batch.rows[i], vm.rows)
            want = _reference_printed(t, vm.rows)
            alone = _printed(brocard.brocard_frame(core.triangle_from_vertices(vm.cartesian(t))))
            alone["symmedian"] = ccp_closed.solution_symmedian(vm, t)
            row = _printed(frames, i)
            for key, value in want.items():
                assert np.array_equal(alone[key], value), (tag, t.sides, key)
                assert key not in row or np.array_equal(row[key], value), (tag, t.sides, key)


def test_batch_squares_and_angles_round_like_plain_floats():
    # a float's x ** 2 is C pow, which differs from x * x (np.square) on
    # about 89 of 100,000 draws, and numpy's atan2 loop differs from math's
    # (its sin loop can too, where numpy has a SIMD sin); over 3,000
    # triangles every printed square and angle of a batch must still equal
    # the plain-float formula of its triangle, and so must each row of the
    # batch's inellipse, whose semi-axes are R sin w and 2 R sin^2 w
    rng = np.random.default_rng(7)
    tris = [sampling.random_triangle(rng) for _ in range(3000)]
    batch = core.stack_triangles(tris)
    solutions = ccp_closed.incircle_solutions(batch)[0]
    frame = brocard.brocard_frame(core.triangle_from_vertices(solutions.cartesian(batch)))
    inellipse = brocard.brocard_inellipse(frame).m
    first, _ = brocard.shared_brocard_points(batch)
    x279 = centers.center(279, batch)
    for i, t in enumerate(tris):
        sol = frame.triangle
        R, area = float(sol.R[i]), float(sol.area[i])
        w = math.atan2(4.0 * area, float(frame.a2[i] + frame.b2[i] + frame.c2[i]))
        assert frame.omega[i] == w
        assert np.array_equal(inellipse[i],
                              _reference_printed(t, solutions.rows[i])["inellipse"])
        a, b, c = t.sides
        assert first[i, 0] == ((a - b) ** 2 - (a + b) * c) / t.u
        assert np.array_equal(x279[i], [(t.v * t.w) ** 2, (t.w * t.u) ** 2, (t.u * t.v) ** 2])


def _assert_rows_match_alone(claims, tris):
    """Every check's residual and skip flag for row i of one batch equal the
    triangle evaluated alone, bit for bit, and as a batch of one."""
    batch = core.stack_triangles(tris)
    reports = [claim(batch) for claim in claims]
    for i, t in enumerate(tris):
        one = core.stack_triangles([t]) if i < 20 else None
        for claim, rep in zip(claims, reports):
            for other in (t, one) if one else (t,):
                single = claim(other)
                assert [c.name for c in single.checks] == [c.name for c in rep.checks]
                for c, s in zip(rep.checks, single.checks):
                    n = len(tris)
                    assert np.broadcast_to(c.residual, (n,))[i] == np.ravel(s.residual)[0], \
                        (c.name, t.sides)
                    assert np.broadcast_to(c.skipped, (n,))[i] == np.ravel(s.skipped)[0]


def test_batch_rows_match_single_triangles(tri6913, equilateral):
    # the row products are stacked matmul, solve and inv, and the angles go
    # through `math` elementwise, so the batch size changes no bit; the
    # equilateral row skips its axis checks in that row only
    rng = np.random.default_rng(20261018)
    tris = [sampling.random_triangle(rng) for _ in range(300)] + [tri6913, equilateral]
    _assert_rows_match_alone((brocard.verify_shared_objects, brocard.de_longchamps_concurrence,
                              cli._twenty_three_claim), tris)
    skipped = {c.name: c.skipped
               for c in brocard.verify_shared_objects(core.stack_triangles(tris)).checks}
    assert list(np.flatnonzero(skipped["axis-shared"])) == [len(tris) - 1]
