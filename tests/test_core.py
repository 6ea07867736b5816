import math

import numpy as np
import pytest
from hypothesis import given, assume, settings
from hypothesis import strategies as st

from castillon import ccp_closed, core
from castillon.errors import (
    CoincidentPoints,
    DegenerateConic,
    DegenerateTriangle,
    GeometryError,
    InfinitePoint,
    NonEllipse,
)


def test_triangle_derived_quantities(tri6913):
    t = tri6913
    assert t.s == 14
    assert (t.u, t.v, t.w) == (8, 5, 1)
    assert abs(t.u + t.v + t.w - t.s) < 1e-12
    assert abs(t.area - math.sqrt(14 * 8 * 5 * 1)) < 1e-12
    assert abs(t.r * t.s - t.area) < 1e-12
    assert abs(4 * t.R * t.area - t.a * t.b * t.c) < 1e-10


def test_canonical_embedding(tri345):
    t = tri345
    assert np.allclose(t.B, [0, 0])
    assert np.allclose(t.C, [3, 0])
    assert t.A[1] > 0
    # sidelength consistency of the embedding
    assert abs(np.linalg.norm(t.B - t.C) - t.a) < 1e-12 * t.a
    assert abs(np.linalg.norm(t.C - t.A) - t.b) < 1e-12 * t.b
    assert abs(np.linalg.norm(t.A - t.B) - t.c) < 1e-12 * t.c


@pytest.mark.parametrize("sides", [(1, 1, 2), (1, 2, 5), (0, 1, 1), (-3, 4, 5)])
def test_invalid_sides_rejected(sides):
    with pytest.raises(DegenerateTriangle):
        core.triangle_from_sides(*sides)


def test_flat_triangle_rejected():
    with pytest.raises(DegenerateTriangle):
        core.triangle_from_vertices([[0, 0], [1, 0], [2, 1e-14]])


def test_bary_to_cartesian_basics(tri345):
    t = tri345
    centroid = core.bary_to_cartesian(np.array([1.0, 1, 1]), t)
    assert np.allclose(centroid, t.vertices.mean(axis=0))
    assert np.allclose(core.bary_to_cartesian(np.array([1.0, 0, 0]), t), t.A)


def test_incenter_touches_all_sides(tri345):
    # [a,b,c] on (3,4,5) is the incenter: distance to each side is r = 1
    t = tri345
    P = core.bary_to_cartesian(np.array([t.a, t.b, t.c]), t)
    assert abs(t.r - 1.0) < 1e-14
    for line in core.side_lines(t):
        assert abs(core.point_line_distance(P, line) - 1.0) < 1e-12


def test_infinite_point_raises(tri345):
    with pytest.raises(InfinitePoint):
        core.bary_to_cartesian(np.array([1.0, -2.0, 1.0]), tri345)


def test_cartesian_to_bary_vertices_and_centroid(tri6913):
    t = tri6913
    assert core.sin_angle(core.cartesian_to_bary(t.A, t), [1, 0, 0]) < 1e-14
    assert core.sin_angle(core.cartesian_to_bary(t.vertices.mean(axis=0), t),
                          [1, 1, 1]) < 1e-13


@settings(max_examples=60, deadline=None)
@given(st.floats(0.5, 3), st.floats(0.5, 3), st.floats(0.5, 3),
       st.floats(-1, 2), st.floats(-1, 2))
def test_bary_round_trip(a, b, c, x, y):
    assume(a + b > c + 0.05 and b + c > a + 0.05 and c + a > b + 0.05)
    t = core.triangle_from_sides(a, b, c)
    P = np.array([x, y])
    back = core.bary_to_cartesian(core.cartesian_to_bary(P, t), t)
    assert np.linalg.norm(back - P) < 1e-12


@settings(max_examples=40, deadline=None)
@given(st.floats(0.1, 10), st.floats(-5, 5), st.floats(-5, 5), st.floats(0.1, 4))
def test_bary_scaling_invariance(lam, x, y, z):
    tri = core.triangle_from_sides(3, 4, 5)
    p = np.array([x, y, z])
    assume(abs(p.sum()) > 1e-3 and np.abs(p).max() > 1e-3)
    a = core.bary_to_cartesian(p, tri)
    b = core.bary_to_cartesian(lam * p, tri)
    # x = sum(p_i V_i) / sum(p_i) has condition number
    # kappa = sum|p_i| / |sum p_i|: rounding lam * p, each of the two
    # evaluations and their sums moves x by at most
    # 10 u kappa (|x| + max|V_i|) to first order, u the unit roundoff
    u = np.finfo(float).eps / 2
    kappa = np.abs(p).sum() / abs(p.sum())
    scale = np.linalg.norm(a) + np.linalg.norm(tri.vertices, axis=1).max()
    assert np.linalg.norm(a - b) <= 10 * u * kappa * scale


def _adjugate_by_cofactors(M):
    """The cofactor loop `core.adjugate3` replaced, kept as its reference."""
    out = np.empty((3, 3))
    for i in range(3):
        for j in range(3):
            mi = np.delete(np.delete(M, j, axis=0), i, axis=1)
            out[i, j] = ((-1) ** (i + j)) * (mi[0, 0] * mi[1, 1] - mi[0, 1] * mi[1, 0])
    return out


def test_adjugate_matches_cofactor_loop(rng):
    # the same products and differences, so the results are bit-identical;
    # on a symmetric matrix the dual conic's tangency residual is then the
    # one the point conic computes from its adjugate
    scales = 10.0 ** rng.integers(-6, 7, size=(2000, 1, 1))
    for M in rng.standard_normal((2000, 3, 3)) * scales:
        assert np.array_equal(core.adjugate3(M), _adjugate_by_cofactors(M))
        conic = core.ConicMatrix(M + M.T, core.POINT_CONIC)
        line = M[0]
        assert (core.conic_line_residual(conic.dual(), line)
                == core.conic_line_residual(conic, line))


def test_incircle_and_excircles(tri345, equilateral):
    inc = core.incircle(tri345)
    assert abs(inc.radius - 1.0) < 1e-14
    assert np.allclose(inc.center, [2, 1])
    exc = core.excircle(tri345, "A")
    assert abs(exc.radius - 2.0) < 1e-14  # area/(s-a) = 6/3
    for which in "ABC":
        circ = core.excircle(tri345, which)
        for line in core.side_lines(tri345):
            assert core.circle_tangency_residual(circ, line) < 1e-12
    eq = core.incircle(equilateral)
    assert abs(eq.radius - 1 / math.sqrt(3)) < 1e-14
    assert np.allclose(eq.center, equilateral.vertices.mean(axis=0))
    radii = [core.excircle(equilateral, w).radius for w in "ABC"]
    assert max(radii) - min(radii) < 1e-14


def test_tangency_residual_random_triangles(triangles_100):
    for t in triangles_100:
        scale = max(t.sides)
        for which in "ABC":
            circ = core.excircle(t, which)
            for line in core.side_lines(t):
                assert core.circle_tangency_residual(circ, line) < 1e-12 * scale
        inc = core.incircle(t)
        for line in core.side_lines(t):
            assert core.circle_tangency_residual(inc, line) < 1e-12 * scale


def test_line_through_basics():
    line = core.line_through([1, 0, 0], [0, 1, 0])
    assert core.sin_angle(line, [0, 0, 1]) < 1e-15  # side AB is z = 0
    with pytest.raises(CoincidentPoints):
        core.line_through([1, 2, 3], [2, 4, 6])


@pytest.mark.parametrize("sine, coincident", [(0.5e-14, True), (2e-14, False)])
def test_line_through_coincidence_threshold(sine, coincident):
    # |p x q| / (|p| |q|) is the sine of the angle between p and q
    p, q = [1.0, 0.0, 0.0], [1.0, sine, 0.0]
    if coincident:
        with pytest.raises(CoincidentPoints):
            core.line_through(p, q)
    else:
        assert core.sin_angle(core.line_through(p, q), [0, 0, 1]) < 1e-15


def test_cross_is_bit_identical_to_numpy(rng):
    for _ in range(200):
        p, q = rng.normal(size=(2, 3)) * 10.0 ** rng.uniform(-8, 8, size=(2, 1))
        assert core.cross(p.tolist(), q.tolist()) == tuple(np.cross(p, q).tolist())
        assert np.array_equal(core.line_through(p, q), np.cross(p, q))
        assert np.array_equal(core.cart_line(p[:2], q[:2]),
                              np.cross([p[0], p[1], 1.0], [q[0], q[1], 1.0]))


def test_vertex_matrix_cartesian_matches_rowwise(triangles_100):
    from castillon import ccp_closed
    for t in triangles_100:
        for tag in core.CIRCLE_TAGS:
            for vm in ccp_closed.solutions_for(t, tag):
                rowwise = np.array([core.bary_to_cartesian(row, t) for row in vm.rows])
                assert np.array_equal(vm.cartesian(t), rowwise)


def test_vertex_matrix_cartesian_rejects_row_at_infinity(tri345):
    rows = np.array([[1.0, 0.0, 0.0], [1.0, -1.0, 1e-15], [0.0, 0.0, 1.0]])
    with pytest.raises(InfinitePoint):
        core.VertexMatrix(rows, "T1", core.INCIRCLE).cartesian(tri345)


def test_line_incidence_by_construction(rng):
    for _ in range(50):
        p, q = rng.normal(size=3), rng.normal(size=3)
        line = core.line_through(p, q)
        assert core.incidence_residual(line, p) < 1e-14
        assert core.incidence_residual(line, q) < 1e-14


def test_soddy_line_contains_de_longchamps(tri6913):
    # line X1-X7 passes through X20 (computed via the centers registry)
    from castillon import centers
    t = tri6913
    line = core.line_through(centers.center(1, t), centers.center(7, t))
    X20 = centers.center(20, t)
    assert core.incidence_residual(line, X20) < 1e-10


def _unit_tangent(theta):
    return np.array([math.cos(theta), math.sin(theta), -1.0])


def test_conic_from_five_unit_circle_tangents():
    lines = [_unit_tangent(math.radians(d)) for d in (0, 72, 144, 216, 288)]
    fit = core.conic_from_tangent_lines(lines)
    dual = core.circle_to_conic(core.CircleData(np.zeros(2), 1.0)).dual()
    assert core.sin_angle(fit.m, dual.m) < 1e-12
    assert core.conic_line_residual(fit, _unit_tangent(1.234)) < 1e-10


def test_conic_fit_degenerate():
    line = np.array([1.0, 2.0, 3.0])
    with pytest.raises(DegenerateConic):
        core.conic_from_tangent_lines([line] * 5)


def test_conic_fit_solution_sides(tri6913):
    # five of the six solution sides determine the conic the sixth touches
    from castillon import ccp_closed
    vm1, vm2 = ccp_closed.incircle_solutions(tri6913)
    sides = []
    for vm in (vm1, vm2):
        verts = vm.cartesian(tri6913)
        sides += [core.cart_line(verts[i], verts[(i + 1) % 3]) for i in range(3)]
    fit = core.conic_from_tangent_lines(sides[:5])
    assert core.conic_line_residual(fit, sides[5]) < 1e-8


def test_circle_conic_round_trip(rng):
    circ = core.CircleData(np.array([0.4, -1.3]), 2.2)
    conic = core.circle_to_conic(circ)
    for _ in range(30):
        theta = rng.uniform(0, 2 * math.pi)
        # tangent line at angle theta
        n = np.array([math.cos(theta), math.sin(theta)])
        P = circ.center + circ.radius * n
        line = np.array([n[0], n[1], -float(n @ P)])
        assert core.conic_line_residual(conic, line) < 1e-10
        assert core.circle_tangency_residual(circ, line) < 1e-10


def test_ellipse_axes_of_a_rotated_ellipse():
    # x'^2/9 + y'^2/4 = 1 turned by 30 degrees about (1, -2), matrix scaled by -2
    c, s = math.cos(math.pi / 6), math.sin(math.pi / 6)
    T = np.array([[c, -s, 1.0], [s, c, -2.0], [0.0, 0.0, 1.0]])
    Tinv = np.linalg.inv(T)
    M = -2.0 * Tinv.T @ np.diag([1 / 9, 1 / 4, -1.0]) @ Tinv
    e = core.ellipse_axes(core.ConicMatrix(M, core.POINT_CONIC))
    assert np.linalg.norm(e.center - [1.0, -2.0]) < 1e-12
    assert abs(e.semi_axes[0] - 3.0) < 1e-12 and abs(e.semi_axes[1] - 2.0) < 1e-12
    assert abs(abs(e.axes[:, 0] @ [c, s]) - 1.0) < 1e-12
    assert abs(e.axes[:, 1] @ [c, s]) < 1e-12
    for not_ellipse in (np.diag([1.0, -1.0, -1.0]), np.diag([1.0, 1.0, 1.0])):
        with pytest.raises(NonEllipse):
            core.ellipse_axes(core.ConicMatrix(not_ellipse, core.POINT_CONIC))


def test_normalize_bary():
    p = core.normalize_bary(np.array([2.0, 2.0, 4.0]))
    assert abs(p.sum() - 1) < 1e-15
    inf = core.normalize_bary(np.array([-1.0, 2.0, -1.0]))
    assert abs(np.abs(inf).max() - 1) < 1e-15
    assert core.is_infinite_bary(inf)
    with pytest.raises(GeometryError, match="zero barycentric triple"):
        core.normalize_bary(np.zeros(3))


def test_bary_round_trip_other_direction(tri6913, rng):
    # bary -> cartesian -> bary returns the same class up to scale
    for _ in range(30):
        p = rng.normal(size=3)
        if abs(p.sum()) < 1e-2:
            continue
        back = core.cartesian_to_bary(core.bary_to_cartesian(p, tri6913), tri6913)
        assert core.sin_angle(p, back) < 1e-12


def test_convert_bary_projective(tri345, tri6913):
    # finite point round-trips through another triangle's frame
    p = np.array([0.2, 0.3, 0.5])
    q = core.convert_bary(p, tri345, tri6913)
    back = core.convert_bary(q, tri6913, tri345)
    assert core.sin_angle(p, back) < 1e-13
    # infinite points stay infinite
    inf = np.array([1.0, -2.0, 1.0])
    assert core.is_infinite_bary(core.convert_bary(inf, tri345, tri6913))


# ---------------------------------------------------------------------------
# float kernels against the numpy formulas they replaced

U = np.finfo(float).eps / 2  # unit roundoff


def _sin_angle_numpy(p, q):
    """The numpy `core.sin_angle` replaced, kept as its reference."""
    p = np.asarray(p, dtype=float).ravel()
    q = np.asarray(q, dtype=float).ravel()
    norm_p, norm_q = np.linalg.norm(p), np.linalg.norm(q)
    if norm_p == 0.0 or norm_q == 0.0:
        return 1.0
    p, q = p / norm_p, q / norm_q
    return min(1.0, float(np.linalg.norm(q - np.dot(q, p) * p)))


def _sin_angle_bound(n):
    """|float - numpy| for n-vectors, in absolute terms: to first order the
    numpy unit vectors carry (n/2 + 2) u per component and the float ones
    2 u (hypot, then the division); each path then adds n u to the dot
    product, 2 u per component of the orthogonal part and its norm, so the
    two differ by at most (4.5 n + 23) u."""
    return (4.5 * n + 23) * U


@pytest.mark.parametrize("n", [2, 3, 4])
def test_sin_angle_matches_numpy_formula(rng, n):
    for _ in range(3000):
        p = rng.normal(size=n) * 10.0 ** rng.uniform(-6, 6)
        q = rng.normal(size=n) * 10.0 ** rng.uniform(-6, 6)
        assert abs(core.sin_angle(p, q) - _sin_angle_numpy(p, q)) <= _sin_angle_bound(n)
        # tuples, lists and arrays give the same value
        assert core.sin_angle(tuple(p.tolist()), list(q)) == core.sin_angle(p, q)


def test_sin_angle_nearly_parallel(rng):
    # q = k p + e d with |e d| down to 1e-15 |p|: the sine is e |d_perp| / |q|
    # down to rounding, where the two formulas must still agree
    for eps in 10.0 ** -np.arange(1, 16):
        for _ in range(200):
            p, d = rng.normal(size=3), rng.normal(size=3)
            q = rng.uniform(-3, 3) * p + eps * np.linalg.norm(p) * d
            got = core.sin_angle(p, q)
            assert abs(got - _sin_angle_numpy(p, q)) <= _sin_angle_bound(3)
        assert core.sin_angle(p, 2.0 * p) <= _sin_angle_bound(3)


def test_sin_angle_zero_vectors_and_matrices(rng):
    assert core.sin_angle([0, 0, 0], [1, 2, 3]) == 1.0
    assert core.sin_angle((1.0, 2.0, 3.0), np.zeros(3)) == 1.0
    assert core.sin_angle(np.zeros((3, 3)), np.zeros((3, 3))) == 1.0
    assert core.sin_angle([1, 0, 0], [0, 1, 0]) == 1.0  # capped at 1
    for _ in range(2000):
        M, N = rng.normal(size=(2, 3, 3))
        if rng.integers(2):
            N = rng.uniform(-3, 3) * M + 10.0 ** rng.uniform(-15, -1) * N
        assert abs(core.sin_angle(M, N) - _sin_angle_numpy(M, N)) <= _sin_angle_bound(9)


def _inf_norm(M):
    return float(np.abs(np.atleast_2d(M)).sum(axis=1).max())


def test_convert_bary_matches_linear_solve(triangles_100, rng):
    # x solves V_to x = V_from p.  Forming V_from p costs each method at most
    # gamma_3 |V_from| |p|, which V_to^-1 carries to x; solving for the same
    # right-hand side costs LU with partial pivoting and the adjugate over the
    # determinant each a few u kappa |x|, kappa = |V_to| |V_to^-1|.  16 u
    # covers both terms for both methods (derivation in CHANGES.md)
    pairs = []
    for t in triangles_100:
        for tag in core.CIRCLE_TAGS:
            for vm in ccp_closed.solutions_for(t, tag):
                pairs.append((core.triangle_from_vertices(vm.cartesian(t)), t))
    pairs += [(b, a) for a, b in pairs[::7]]
    for tri_from, tri_to in pairs:
        p = rng.normal(size=3)
        if rng.integers(3) == 0:  # near the line at infinity
            p[2] = -(p[0] + p[1]) + rng.normal() * 10.0 ** rng.uniform(-16, -2)
        V, W = tri_to.bary_matrix(), tri_from.bary_matrix()
        want = np.linalg.solve(V, W @ p)
        got = np.array(core.convert_bary(p, tri_from, tri_to))
        V_inv = np.linalg.inv(V)
        bound = 16 * U * (_inf_norm(V) * _inf_norm(V_inv) * _inf_norm(want)
                          + _inf_norm(V_inv) * _inf_norm(W) * _inf_norm(p))
        assert _inf_norm(got - want) <= bound
