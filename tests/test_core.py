import math

import numpy as np
import pytest
from hypothesis import given, assume, settings
from hypothesis import strategies as st

from castillon import ccp_closed, core, sampling
from castillon.errors import (
    CoincidentPoints,
    DegenerateTriangle,
    GeometryError,
    InfinitePoint,
    NonEllipse,
)

from oracles import (
    DegenerateConic,
    circle_tangency_residual,
    circle_to_conic,
    conic_from_tangent_lines,
    dual_tangency_residual,
    is_infinite_bary,
    sin_angle,
    solution_rows,
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
    A, B, C = t.vertices
    assert np.allclose(B, [0, 0])
    assert np.allclose(C, [3, 0])
    assert A[1] > 0
    # sidelength consistency of the embedding
    assert abs(np.linalg.norm(B - C) - t.a) < 1e-12 * t.a
    assert abs(np.linalg.norm(C - A) - t.b) < 1e-12 * t.b
    assert abs(np.linalg.norm(A - B) - t.c) < 1e-12 * t.c


@pytest.mark.parametrize("sides", [(1, 1, 2), (1, 2, 5), (0, 1, 1), (-3, 4, 5),
                                   (3, math.nan, 5), (3, math.inf, 5)])
def test_invalid_sides_rejected(sides):
    with pytest.raises(DegenerateTriangle):
        core.triangle_from_sides(*sides)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_vertex_rejected(bad):
    # the problem file refuses these first; the library checks them itself
    with pytest.raises(DegenerateTriangle, match="non-finite vertex"):
        core.triangle_from_vertices([[0, 0], [1, bad], [0, 1]])


def test_flat_triangle_rejected():
    with pytest.raises(DegenerateTriangle):
        core.triangle_from_vertices([[0, 0], [1, 0], [2, 1e-14]])


@pytest.mark.parametrize("bad, reason", [
    ([[1e-10, 1e-12], [0, 0], [1, 0]], "is numerically flat"),
    ([[0, 0], [1, 0], [2, 1e-14]], "violate the triangle inequality"),
])
def test_batch_with_one_degenerate_triangle_rejected(bad, reason):
    # one triangle and a batch holding it fail the same check
    for pts in (bad, [[[0, 0], [1, 0], [0, 1]], bad]):
        with pytest.raises(DegenerateTriangle, match=reason):
            core.triangle_from_vertices(pts)


def test_bary_to_cartesian_basics(tri345):
    t = tri345
    centroid = core.bary_to_cartesian(np.array([1.0, 1, 1]), t)
    assert np.allclose(centroid, t.vertices.mean(axis=0))
    assert np.allclose(core.bary_to_cartesian(np.array([1.0, 0, 0]), t), t.vertices[0])


def test_incenter_touches_all_sides(tri345):
    # [a,b,c] on (3,4,5) is the incenter: distance to each side is r = 1
    t = tri345
    P = core.bary_to_cartesian(np.array([t.a, t.b, t.c]), t)
    assert abs(t.r - 1.0) < 1e-14
    for line in core.polygon_sides(t.vertices):
        assert abs(core.point_line_distance(P, line) - 1.0) < 1e-12


def test_infinite_point_raises(tri345):
    with pytest.raises(InfinitePoint):
        core.bary_to_cartesian(np.array([1.0, -2.0, 1.0]), tri345)


def test_cartesian_to_bary_vertices_and_centroid(tri6913):
    t = tri6913
    assert sin_angle(core.cartesian_to_bary(t.vertices[0], t), [1, 0, 0]) < 1e-14
    assert sin_angle(core.cartesian_to_bary(t.vertices.mean(axis=0), t),
                          [1, 1, 1]) < 1e-13


def _cartesian_to_bary_array_formula(P, tri):
    """Signed-area ratios with numpy broadcasting, one point or 2 x n."""
    P = np.asarray(P, dtype=float)
    A, B, C = tri.vertices

    def signed2(P, Q, R):
        return (Q[0] - P[0]) * (R[1] - P[1]) - (Q[1] - P[1]) * (R[0] - P[0])

    full = signed2(A, B, C)
    return np.array([signed2(P, B, C) / full, signed2(A, P, C) / full,
                     signed2(A, B, P) / full])


def test_cartesian_to_bary_bit_identical_to_array_formula(rng):
    for tri in (core.triangle_from_sides(6, 9, 13), sampling.random_triangle(rng)):
        pts = rng.normal(size=(2, 10_000)) * rng.uniform(0.1, 20, size=10_000)
        got = core.cartesian_to_bary(pts, tri)
        assert got.shape == (3, 10_000)
        assert np.array_equal(got, _cartesian_to_bary_array_formula(pts, tri))
        for P in pts.T:
            one = core.cartesian_to_bary(P, tri)
            assert one.shape == (3,)
            assert np.array_equal(one, _cartesian_to_bary_array_formula(P, tri))


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
    # the adjugate of a symmetric matrix is symmetric to the bit, so the
    # point conic's tangency residual over a stack of lines is the largest
    # dual-form residual of its adjugate, line by line
    scales = 10.0 ** rng.integers(-6, 7, size=(2000, 1, 1))
    for M in rng.standard_normal((2000, 3, 3)) * scales:
        assert np.array_equal(core.adjugate3(M), _adjugate_by_cofactors(M))
        conic = core.ConicMatrix(M + M.T)
        dual = core.adjugate3(conic.m)
        assert np.array_equal(dual, dual.T)
        k = int(rng.integers(1, 7))
        lines = rng.standard_normal((k, 3)) * 10.0 ** rng.integers(-6, 7, size=(k, 1))
        assert (core.tangency_residual(conic, lines)
                == max(dual_tangency_residual(core.ConicMatrix(dual), L) for L in lines))


def test_tangency_residual_sees_a_moved_side(tri6913):
    # negative control: the six sides of an incircle solution pair touch
    # their Brocard inellipse, and moving any one side line by 1e-6 r
    # breaks it (the smallest moved residual reads 2.0e-9)
    from castillon import brocard
    conic = brocard.brocard_inellipse(brocard.solution_frame(tri6913, core.INCIRCLE))
    sides = np.concatenate([core.polygon_sides(vm.vertices)
                            for vm in ccp_closed.solutions_for(tri6913, core.INCIRCLE)])
    assert core.tangency_residual(conic, sides) < 1e-12
    r = core.tagged_circle(tri6913, core.INCIRCLE).radius
    for k in range(6):
        moved = sides.copy()
        moved[k, 2] += 1e-6 * r * math.hypot(*moved[k, :2])
        assert core.tangency_residual(conic, moved) > 1e-9, k


def test_incircle_and_excircles(tri345, equilateral):
    inc = core.tagged_circle(tri345, core.INCIRCLE)
    assert abs(inc.radius - 1.0) < 1e-14
    assert np.allclose(inc.center, [2, 1])
    exc = core.tagged_circle(tri345, core.EXCIRCLE_A)
    assert abs(exc.radius - 2.0) < 1e-14  # area/(s-a) = 6/3
    for which in "ABC":
        circ = core.tagged_circle(tri345, f"excircle-{which}")
        for line in core.polygon_sides(tri345.vertices):
            assert circle_tangency_residual(circ, line) < 1e-12
    eq = core.tagged_circle(equilateral, core.INCIRCLE)
    assert abs(eq.radius - 1 / math.sqrt(3)) < 1e-14
    assert np.allclose(eq.center, equilateral.vertices.mean(axis=0))
    radii = [core.tagged_circle(equilateral, f"excircle-{w}").radius for w in "ABC"]
    assert max(radii) - min(radii) < 1e-14


def test_tangency_residual_random_triangles(triangles_100):
    for t in triangles_100:
        scale = max(t.sides)
        for which in "ABC":
            circ = core.tagged_circle(t, f"excircle-{which}")
            for line in core.polygon_sides(t.vertices):
                assert circle_tangency_residual(circ, line) < 1e-12 * scale
        inc = core.tagged_circle(t, core.INCIRCLE)
        for line in core.polygon_sides(t.vertices):
            assert circle_tangency_residual(inc, line) < 1e-12 * scale


def test_tagged_circle_is_its_weights_and_radius(rng):
    # the centre is `bary_to_cartesian` of (a, b, c) with the excircle's
    # vertex weight negated, bit for bit, and the radius the area over s,
    # s - a, s - b or s - c; `identify_circle` names each at any offset,
    # also by comparison: as a plain circle of the same centre and radius,
    # and with an equal triangle rebuilt from the same vertices; the
    # carried `xyr` is the circle's own as floats
    for _ in range(200):
        t = core.triangle_from_vertices(10.0 ** rng.uniform(-2, 8) + rng.normal(size=(3, 2)))
        rebuilt = core.triangle_from_vertices(t.vertices.copy())
        for tag, negated, part in zip(core.CIRCLE_TAGS, (None, 0, 1, 2), (t.s, t.u, t.v, t.w)):
            weights = np.array(t.sides)
            if negated is not None:
                weights[negated] = -weights[negated]
            circ = core.tagged_circle(t, tag)
            assert np.array_equal(circ.center, core.bary_to_cartesian(weights, t))
            assert circ.radius == t.area / part
            assert core.identify_circle(t, circ) == tag
            plain = core.CircleData(circ.center.copy(), circ.radius)
            assert core.identify_circle(t, plain) == tag
            assert core.identify_circle(rebuilt, circ) == tag
            expected = (*np.asarray(circ.center, float).tolist(), float(circ.radius))
            assert all(type(x) is float for x in circ.xyr)
            assert np.array(circ.xyr).tobytes() == np.array(expected).tobytes()
            assert np.array(plain.xyr).tobytes() == np.array(expected).tobytes()


def test_tagged_circle_rejects_unknown_tag(tri345):
    with pytest.raises(GeometryError, match="unknown circle tag 'excircle-D'"):
        core.tagged_circle(tri345, "excircle-D")


def test_tagged_circle_at_infinity_raises():
    # the needle (2, 1, 1 + 1e-14) passes the flatness cutoff, but its
    # A-excircle's weights (-a, b, c) sum to 1e-14, at most 1e-14 of the
    # largest: that centre is a point at infinity
    t = core.triangle_from_sides(2, 1, 1 + 1e-14)
    with pytest.raises(InfinitePoint):
        core.tagged_circle(t, core.EXCIRCLE_A)
    assert np.isfinite(core.tagged_circle(t, core.EXCIRCLE_B).center).all()


def test_cross_is_bit_identical_to_numpy(rng):
    # a batch of polygons, each polygon alone, and numpy's cross product of
    # one side's homogeneous ends give the same side lines to the bit
    polygons = rng.normal(size=(200, 5, 2)) * 10.0 ** rng.uniform(-8, 8, size=(200, 1, 1))
    batch = core.polygon_sides(polygons)
    assert batch.shape == (200, 5, 3)
    for V, sides in zip(polygons, batch):
        assert np.array_equal(core.polygon_sides(V), sides)
        for i in range(5):
            assert np.array_equal(sides[i], np.cross([*V[i], 1.0], [*V[(i + 1) % 5], 1.0]))


def test_solution_residuals_refuse_a_side_with_no_line(tri6913):
    # a repeated vertex leaves a side with no line (the zero triple), whose
    # distances read NaN: refused, not reported as a residual
    circle = core.tagged_circle(tri6913, core.INCIRCLE)
    verts = ccp_closed.solutions_for(tri6913, core.INCIRCLE)[0].vertices
    assert not core.polygon_sides(verts[[0, 0, 2]])[0].any()
    for nearest in (True, False):
        core.solution_residuals(circle, [verts], tri6913.vertices, nearest)
        with pytest.raises(CoincidentPoints):
            core.solution_residuals(circle, [verts, verts[[0, 0, 2]]], tri6913.vertices, nearest)


def test_point_line_distance_broadcasts_sides_by_points(rng):
    # lines (N, 1, 3) against points (M, 2): the N x M array of the
    # one-point, one-line distances, bit for bit
    lines, points = rng.normal(size=(4, 3)), rng.normal(size=(6, 2))
    grid = core.point_line_distance(points, lines[:, None, :])
    assert grid.shape == (4, 6)
    for i, line in enumerate(lines):
        for j, P in enumerate(points):
            assert grid[i, j] == core.point_line_distance(P, line)


def test_vertex_matrix_cartesian_matches_rowwise(triangles_100):
    from castillon import ccp_closed
    for t in triangles_100:
        for tag in core.CIRCLE_TAGS:
            for sol, rows in zip(ccp_closed.solutions_for(t, tag), solution_rows(t, tag)):
                rowwise = np.array([core.bary_to_cartesian(row, t) for row in rows])
                assert np.array_equal(sol.cartesian(t), rowwise)


def _random_bary_rows(rng, n):
    return rng.normal(size=(n, 3)) * 10.0 ** rng.uniform(-8, 8, size=(n, 1))


def _bary_to_cartesian_array_formula(p, tri):
    """Rows summed and divided with numpy, through the same matmul."""
    return (p[..., None, :] @ tri.vertices)[..., 0, :] / p.sum(axis=-1)[..., None]


def test_bary_to_cartesian_bit_identical_to_array_formula(rng):
    p = _random_bary_rows(rng, 10_000)
    tri = core.triangle_from_sides(6, 9, 13)
    for row in p:
        one = core.bary_to_cartesian(row, tri)
        assert one.shape == (2,)
        assert np.array_equal(one, _bary_to_cartesian_array_formula(row, tri))
    batch = core.triangle_from_vertices(rng.normal(size=(10_000, 3, 2)))
    got = core.bary_to_cartesian(p, batch)
    assert got.shape == (10_000, 2)
    assert np.array_equal(got, _bary_to_cartesian_array_formula(p, batch))


def test_vertex_matrix_cartesian_bit_identical_to_array_formula(rng):
    # the closed form's vertex matrices go through `rows_to_cartesian`, one
    # matrix, a stacked pair or a batch of them
    rows = _random_bary_rows(rng, 9_999).reshape(-1, 3, 3)
    tri = core.triangle_from_sides(6, 9, 13)
    expected = (rows @ tri.vertices) / rows.sum(axis=-1)[..., None]
    for one, want in zip(rows, expected):
        got = core.rows_to_cartesian(one, tri.vertices)
        assert got.shape == (3, 2)
        assert np.array_equal(got, want)
    pairs = core.rows_to_cartesian(rows[:3_332].reshape(-1, 2, 3, 3), tri.vertices[None])
    assert np.array_equal(pairs.reshape(-1, 3, 2), expected[:3_332])
    batch = core.triangle_from_vertices(rng.normal(size=(len(rows), 3, 2)))
    got = core.rows_to_cartesian(rows, batch.vertices)
    assert got.shape == (3_333, 3, 2)
    assert np.array_equal(got, (rows @ batch.vertices) / rows.sum(axis=-1)[..., None])


@pytest.mark.parametrize("total, infinite", [
    (1e-14, True), (-1e-14, True), (0.0, True),
    (np.nextafter(1e-14, 1.0), False), (np.nextafter(-1e-14, -1.0), False),
])
def test_point_at_infinity_threshold(tri345, total, infinite):
    # (1, -1, t) sums to t exactly, and its largest |component| is 1
    row = np.array([1.0, -1.0, total])
    rows = np.array([[1.0, 0.0, 0.0], row, [0.0, 0.0, 1.0]])
    batch = core.stack_triangles([tri345, tri345])
    calls = (lambda: core.bary_to_cartesian(row, tri345),
             lambda: core.bary_to_cartesian(np.array([[1.0, 1.0, 1.0], row]), batch),
             lambda: core.rows_to_cartesian(rows, tri345.vertices),
             lambda: core.rows_to_cartesian(np.array([np.eye(3), rows]), batch.vertices),
             # a stacked pair over one triangle's vertices
             lambda: core.rows_to_cartesian(np.array([np.eye(3), rows]), tri345.vertices[None]))
    for call in calls:
        if infinite:
            with pytest.raises(InfinitePoint):
                call()
        else:
            assert np.isfinite(call()).all()
    # the four circles' stack as `ccp_closed.build_four_circles` makes it, each
    # circle's centre weights and then its two solutions' rows, for one
    # triangle and for a batch: the row in a centre's place flags that
    # circle's centre and the circle, in a solution row's place the circle
    # alone; no other circle is flagged, and none raises or divides by zero
    for batch_shape, vertices in (((), tri345.vertices), ((2,), batch.vertices)):
        for block, centers in ((0, [False, infinite, False, False]), (2, [False] * 4)):
            stack = np.broadcast_to(np.eye(3), batch_shape + (4, 3, 3, 3)).copy()
            stack[(1,) * len(batch_shape) + (1, block, 1)] = row
            points, center_flags, flags = ccp_closed.circles_to_cartesian(
                stack.reshape(batch_shape + (36, 3)), vertices)
            assert center_flags == centers
            assert flags == [False, infinite, False, False]
            assert np.isfinite(points).all()


def test_totals_sum_left_to_right(rng):
    # a row's total is (x + y) + z on floats, also where another order would
    # round differently, in any stack shape; its flag is the 1e-14 threshold
    rows = rng.normal(size=(20_000, 3)) * 10.0 ** rng.integers(-16, 17, size=(20_000, 3))
    rows[:5_000, 1] = -rows[:5_000, 0] * (1.0 + rng.normal(size=5_000) * 1e-15)
    for shape in ((20_000, 3), (4, 2, 2_500, 1, 3), (5_000, 4, 3)):
        totals, infinite = core.row_totals(rows.reshape(shape))
        assert totals.shape == infinite.shape == shape[:-1] + (1,)
        want = [x + y + z for x, y, z in rows.tolist()]
        assert totals.ravel().tolist() == want
        assert infinite.ravel().tolist() == [
            abs(t) <= 1e-14 * max(abs(x), abs(y), abs(z))
            for t, (x, y, z) in zip(want, rows.tolist())]
    assert [x + y + z for x, y, z in rows.tolist()] != [x + (y + z) for x, y, z in rows.tolist()]


def test_derived_values_are_read_only(tri6913):
    # the circles and the closed form are kept with the triangle, so a write
    # into a returned array raises instead of changing a later caller's answer;
    # a build with arguments is kept once per (build, *args): the eight
    # solution frames are eight objects, each read back as the same object
    from castillon import brocard
    t = core.triangle_from_sides(6, 9, 13)
    frames = {(tag, k): brocard.solution_frame(t, tag, k)
              for tag in core.CIRCLE_TAGS for k in (0, 1)}
    assert len({id(f) for f in frames.values()}) == 8
    for (tag, k), frame in frames.items():
        assert brocard.solution_frame(t, tag, k) is frame
        assert t.derived(brocard._solution_frame, tag, k) is frame
        vertices = ccp_closed.solutions_for(t, tag)[k].vertices
        assert frame.triangle.vertices.tobytes() == vertices.tobytes()
    assert brocard.solution_frame(t, core.INCIRCLE) is frames[core.INCIRCLE, 0]
    for tag in core.CIRCLE_TAGS:
        circ = core.tagged_circle(tri6913, tag)
        kept = [circ.center, *solution_rows(tri6913, tag),
                *(sol.vertices for sol in ccp_closed.solutions_for(tri6913, tag))]
        before = [x.copy() for x in kept]
        for array in kept:
            with pytest.raises(ValueError):
                array[0] = 0.0
            with pytest.raises(ValueError):
                array += 1.0
        after = [core.tagged_circle(tri6913, tag).center, *solution_rows(tri6913, tag),
                 *(sol.vertices for sol in ccp_closed.solutions_for(tri6913, tag))]
        assert all(np.array_equal(x, y) for x, y in zip(before, after))


@pytest.mark.parametrize("bad", [-1.0, math.inf, math.nan])
def test_circle_radius_rejected(bad):
    for radius in (bad, np.float64(bad), np.array([1.0, bad])):
        with pytest.raises(GeometryError) as err:
            core.CircleData(np.zeros(2), radius)
        assert str(err.value) == f"invalid circle radius {radius}"
    for radius in (0.0, np.float64(2.5), np.array([0.0, 1.0])):
        assert core.CircleData(np.zeros(2), radius).radius is radius


def test_vertex_matrix_cartesian_rejects_row_at_infinity(tri345):
    rows = np.array([[1.0, 0.0, 0.0], [1.0, -1.0, 1e-15], [0.0, 0.0, 1.0]])
    with pytest.raises(InfinitePoint):
        core.rows_to_cartesian(rows, tri345.vertices)


def test_line_incidence_by_construction(rng):
    for _ in range(50):
        p, q = rng.normal(size=3), rng.normal(size=3)
        line = np.cross(p, q)
        assert core.incidence_residual(line, p) < 1e-14
        assert core.incidence_residual(line, q) < 1e-14


def test_soddy_line_contains_de_longchamps(tri6913):
    # line X1-X7 passes through X20 (computed via the centers registry)
    from castillon import centers
    t = tri6913
    line = np.cross(centers.center(1, t), centers.center(7, t))
    X20 = centers.center(20, t)
    assert core.incidence_residual(line, X20) < 1e-10


def _unit_tangent(theta):
    return np.array([math.cos(theta), math.sin(theta), -1.0])


def test_conic_from_five_unit_circle_tangents():
    lines = [_unit_tangent(math.radians(d)) for d in (0, 72, 144, 216, 288)]
    fit = conic_from_tangent_lines(lines)
    dual = core.adjugate3(circle_to_conic(core.CircleData(np.zeros(2), 1.0)).m)
    assert sin_angle(fit.m, dual) < 1e-12
    assert dual_tangency_residual(fit, _unit_tangent(1.234)) < 1e-10


def test_conic_fit_degenerate():
    line = np.array([1.0, 2.0, 3.0])
    with pytest.raises(DegenerateConic):
        conic_from_tangent_lines([line] * 5)


def test_conic_fit_solution_sides(tri6913):
    # five of the six solution sides determine the conic the sixth touches
    from castillon import ccp_closed
    vm1, vm2 = ccp_closed.incircle_solutions(tri6913)
    sides = []
    for vm in (vm1, vm2):
        verts = vm.cartesian(tri6913)
        sides += list(core.polygon_sides(verts))
    fit = conic_from_tangent_lines(sides[:5])
    assert dual_tangency_residual(fit, sides[5]) < 1e-8


def test_circle_conic_round_trip(rng):
    circ = core.CircleData(np.array([0.4, -1.3]), 2.2)
    conic = circle_to_conic(circ)
    for _ in range(30):
        theta = rng.uniform(0, 2 * math.pi)
        # tangent line at angle theta
        n = np.array([math.cos(theta), math.sin(theta)])
        P = circ.center + circ.radius * n
        line = np.array([n[0], n[1], -float(n @ P)])
        assert core.tangency_residual(conic, [line]) < 1e-10
        assert circle_tangency_residual(circ, line) < 1e-10


def test_ellipse_axes_of_a_rotated_ellipse():
    # x'^2/9 + y'^2/4 = 1 turned by 30 degrees about (1, -2), matrix scaled by -2
    c, s = math.cos(math.pi / 6), math.sin(math.pi / 6)
    T = np.array([[c, -s, 1.0], [s, c, -2.0], [0.0, 0.0, 1.0]])
    Tinv = np.linalg.inv(T)
    M = -2.0 * Tinv.T @ np.diag([1 / 9, 1 / 4, -1.0]) @ Tinv
    e = core.ellipse_axes(core.ConicMatrix(M))
    assert np.linalg.norm(e.center - [1.0, -2.0]) < 1e-12
    assert abs(e.semi_axes[0] - 3.0) < 1e-12 and abs(e.semi_axes[1] - 2.0) < 1e-12
    assert abs(abs(e.axes[:, 0] @ [c, s]) - 1.0) < 1e-12
    assert abs(e.axes[:, 1] @ [c, s]) < 1e-12
    for not_ellipse in (np.diag([1.0, -1.0, -1.0]), np.diag([1.0, 1.0, 1.0])):
        with pytest.raises(NonEllipse):
            core.ellipse_axes(core.ConicMatrix(not_ellipse))


def test_conic_matrix_rejects_other_shapes_and_asymmetry():
    for shape in ((3,), (2, 2), (3, 2), (4, 4), (2, 3, 2)):
        with pytest.raises(GeometryError, match="3x3 symmetric"):
            core.ConicMatrix(np.ones(shape))
    # an asymmetry up to 1e-12 of the largest entry is rounding, and is
    # averaged away; beyond it the matrix is refused, alone or in a batch
    M = np.diag([0.5, 0.5, -1.0])
    M[0, 1], M[1, 0] = 0.25, 0.25 + 0.5e-12
    assert np.array_equal(core.ConicMatrix(M).m, core.ConicMatrix(M).m.T)
    M[1, 0] = 0.25 + 2e-12
    for m in (M, np.stack([np.diag([1.0, 1.0, -1.0]), M])):
        with pytest.raises(GeometryError, match="3x3 symmetric"):
            core.ConicMatrix(m)


def test_normalize_bary():
    p = core.normalize_bary(np.array([2.0, 2.0, 4.0]))
    assert abs(p.sum() - 1) < 1e-15
    inf = core.normalize_bary(np.array([-1.0, 2.0, -1.0]))
    assert abs(np.abs(inf).max() - 1) < 1e-15
    assert is_infinite_bary(inf)
    with pytest.raises(GeometryError, match="zero barycentric triple"):
        core.normalize_bary(np.zeros(3))


def test_bary_round_trip_other_direction(tri6913, rng):
    # bary -> cartesian -> bary returns the same class up to scale
    for _ in range(30):
        p = rng.normal(size=3)
        if abs(p.sum()) < 1e-2:
            continue
        back = core.cartesian_to_bary(core.bary_to_cartesian(p, tri6913), tri6913)
        assert sin_angle(p, back) < 1e-12


def test_convert_bary_projective(tri345, tri6913):
    # finite point round-trips through another triangle's frame
    p = np.array([0.2, 0.3, 0.5])
    q = core.convert_bary(p, tri345, tri6913)
    back = core.convert_bary(q, tri6913, tri345)
    assert sin_angle(p, back) < 1e-13
    # infinite points stay infinite
    inf = np.array([1.0, -2.0, 1.0])
    assert is_infinite_bary(core.convert_bary(inf, tri345, tri6913))


# ---------------------------------------------------------------------------
# float kernels against the numpy formulas they replaced

U = np.finfo(float).eps / 2  # unit roundoff


def _sin_angle_numpy(p, q):
    """The numpy formula that `sin_angle` replaced, kept as its reference."""
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
        assert abs(sin_angle(p, q) - _sin_angle_numpy(p, q)) <= _sin_angle_bound(n)
        # tuples, lists and arrays give the same value
        assert sin_angle(tuple(p.tolist()), list(q)) == sin_angle(p, q)


def test_sin_angle_nearly_parallel(rng):
    # q = k p + e d with |e d| down to 1e-15 |p|: the sine is e |d_perp| / |q|
    # down to rounding, where the two formulas must still agree
    for eps in 10.0 ** -np.arange(1, 16):
        for _ in range(200):
            p, d = rng.normal(size=3), rng.normal(size=3)
            q = rng.uniform(-3, 3) * p + eps * np.linalg.norm(p) * d
            got = sin_angle(p, q)
            assert abs(got - _sin_angle_numpy(p, q)) <= _sin_angle_bound(3)
        assert sin_angle(p, 2.0 * p) <= _sin_angle_bound(3)


def test_sin_angle_zero_vectors_and_matrices(rng):
    assert sin_angle([0, 0, 0], [1, 2, 3]) == 1.0
    assert sin_angle((1.0, 2.0, 3.0), np.zeros(3)) == 1.0
    assert sin_angle(np.zeros((3, 3)), np.zeros((3, 3))) == 1.0
    assert sin_angle([1, 0, 0], [0, 1, 0]) == 1.0  # capped at 1
    for _ in range(2000):
        M, N = rng.normal(size=(2, 3, 3))
        if rng.integers(2):
            N = rng.uniform(-3, 3) * M + 10.0 ** rng.uniform(-15, -1) * N
        assert abs(sin_angle(M, N) - _sin_angle_numpy(M, N)) <= _sin_angle_bound(9)


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
