import math

import numpy as np
import pytest
from hypothesis import given, assume, settings
from hypothesis import strategies as st

from castillon import ccp_closed, ccp_general, core, sampling
from castillon.ccp_general import CcpProblem, CcpSolution
from castillon.errors import CenterPoint, DegenerateComposition, GeometryError, PathClosed

from conftest import bench_module, set_deviation
from oracles import chord_involution, point_at, sin_angle

UNIT = core.CircleData(np.zeros(2), 1.0)


def second_intersection_oracle(circle, Q, P):
    """Independent line-circle quadratic: other intersection of chord QP."""
    d = P - Q
    d = d / np.linalg.norm(d)
    rel = Q - circle.center
    # |rel + s d|^2 = r^2 with |rel| = r: s^2 + 2 s d.rel = 0
    s = -2.0 * float(d @ rel)
    return Q + s * d


def _apply(inv, pq):
    """A chord map on a homogeneous parameter pair (p, q), t = p/q."""
    m00, m01, m10, m11 = inv
    return m00 * pq[0] + m01 * pq[1], m10 * pq[0] + m11 * pq[1]


def _on_unit(theta):
    return complex(math.cos(theta), math.sin(theta))


def test_involution_fixes_point_on_circle():
    # a pivot on the circle is the chord's other end from anywhere, and a
    # walk that meets it continues from it
    P = point_at(UNIT, 0.0)
    inv = chord_involution(UNIT, P)
    assert sin_angle(_apply(inv, (0.3, 1.0)), (0.0, 1.0)) < 1e-15  # t = 0
    p = complex(*P)
    for theta in (0.5, 2.0, math.pi, 5.0):
        assert abs(ccp_general._chord(_on_unit(theta), p) - p) < 1e-15
    with pytest.raises(PathClosed):
        ccp_general._chord(p, p)
    assert ccp_general._walk(p, [p, 3.0 + 0j]) == [p, p, -p]


def test_center_gives_antipodal_map():
    inv = chord_involution(UNIT, np.zeros(2))
    # t -> -1/t
    p, q = _apply(inv, (2.0, 1.0))
    assert abs(p / q + 0.5) < 1e-14
    z = _on_unit(0.7)
    assert abs(ccp_general._chord(z, 0j) + z) < 1e-15


def test_involution_against_line_circle_oracle():
    P = np.array([2.0, 0.0])
    inv = chord_involution(UNIT, P)
    Q = point_at(UNIT, math.pi / 2)  # t = 1
    expected = second_intersection_oracle(UNIT, Q, P)
    got = ccp_general._chord(complex(*Q), complex(*P))
    assert abs(got - complex(*expected)) < 1e-12
    assert abs(got - complex(0.8, 0.6)) < 1e-15
    # and in parameter form: t = 1 -> 1/3
    p, q = _apply(inv, (1.0, 1.0))
    assert abs(p / q - 1.0 / 3.0) < 1e-14


def test_involution_rejects_nan():
    with pytest.raises(CenterPoint):
        chord_involution(UNIT, np.array([np.nan, 0.0]))


def test_problem_rejects_too_few_or_non_finite_points():
    with pytest.raises(GeometryError, match="at least three cartesian points"):
        CcpProblem(UNIT, [[2.0, 0.0], [0.0, 2.0]])
    with pytest.raises(CenterPoint, match="must be finite"):
        CcpProblem(UNIT, [[2.0, 0.0], [0.0, np.nan], [-2.0, 0.0]])


@settings(max_examples=100, deadline=None)
@given(st.floats(-3, 3), st.floats(-3, 3), st.floats(0, 2 * math.pi))
def test_involution_self_inverse(px, py, theta):
    P = np.array([px, py])
    assume(np.linalg.norm(P - UNIT.center) > 1e-3)  # stay off the circle center
    assume(abs(np.linalg.norm(P) - 1.0) > 1e-3)     # and off the circle itself
    inv = chord_involution(UNIT, P)
    assert inv.compose(inv).identity_defect() < 1e-12
    z, p = _on_unit(theta), complex(px, py)
    assert abs(ccp_general._chord(ccp_general._chord(z, p), p) - z) < 1e-10


def test_mobius_composite_is_a_chain_of_compose(rng, monkeypatch):
    # the solver composes the chord maps of its points in order, on plain
    # floats, through the formula `MobiusMap.compose` uses: its composite
    # equals the chain of `compose` over `chord_involution` bit for bit,
    # also with a pivot on the circle (a rank-1 chord map)
    circle = core.CircleData(np.array([0.3, -1.2]), 1.7)
    for k in range(50):
        points = rng.normal(scale=2.0, size=(3 + k % 3, 2))
        if k % 2:
            theta = rng.uniform(0.0, 2.0 * math.pi)
            points[k % len(points)] = circle.center + 1.7 * np.array([math.cos(theta),
                                                                      math.sin(theta)])
        composites = []
        with monkeypatch.context() as patch:
            def recorded(outer, inner, compose=ccp_general._compose):
                composites.append(compose(outer, inner))
                return composites[-1]
            patch.setattr(ccp_general, "_compose", recorded)
            try:
                ccp_general.solve_ccp_mobius(CcpProblem(circle, points))
            except DegenerateComposition:
                pass
        chain = chord_involution(circle, points[0])
        for P in points[1:]:
            chain = chord_involution(circle, P).compose(chain)
        assert len(composites) == len(points) - 1
        assert np.array(composites[-1]).tobytes() == np.array(chain).tobytes()


def test_involution_self_inverse_on_100_params(rng):
    P = np.array([0.3, 1.7])
    inv = chord_involution(UNIT, P)
    m00, m01, m10, m11 = inv
    assert abs(m00 * m11 - m01 * m10) > 1e-12 * (m00 * m00 + m01 * m01 + m10 * m10 + m11 * m11)
    p = complex(*P)
    for theta in rng.uniform(0, 2 * math.pi, 100):
        z = _on_unit(theta)
        assert abs(ccp_general._chord(ccp_general._chord(z, p), p) - z) < 1e-10


def _solution_sets(sols):
    return np.vstack([s.vertices for s in sols])


def _residuals(prob, sol) -> tuple[float, float]:
    """(on-circle, side-incidence) residuals of one solution, in radii."""
    res = core.solution_residuals(prob.circle, [sol.vertices], prob.points, nearest=False)
    return res["on_circle"], res["incidence"]


def test_two_solutions_match_closed_form(tri6913):
    prob = CcpProblem.on_triangle(tri6913, core.tagged_circle(tri6913, core.INCIRCLE))
    sols = ccp_general.solve_ccp_mobius(prob)
    assert len(sols) == 2
    vm1, vm2 = ccp_closed.incircle_solutions(tri6913)
    closed = np.vstack([vm1.cartesian(tri6913), vm2.cartesian(tri6913)])
    assert set_deviation(closed, _solution_sets(sols)) < 1e-9 * prob.circle.radius
    for s in sols:
        on_circle, incidence = _residuals(prob, s)
        assert on_circle < 1e-10
        assert incidence < 1e-10


def test_far_points_approach_equilateral():
    d = 1e6
    pts = np.array([[d * math.cos(a), d * math.sin(a)]
                    for a in (0, 2 * math.pi / 3, 4 * math.pi / 3)])
    sols = ccp_general.solve_ccp_mobius(CcpProblem(circle=UNIT, points=pts))
    assert len(sols) == 2
    for s in sols:
        _, incidence = _residuals(CcpProblem(circle=UNIT, points=pts), s)
        assert incidence < 1e-6
        # sides nearly equal: inscribed triangles approach equilateral
        sides = [np.linalg.norm(s.vertices[i] - s.vertices[(i + 1) % 3]) for i in range(3)]
        assert max(sides) - min(sides) < 1e-4


def test_repeated_outside_point_degenerates_consistently():
    # odd power of one involution: fixed points are the two tangency params
    pts = np.array([[5.0, 0.0]] * 3)
    sols = ccp_general.solve_ccp_mobius(CcpProblem(circle=UNIT, points=pts))
    assert 0 < len(sols) <= 2
    for s in sols:
        # the "triangle" collapses onto a single tangency point
        assert np.linalg.norm(s.vertices[0] - s.vertices[1]) < 1e-9
        assert np.linalg.norm(s.vertices[1] - s.vertices[2]) < 1e-9
        assert abs(np.linalg.norm(s.vertices[0]) - 1.0) < 1e-9
        # tangency points from (5,0): cos theta = 1/5
        assert abs(s.vertices[0][0] - 0.2) < 1e-9


def test_interior_repeated_point_has_no_solution():
    pts = np.array([[0.5, 0.0]] * 3)
    assert ccp_general.solve_ccp_mobius(CcpProblem(circle=UNIT, points=pts)) == []


def test_degenerate_composition_raises():
    # pairs of equal points compose to the identity
    pts = np.array([[2.0, 1.0], [2.0, 1.0], [-1.0, 3.0], [-1.0, 3.0]])
    with pytest.raises(DegenerateComposition):
        ccp_general.solve_ccp_mobius(CcpProblem(circle=UNIT, points=pts))


def test_exactly_two_solutions_for_random_incircle_problems(triangles_100):
    for t in triangles_100:
        prob = CcpProblem.on_triangle(t, core.tagged_circle(t, core.INCIRCLE))
        assert len(ccp_general.solve_ccp_mobius(prob)) == 2


def test_cyclic_shift_relabels_solutions(tri6913):
    circ = core.tagged_circle(tri6913, core.INCIRCLE)
    base = ccp_general.solve_ccp_mobius(
        CcpProblem(circle=circ, points=tri6913.vertices))
    shifted = ccp_general.solve_ccp_mobius(
        CcpProblem(circle=circ, points=np.roll(tri6913.vertices, 1, axis=0)))
    assert set_deviation(_solution_sets(base), _solution_sets(shifted)) < 1e-10 * circ.radius


def test_quadrilateral_problem():
    pts = np.array([[3.0, 0.2], [0.1, 2.5], [-2.8, -0.3], [0.4, -3.1]])
    prob = CcpProblem(circle=UNIT, points=pts)
    sols = ccp_general.solve_ccp_mobius(prob)
    assert len(sols) in (0, 1, 2)
    for s in sols:
        assert len(s.vertices) == 4
        on_circle, incidence = _residuals(prob, s)
        assert on_circle < 1e-9 and incidence < 1e-9


def test_pivot_on_circle_gives_the_one_genuine_solution():
    # a pivot on the circle has the rank-1 chord map onto its own parameter,
    # so it is the next vertex of every solution.  The composite's kernel
    # also solves the fixed-point quadratic, but the walk from it meets that
    # map's zero; it is dropped wherever the pivot sits in the cycle.
    P = np.array([1.0, 0.0])
    for k in range(3):
        pts = np.insert(np.array([[2.0, 1.5], [-1.5, 2.0]]), k, P, axis=0)
        sols = ccp_general.solve_ccp_mobius(CcpProblem(circle=UNIT, points=pts))
        assert len(sols) == 1
        assert sols[0].multiplicity == ccp_general.SINGLE
        V = sols[0].vertices
        assert np.all(np.isfinite(V))
        assert np.linalg.norm(V[(k + 1) % 3] - P) < 1e-12
        assert min(np.linalg.norm(V[i] - V[(i + 1) % 3]) for i in range(3)) > 1e-3
        for i in range(3):
            if i != k:
                landed = second_intersection_oracle(UNIT, V[i], pts[i])
                assert np.linalg.norm(landed - V[(i + 1) % 3]) < 1e-12


def test_repeated_pivot_on_circle_raises_degenerate_composition():
    # the chord map of a pivot on the circle squares to zero: every polygon
    # with a vertex at that pivot closes
    pts = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 0.5]])
    with pytest.raises(DegenerateComposition):
        ccp_general.solve_ccp_mobius(CcpProblem(circle=UNIT, points=pts))


def _on_tangent_line(alpha, heights):
    """Points T + h * d on the tangent line at T = (cos alpha, sin alpha)."""
    T = np.array([math.cos(alpha), math.sin(alpha)])
    d = np.array([-math.sin(alpha), math.cos(alpha)])
    return T, np.array([T + h * d for h in heights])


@pytest.mark.parametrize("alpha", [0.3, 1.9, 4.0, math.pi])
def test_tangent_line_points_give_a_tangent_double_solution(alpha):
    # every chord map through a point of the tangent line at T fixes T, and
    # an even number of them composes to a parabolic map (a translation of
    # t when T = (-1, 0)): T is the one, double, fixed point
    T, pts = _on_tangent_line(alpha, (1.0, 2.0, 4.0, -1.0))
    sols = ccp_general.solve_ccp_mobius(CcpProblem(circle=UNIT, points=pts))
    assert len(sols) == 1
    assert sols[0].multiplicity == ccp_general.TANGENT_DOUBLE
    assert np.abs(sols[0].vertices - T).max() < 1e-12


def test_tangent_double_root_at_infinity():
    # exact points on x = -1: the composite is exactly [[d, e], [0, d]], so
    # a = b = 0 and only the root (1 : 0), the point (-1, 0), is left
    pts = np.array([[-1.0, h] for h in (1.0, 2.0, 4.0, -1.0)])
    sols = ccp_general.solve_ccp_mobius(CcpProblem(circle=UNIT, points=pts))
    assert len(sols) == 1
    assert sols[0].multiplicity == ccp_general.TANGENT_DOUBLE
    assert sols[0].vertices.tolist() == [[-1.0, 0.0]] * 4


def test_tangent_line_translations_cancelling_raise_degenerate_composition():
    # on x = -1 the chord map of (-1, h) is t -> 2/h - t; these four shifts
    # cancel, so the composite is the identity
    pts = np.array([[-1.0, h] for h in (1.0, 2.0, 4.0, 4.0 / 3.0)])
    with pytest.raises(DegenerateComposition):
        ccp_general.solve_ccp_mobius(CcpProblem(circle=UNIT, points=pts))


_RHO = st.one_of(st.floats(0.2, 0.8), st.floats(1.5, 5.0))


@settings(max_examples=200, deadline=None)
@given(st.floats(-10, 10), st.floats(-10, 10), st.floats(0.5, 20),
       st.lists(st.tuples(_RHO, st.floats(0, 2 * math.pi)), min_size=3, max_size=3))
def test_every_mobius_solution_closes(cx, cy, r, polar):
    # the chord from vertex i through point i lands on vertex i + 1
    circle = core.CircleData(np.array([cx, cy]), r)
    pts = np.array([[cx + rho * r * math.cos(phi), cy + rho * r * math.sin(phi)]
                    for rho, phi in polar])
    try:
        sols = ccp_general.solve_ccp_mobius(CcpProblem(circle=circle, points=pts))
    except DegenerateComposition:
        assume(False)
    for sol in sols:
        V = sol.vertices
        for i in range(3):
            landed = second_intersection_oracle(circle, V[i], pts[i])
            assert np.linalg.norm(landed - V[(i + 1) % 3]) <= 1e-12 * r


# ---------------------------------------------------------------------------
# axis construction


def test_perspectrix_matches_closed_form_incircle(tri6913):
    circ = core.tagged_circle(tri6913, core.INCIRCLE)
    p1, p2 = ccp_general.solve_ccp_perspectrix(tri6913, circ)
    vm1, vm2 = ccp_closed.incircle_solutions(tri6913)
    closed = np.vstack([vm1.cartesian(tri6913), vm2.cartesian(tri6913)])
    pers = np.vstack([p1.cartesian(tri6913), p2.cartesian(tri6913)])
    assert set_deviation(closed, pers) < 1e-9 * tri6913.r


def test_perspectrix_matches_closed_form_a_excircle(tri345):
    circ = core.tagged_circle(tri345, core.EXCIRCLE_A)
    p1, p2 = ccp_general.solve_ccp_perspectrix(tri345, circ)
    e1, e2 = ccp_closed.excircle_solutions(tri345, "A")
    closed = np.vstack([e1.cartesian(tri345), e2.cartesian(tri345)])
    pers = np.vstack([p1.cartesian(tri345), p2.cartesian(tri345)])
    assert set_deviation(closed, pers) < 1e-9 * circ.radius


def test_perspectrix_equilateral_reflection_symmetry(equilateral):
    t = equilateral
    p1, p2 = ccp_general.solve_ccp_perspectrix(t, core.tagged_circle(t, core.INCIRCLE))
    v1, v2 = p1.cartesian(t), p2.cartesian(t)
    # reflect through the vertical symmetry axis x = 1
    mirrored = np.column_stack([2.0 - v1[:, 0], v1[:, 1]])
    assert set_deviation(mirrored, v2) < 1e-10


def test_perspectrix_returns_what_mobius_returns(tri6913):
    circ = core.tagged_circle(tri6913, core.EXCIRCLE_B)
    persp = ccp_general.solve_ccp_perspectrix(tri6913, circ)
    mobius = ccp_general.solve_ccp_mobius(CcpProblem.on_triangle(tri6913, circ))
    assert type(persp) is type(mobius) is list
    assert [type(sol) for sol in persp] == [type(sol) for sol in mobius] == [CcpSolution] * 2
    for sol in persp + mobius:
        assert sol.multiplicity == ccp_general.TWO_DISTINCT
        assert sol.vertices.shape == (3, 2)
        assert sol.cartesian(tri6913) is sol.vertices
    # each list in the order of its vertex 0's angle about the center
    for sols in (persp, mobius):
        angles = [math.atan2(*(sol.vertices[0] - circ.center)[::-1]) % (2.0 * math.pi)
                  for sol in sols]
        assert angles == sorted(angles)


def _agreement(tri, tag):
    """Largest deviation of the mobius and perspectrix solutions from the
    closed form's, per radius."""
    circ = core.tagged_circle(tri, tag)
    closed = np.vstack([vm.cartesian(tri) for vm in ccp_closed.solutions_for(tri, tag)])
    solved = (ccp_general.solve_ccp_mobius(CcpProblem.on_triangle(tri, circ)),
              ccp_general.solve_ccp_perspectrix(tri, circ))
    return max(set_deviation(closed, np.vstack([s.vertices for s in sols]))
               for sols in solved) / circ.radius


@pytest.mark.parametrize("k", [1e-20, 1e-12, 1e9, 1e12, 1e20])
def test_general_solvers_at_any_scale(k):
    # every threshold is in radii of the circle's frame, so (6, 9, 13) k
    # solves as (6, 9, 13) does
    tri = core.triangle_from_sides(6 * k, 9 * k, 13 * k)
    for tag in core.CIRCLE_TAGS:
        assert _agreement(tri, tag) <= 1e-12


@pytest.mark.parametrize("offset", [1e4, 1e6])
def test_general_solvers_far_from_the_origin(offset):
    # the frame is centred on the circle; what is left is the rounding of
    # the input coordinates, about 1e-16 offset
    tri = core.triangle_from_vertices(np.array([[1.5, 4.0], [0.0, 0.0], [6.0, 0.5]]) + offset)
    for tag in core.CIRCLE_TAGS:
        assert _agreement(tri, tag) <= 1e-9


def test_perspectrix_rejects_foreign_circle(tri345, tri6913):
    # the incircle's radius on a centre moved by 1e-6 r, a radius (5) that
    # is none of the incircle's 1 and the excircles' 2, 3 and 6, and the
    # named incircle of (3, 4, 5) passed with another triangle
    from castillon.errors import GeometryError
    inc = core.tagged_circle(tri345, core.INCIRCLE)
    for tri, circle in ((tri345, core.CircleData(inc.center + [0.0, 1e-6 * inc.radius],
                                                 inc.radius)),
                        (tri345, core.CircleData(np.zeros(2), 5.0)),
                        (tri6913, inc)):
        with pytest.raises(GeometryError, match="circle is neither the incircle nor an excircle"):
            ccp_general.solve_ccp_perspectrix(tri, circle)


def test_solution_invariants_any_algorithm(triangles_100):
    # algorithm-independent verification of the on-circle and incidence
    # invariants for both solvers on a subsample
    for t in triangles_100[:25]:
        circ = core.tagged_circle(t, core.INCIRCLE)
        prob = CcpProblem.on_triangle(t, circ)
        for sol in ccp_general.solve_ccp_mobius(prob):
            on_circle, incidence = _residuals(prob, sol)
            assert on_circle < 1e-10
            assert incidence < 1e-10
        for vm in ccp_general.solve_ccp_perspectrix(t, circ):
            verts = vm.cartesian(t)
            for i in range(3):
                assert abs(np.linalg.norm(verts[i] - circ.center) - circ.radius) \
                    < 1e-10 * circ.radius


# ---------------------------------------------------------------------------
# the chord walk in the circle's frame and the perspectrix fallbacks


def _walk(seed, pivots):
    z = seed
    for pivot in pivots:
        z = ccp_general._chord(z, pivot)
    return z


def _in_frame(circle, P):
    return complex(*(np.asarray(P) - circle.center)) / circle.radius


def _chord_setup(tri, tag=core.INCIRCLE):
    """The circle, the pivots B, C, A and the touchpoints, in the circle's
    frame."""
    circle = core.tagged_circle(tri, tag)
    A, B, C = (_in_frame(circle, P) for P in tri.vertices)
    return circle, (B, C, A), ccp_general._touchpoints(A, B, C)


def test_chord_step_rejects_pivot_at_current_point():
    Q = complex(0.6, 0.8)
    with pytest.raises(PathClosed):
        ccp_general._chord(Q, Q)
    # the pivot coincides within 1e-14 radii
    with pytest.raises(PathClosed):
        ccp_general._chord(1.0 + 0j, complex(1.0 + 0.5e-14, 0.0))
    assert ccp_general._chord(1.0 + 0j, complex(1.0 + 2e-14, 0.0)) == -1.0


@settings(max_examples=200, deadline=None)
@given(st.floats(-10, 10), st.floats(-10, 10), st.floats(0.5, 20),
       st.floats(0, 2 * math.pi), st.floats(1.001, 5), st.floats(0, 2 * math.pi))
def test_chord_step_against_line_circle_oracle(cx, cy, r, theta, rho, phi):
    circle = core.CircleData(np.array([cx, cy]), r)
    Q = point_at(circle, theta)
    P = circle.center + rho * r * np.array([math.cos(phi), math.sin(phi)])
    w = ccp_general._chord(_in_frame(circle, Q), _in_frame(circle, P))
    got = (cx + r * w.real, cy + r * w.imag)
    assert np.linalg.norm(np.subtract(got, second_intersection_oracle(circle, Q, P))) <= 1e-12 * r
    assert abs(math.hypot(got[0] - cx, got[1] - cy) - r) <= 1e-13 * r


def test_axis_seed_on_solution_vertex_is_closed_path(tri6913):
    circle, pivots, (t_a, t_b, t_c) = _chord_setup(tri6913)
    assert ccp_general._axis_from_seeds(pivots, (-t_a, t_b, t_c)) is not None
    # the closed-form vertex whose chord walk through B, C, A returns to itself
    verts = ccp_closed.incircle_solutions(tri6913)[0].cartesian(tri6913)
    V = min((_in_frame(circle, P) for P in verts), key=lambda V: abs(_walk(V, pivots) - V))
    # exactly on the vertex the cross points collapse too; 1e-9 rad off it
    # only the closed-path test rejects the seeding
    for seed in (V, V * _on_unit(1e-9)):
        assert abs(_walk(seed, pivots) - seed) <= 1e-6
        assert ccp_general._axis_from_seeds(pivots, (seed, t_b, t_c)) is None
    # the path closes when it ends within 1e-6 radii of its seed: the gap
    # grows by |slope - 1| per radian off the vertex
    _, gp = ccp_general._closure_gap(pivots, V)
    for gap, refused in ((0.5e-6, True), (2e-6, False)):
        seed = V * _on_unit(gap / abs(gp))
        assert abs(_walk(seed, pivots) - seed) == pytest.approx(gap, rel=0.01)
        assert (ccp_general._axis_from_seeds(pivots, (seed, t_b, t_c)) is None) == refused


def test_axis_seed_on_other_path_endpoint_has_no_cross_point(tri6913):
    _, pivots, (t_a, _, t_c) = _chord_setup(tri6913)
    a4 = _walk(t_a, pivots)
    # neither path closes, so the None comes from the coincident cross chord
    assert abs(a4 - t_a) > 1e-6
    assert abs(_walk(a4, pivots) - a4) > 1e-6
    assert ccp_general._axis_from_seeds(pivots, (t_a, a4, t_c)) is None


@pytest.mark.parametrize("tol", [1e-14, 1e-9])
def test_meet_sine_threshold(tol):
    # two chords of the unit circle meet unless the ends of one coincide
    # (to 1e-14 radii) or they are parallel (to a sine of 1e-9)
    meet = ccp_general._cross_point
    a, b, d = _on_unit(0.3), _on_unit(2.0), _on_unit(2.8)
    for x, refused in ((0.5 * tol, True), (2.0 * tol, False)):
        if tol == 1e-14:
            near = _on_unit(0.3 + x)
            assert abs(near - a) == pytest.approx(x, rel=0.02)
            got = (meet(a, near, _on_unit(-0.5), d), meet(_on_unit(-0.5), d, a, near))
        else:
            # chord (c, d) turned by x from parallel to chord (a, b)
            c = _on_unit(-0.5 + 2.0 * math.asin(x))
            assert abs(a * b - c * d) / 2.0 == pytest.approx(x, rel=1e-6)
            got = (meet(a, b, c, d),)
        assert all((h is None) == refused for h in got)


def test_cross_point_is_the_meet_of_the_chords(rng):
    for _ in range(100):
        a, b, c, d = (_on_unit(t) for t in rng.uniform(0.0, 2.0 * math.pi, 4))
        homog = lambda z: [z.real, z.imag, 1.0]
        h = homog(ccp_general._cross_point(a, b, c, d))
        for p, q in ((a, b), (c, d)):
            assert core.incidence_residual(np.cross(homog(p), homog(q)), h) < 1e-12


def _cross_point_sine(pivots, a1, b1, c1):
    """Sine between the homogeneous axis points (x, y, 1) of the circle's
    frame that the seed pairs (a, b) and (a, c) give, recomputed with numpy."""
    homog = lambda z: np.array([z.real, z.imag, 1.0])
    ends = [(homog(S), homog(_walk(S, pivots))) for S in (a1, b1, c1)]
    (a1, a4), (b1, b4), (c1, c4) = ends
    h1 = np.cross(np.cross(a1, b4), np.cross(a4, b1))
    h2 = np.cross(np.cross(a1, c4), np.cross(a4, c1))
    return sin_angle(h1, h2)


def test_axis_points_sine_threshold(tri6913):
    # seed c a rotation of seed b by delta: the two axis points approach each
    # other linearly in delta, and the axis is refused once their sine is at
    # most 1e-9
    _, pivots, (t_a, t_b, _) = _chord_setup(tri6913)
    a1 = -t_a
    delta0 = 1e-5
    per_delta = _cross_point_sine(pivots, a1, t_b, t_b * _on_unit(delta0)) / delta0
    for sine, refused in ((0.5e-9, True), (2e-9, False)):
        c1 = t_b * _on_unit(sine / per_delta)
        assert _cross_point_sine(pivots, a1, t_b, c1) == pytest.approx(sine, rel=0.01)
        axis = ccp_general._axis_from_seeds(pivots, (a1, t_b, c1))
        assert (axis is None) == refused


@pytest.mark.parametrize("failing", range(1, 6))
def test_perspectrix_later_rungs_match_closed_form(tri6913, monkeypatch, failing):
    real, calls = ccp_general._axis_from_seeds, []

    def flaky(*args):
        calls.append(args)
        return None if len(calls) <= failing else real(*args)

    monkeypatch.setattr(ccp_general, "_axis_from_seeds", flaky)
    circ = core.tagged_circle(tri6913, core.INCIRCLE)
    p1, p2 = ccp_general.solve_ccp_perspectrix(tri6913, circ)
    assert len(calls) == failing + 1
    vm1, vm2 = ccp_closed.incircle_solutions(tri6913)
    closed = np.vstack([vm1.cartesian(tri6913), vm2.cartesian(tri6913)])
    pers = np.vstack([p1.cartesian(tri6913), p2.cartesian(tri6913)])
    assert set_deviation(closed, pers) < 1e-9 * circ.radius


def test_perspectrix_raises_when_every_rung_degenerates(tri6913, monkeypatch):
    calls = []
    monkeypatch.setattr(ccp_general, "_axis_from_seeds", lambda *args: calls.append(args))
    with pytest.raises(PathClosed):
        ccp_general.solve_ccp_perspectrix(tri6913, core.tagged_circle(tri6913, core.INCIRCLE))
    assert len(calls) == 6


def test_perspectrix_first_rung_builds_no_rotated_seeds(tri6913, monkeypatch):
    # the ladder is lazy: rungs 4-6 rotate the touchpoints only when the
    # rungs before them degenerate, so none is built for these circles
    real, built = ccp_general._seed_ladder, []

    def counted(touchpoints):
        built.append(0)
        for rung in real(touchpoints):
            built[-1] += 1
            yield rung

    monkeypatch.setattr(ccp_general, "_seed_ladder", counted)
    for tri in (tri6913, core.triangle_from_sides(3, 4, 5)):
        for tag in core.CIRCLE_TAGS:
            ccp_general.solve_ccp_perspectrix(tri, core.tagged_circle(tri, tag))
    assert len(built) == 8 and max(built) <= 3
    # the first rung multiplies no touchpoint by a rotation
    turns = []

    class Counted(complex):
        def __mul__(self, other):
            turns.append(other)
            return complex(self) * other

    _, _, touch = _chord_setup(tri6913)
    next(real([Counted(t) for t in touch]))
    assert turns == []
    # all six rungs, the rotated ones last, when every one degenerates
    rungs = list(real(touch))
    assert len(rungs) == 6
    for rung, angle in zip(rungs[3:], (0.37, 0.91, 1.53)):
        assert all(abs(z - t * _on_unit(angle)) < 1e-15 for z, t in zip(rung, touch))


# ---------------------------------------------------------------------------
# the Newton polish on the closure gap


@pytest.mark.parametrize("sides", [(6, 9, 13), (3, 4, 5)])
@pytest.mark.parametrize("tag", core.CIRCLE_TAGS)
def test_closure_gap_derivative_matches_central_difference(sides, tag):
    tri = core.triangle_from_sides(*sides)
    _, pivots, _ = _chord_setup(tri, tag)
    h = 1e-5
    checked = 0
    for theta in np.linspace(0.0, 2.0 * math.pi, 24, endpoint=False):
        g, gp = ccp_general._closure_gap(pivots, _on_unit(theta))
        lo, _ = ccp_general._closure_gap(pivots, _on_unit(theta - h))
        hi, _ = ccp_general._closure_gap(pivots, _on_unit(theta + h))
        if max(abs(g), abs(lo), abs(hi)) > 3.0:
            continue  # the wrapped gap jumps by 2 pi here
        assert gp == pytest.approx((hi - lo) / (2.0 * h), rel=1e-6)
        checked += 1
    assert checked >= 12


def test_polish_takes_one_walk_per_vertex(monkeypatch):
    # one exact-derivative Newton step lands below 1e-9 rad, so the polish
    # stops after it
    gaps, polishes = [], []
    real_gap, real_polish = ccp_general._closure_gap, ccp_general._polish_fixed_point
    monkeypatch.setattr(ccp_general, "_closure_gap",
                        lambda *args: gaps.append(args) or real_gap(*args))
    monkeypatch.setattr(ccp_general, "_polish_fixed_point",
                        lambda *args: polishes.append(args) or real_polish(*args))
    rng = np.random.default_rng(1)
    for _ in range(100):
        tri = sampling.random_triangle(rng)
        for tag in core.CIRCLE_TAGS:
            ccp_general.solve_ccp_perspectrix(tri, core.tagged_circle(tri, tag))
    assert len(polishes) == 800
    assert len(gaps) <= 1.01 * len(polishes)


@pytest.mark.parametrize("gap, steps", [
    ((0.3, 0.0), 1),     # |gp| < 1e-8: flat gap, no step
    ((0.3, -1.0), 1),    # |step| = 0.3 > 0.05: never hop to the other root
    ((1e-10, 1.0), 1),   # a step of at most 1e-9 rad is the last
    ((1e-16, 1.0), 1),   # |g| < 1e-15: already closed
    ((1e-6, 1.0), 4),    # larger steps run to the iteration cap
])
def test_polish_exits(monkeypatch, gap, steps):
    calls = []
    monkeypatch.setattr(ccp_general, "_closure_gap", lambda *args: calls.append(args) or gap)
    z = ccp_general._polish_fixed_point((), _on_unit(0.4))
    assert len(calls) == steps
    g, gp = gap
    moved = 0.0 if abs(g) < 1e-15 or abs(gp) < 1e-8 or abs(g / gp) > 0.05 else -g / gp
    assert math.atan2(z.imag, z.real) == pytest.approx(0.4 + steps * moved, abs=1e-15)
    assert abs(abs(z) - 1.0) < 1e-15


# ---------------------------------------------------------------------------
# criterion 01's loop against the benchmark's oracle checker


@pytest.mark.parametrize("seed", [1, 424242])
def test_oracle_sweep_meets_benchmark_checker(monkeypatch, seed):
    # the oracle-sweep problems, solved by the benchmark's own worker: closed
    # form, mobius and perspectrix on each circle of a sampled triangle.
    # Every one must pass the checker, and every perspectrix vertex, the
    # chord walk's own, lie on its circle to rounding
    worker = bench_module(monkeypatch, "oracle_worker")
    rng = np.random.default_rng(seed)
    errors, off_circle = [], 0.0
    for _ in range(250):
        tri = sampling.random_triangle(rng)
        for tag in core.CIRCLE_TAGS:
            closed, mobius, persp = worker.solve(tri, tag)
            errors += worker.checks.check_oracle(tri.vertices, tag, closed, mobius, persp)[0]
            center, radius = core.tagged_circle(tri, tag)
            dist = np.linalg.norm(np.array(persp) - center, axis=-1)
            off_circle = max(off_circle, np.abs(dist - radius).max() / radius)
    assert errors == []
    assert off_circle <= 2e-14
