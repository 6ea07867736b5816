import math

import numpy as np
import pytest
from hypothesis import given, assume, settings
from hypothesis import strategies as st

from castillon import ccp_closed, ccp_general, core
from castillon.ccp_general import CcpProblem, chord_involution, param_from_point, point_from_param
from castillon.errors import CenterPoint, DegenerateComposition, PathClosed

from conftest import set_deviation

UNIT = core.CircleData(np.zeros(2), 1.0)


def second_intersection_oracle(circle, Q, P):
    """Independent line-circle quadratic: other intersection of chord QP."""
    d = P - Q
    d = d / np.linalg.norm(d)
    rel = Q - circle.center
    # |rel + s d|^2 = r^2 with |rel| = r: s^2 + 2 s d.rel = 0
    s = -2.0 * float(d @ rel)
    return Q + s * d


def test_involution_fixes_point_on_circle():
    P = UNIT.point_at(0.0)
    inv = chord_involution(UNIT, P)
    pq = param_from_point(UNIT, P)
    assert core.sin_angle(inv(pq), pq) < 1e-12


def test_center_gives_antipodal_map():
    inv = chord_involution(UNIT, np.zeros(2))
    # t -> -1/t
    p, q = inv((2.0, 1.0))
    assert abs(p / q + 0.5) < 1e-14
    P = UNIT.point_at(0.7)
    image = point_from_param(UNIT, inv(param_from_point(UNIT, P)))
    assert np.linalg.norm(image - (2 * UNIT.center - P)) < 1e-12


def test_involution_against_line_circle_oracle():
    P = np.array([2.0, 0.0])
    inv = chord_involution(UNIT, P)
    Q = UNIT.point_at(math.pi / 2)  # t = 1
    expected = second_intersection_oracle(UNIT, Q, P)
    got = point_from_param(UNIT, inv(param_from_point(UNIT, Q)))
    assert np.linalg.norm(got - expected) < 1e-12
    # and in parameter form: t = 1 -> 1/3
    p, q = inv((1.0, 1.0))
    assert abs(p / q - 1.0 / 3.0) < 1e-14


def test_involution_rejects_nan():
    with pytest.raises(CenterPoint):
        chord_involution(UNIT, np.array([np.nan, 0.0]))


@settings(max_examples=100, deadline=None)
@given(st.floats(-3, 3), st.floats(-3, 3), st.floats(0, 2 * math.pi))
def test_involution_self_inverse(px, py, theta):
    P = np.array([px, py])
    assume(np.linalg.norm(P - UNIT.center) > 1e-3)  # stay off the circle center
    assume(abs(np.linalg.norm(P) - 1.0) > 1e-3)     # and off the circle itself
    inv = chord_involution(UNIT, P)
    assert inv.compose(inv).identity_defect() < 1e-12
    pq = param_from_point(UNIT, UNIT.point_at(theta))
    assert core.sin_angle(inv(inv(pq)), pq) < 1e-10


def test_involution_self_inverse_on_100_params(rng):
    P = np.array([0.3, 1.7])
    inv = chord_involution(UNIT, P)
    m00, m01, m10, m11 = inv
    assert abs(m00 * m11 - m01 * m10) > 1e-12 * (m00 * m00 + m01 * m01 + m10 * m10 + m11 * m11)
    for theta in rng.uniform(0, 2 * math.pi, 100):
        pq = param_from_point(UNIT, UNIT.point_at(theta))
        assert core.sin_angle(inv(inv(pq)), pq) < 1e-10


def _solution_sets(sols):
    return np.vstack([s.vertices for s in sols])


def test_two_solutions_match_closed_form(tri6913):
    prob = CcpProblem.on_triangle(tri6913, core.incircle(tri6913))
    sols = ccp_general.solve_ccp_mobius(prob)
    assert len(sols) == 2
    vm1, vm2 = ccp_closed.incircle_solutions(tri6913)
    closed = np.vstack([vm1.cartesian(tri6913), vm2.cartesian(tri6913)])
    assert set_deviation(closed, _solution_sets(sols)) < 1e-9 * prob.circle.radius
    for s in sols:
        on_circle, incidence = s.max_residuals(prob)
        assert on_circle < 1e-10 * prob.circle.radius
        assert incidence < 1e-10 * prob.circle.radius


def test_far_points_approach_equilateral():
    d = 1e6
    pts = np.array([[d * math.cos(a), d * math.sin(a)]
                    for a in (0, 2 * math.pi / 3, 4 * math.pi / 3)])
    sols = ccp_general.solve_ccp_mobius(CcpProblem(circle=UNIT, points=pts))
    assert len(sols) == 2
    for s in sols:
        _, incidence = s.max_residuals(CcpProblem(circle=UNIT, points=pts))
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
        prob = CcpProblem.on_triangle(t, core.incircle(t))
        assert len(ccp_general.solve_ccp_mobius(prob)) == 2


def test_cyclic_shift_relabels_solutions(tri6913):
    circ = core.incircle(tri6913)
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
        on_circle, incidence = s.max_residuals(prob)
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
    circ = core.incircle(tri6913)
    p1, p2 = ccp_general.solve_ccp_perspectrix(tri6913, circ)
    vm1, vm2 = ccp_closed.incircle_solutions(tri6913)
    closed = np.vstack([vm1.cartesian(tri6913), vm2.cartesian(tri6913)])
    pers = np.vstack([p1.cartesian(tri6913), p2.cartesian(tri6913)])
    assert set_deviation(closed, pers) < 1e-9 * tri6913.r


def test_perspectrix_matches_closed_form_a_excircle(tri345):
    circ = core.excircle(tri345, "A")
    p1, p2 = ccp_general.solve_ccp_perspectrix(tri345, circ)
    e1, e2 = ccp_closed.excircle_solutions(tri345, "A")
    closed = np.vstack([e1.cartesian(tri345), e2.cartesian(tri345)])
    pers = np.vstack([p1.cartesian(tri345), p2.cartesian(tri345)])
    assert set_deviation(closed, pers) < 1e-9 * circ.radius


def test_perspectrix_equilateral_reflection_symmetry(equilateral):
    t = equilateral
    p1, p2 = ccp_general.solve_ccp_perspectrix(t, core.incircle(t))
    v1, v2 = p1.cartesian(t), p2.cartesian(t)
    # reflect through the vertical symmetry axis x = 1
    mirrored = np.column_stack([2.0 - v1[:, 0], v1[:, 1]])
    assert set_deviation(mirrored, v2) < 1e-10


def test_perspectrix_rejects_foreign_circle(tri345):
    from castillon.errors import GeometryError
    with pytest.raises(GeometryError):
        ccp_general.solve_ccp_perspectrix(tri345, core.CircleData(np.zeros(2), 5.0))


def test_solution_invariants_any_algorithm(triangles_100):
    # algorithm-independent verification of the on-circle and incidence
    # invariants for both solvers on a subsample
    for t in triangles_100[:25]:
        circ = core.incircle(t)
        prob = CcpProblem.on_triangle(t, circ)
        for sol in ccp_general.solve_ccp_mobius(prob):
            on_circle, incidence = sol.max_residuals(prob)
            assert on_circle < 1e-10 * circ.radius
            assert incidence < 1e-10 * circ.radius
        for vm in ccp_general.solve_ccp_perspectrix(t, circ):
            verts = vm.cartesian(t)
            for i in range(3):
                assert abs(np.linalg.norm(verts[i] - circ.center) - circ.radius) \
                    < 1e-10 * circ.radius


# ---------------------------------------------------------------------------
# the float chord walk and the perspectrix fallbacks


def _walk(circ, seed, pivots):
    P = seed
    for pivot in pivots:
        P = ccp_general._second_intersection(circ, P, pivot)
    return P


def _chord_setup(tri):
    """(cx, cy, r) of the incircle, the pivots B, C, A and the touchpoints."""
    circle = core.incircle(tri)
    circ = (*circle.center.tolist(), circle.radius)
    A, B, C = map(tuple, tri.vertices.tolist())
    return circ, (B, C, A), ccp_general._touchpoints(circ, A, B, C)


def test_chord_step_rejects_pivot_at_current_point():
    Q = (0.6, 0.8)
    with pytest.raises(PathClosed):
        ccp_general._second_intersection((0.0, 0.0, 1.0), Q, Q)


@settings(max_examples=200, deadline=None)
@given(st.floats(-10, 10), st.floats(-10, 10), st.floats(0.5, 20),
       st.floats(0, 2 * math.pi), st.floats(1.001, 5), st.floats(0, 2 * math.pi))
def test_chord_step_against_line_circle_oracle(cx, cy, r, theta, rho, phi):
    circle = core.CircleData(np.array([cx, cy]), r)
    Q = circle.point_at(theta)
    P = circle.center + rho * r * np.array([math.cos(phi), math.sin(phi)])
    got = ccp_general._second_intersection((cx, cy, r), tuple(Q), tuple(P))
    assert np.linalg.norm(np.subtract(got, second_intersection_oracle(circle, Q, P))) <= 1e-12 * r
    assert abs(math.hypot(got[0] - cx, got[1] - cy) - r) <= 1e-13 * r


def test_axis_seed_on_solution_vertex_is_closed_path(tri6913):
    circ, pivots, (t_a, t_b, t_c) = _chord_setup(tri6913)
    antipode_a = (2.0 * circ[0] - t_a[0], 2.0 * circ[1] - t_a[1])
    assert ccp_general._axis_from_seeds(circ, pivots, (antipode_a, t_b, t_c)) is not None
    # the closed-form vertex whose chord walk through B, C, A returns to itself
    verts = ccp_closed.incircle_solutions(tri6913)[0].cartesian(tri6913).tolist()
    V = min(map(tuple, verts), key=lambda V: math.dist(_walk(circ, V, pivots), V))
    # exactly on the vertex the cross points collapse too; 1e-9 rad off it
    # only the closed-path test rejects the seeding
    for seed in (V, ccp_general._rotate_about(circ, V, 1e-9)):
        assert math.dist(_walk(circ, seed, pivots), seed) <= 1e-6 * circ[2]
        assert ccp_general._axis_from_seeds(circ, pivots, (seed, t_b, t_c)) is None


def test_axis_seed_on_other_path_endpoint_has_no_cross_point(tri6913):
    circ, pivots, (t_a, _, t_c) = _chord_setup(tri6913)
    a4 = _walk(circ, t_a, pivots)
    # neither path closes, so the None comes from the coincident cross chord
    assert math.dist(a4, t_a) > 1e-6 * circ[2]
    assert math.dist(_walk(circ, a4, pivots), a4) > 1e-6 * circ[2]
    assert ccp_general._axis_from_seeds(circ, pivots, (t_a, a4, t_c)) is None


@pytest.mark.parametrize("tol", [1e-14, 1e-9])
def test_meet_sine_threshold(tol):
    # |p x q| / (|p| |q|) is the sine of the angle between p and q
    p = (1.0, 0.0, 0.0)
    assert ccp_general._meet(p, (1.0, 0.5 * tol, 0.0), tol) is None
    assert ccp_general._meet(p, (1.0, 2.0 * tol, 0.0), tol) == (0.0, 0.0, 2.0 * tol)


def _cross_point_sine(circ, pivots, a1, b1, c1):
    """Sine between the axis points the seed pairs (a, b) and (a, c) give,
    recomputed with numpy."""
    ends = [(np.array([*S, 1.0]), np.array([*_walk(circ, S, pivots), 1.0]))
            for S in (a1, b1, c1)]
    (a1, a4), (b1, b4), (c1, c4) = ends
    h1 = np.cross(np.cross(a1, b4), np.cross(a4, b1))
    h2 = np.cross(np.cross(a1, c4), np.cross(a4, c1))
    return core.sin_angle(h1, h2)


def test_axis_points_sine_threshold(tri6913):
    # seed c a rotation of seed b by delta: the two axis points approach each
    # other linearly in delta, and the axis is refused once their sine is at
    # most 1e-9
    circ, pivots, (t_a, t_b, _) = _chord_setup(tri6913)
    a1 = (2.0 * circ[0] - t_a[0], 2.0 * circ[1] - t_a[1])
    delta0 = 1e-5
    per_delta = _cross_point_sine(
        circ, pivots, a1, t_b, ccp_general._rotate_about(circ, t_b, delta0)) / delta0
    for sine, refused in ((0.5e-9, True), (2e-9, False)):
        c1 = ccp_general._rotate_about(circ, t_b, sine / per_delta)
        assert _cross_point_sine(circ, pivots, a1, t_b, c1) == pytest.approx(sine, rel=0.01)
        axis = ccp_general._axis_from_seeds(circ, pivots, (a1, t_b, c1))
        assert (axis is None) == refused


@pytest.mark.parametrize("failing", range(1, 6))
def test_perspectrix_later_rungs_match_closed_form(tri6913, monkeypatch, failing):
    real, calls = ccp_general._axis_from_seeds, []

    def flaky(*args):
        calls.append(args)
        return None if len(calls) <= failing else real(*args)

    monkeypatch.setattr(ccp_general, "_axis_from_seeds", flaky)
    circ = core.incircle(tri6913)
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
        ccp_general.solve_ccp_perspectrix(tri6913, core.incircle(tri6913))
    assert len(calls) == 6
