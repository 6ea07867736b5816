import math
from itertools import combinations, product

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
    assert ccp_general._identity_defect(ccp_general._compose(inv, inv)) < 1e-12
    z, p = _on_unit(theta), complex(px, py)
    assert abs(ccp_general._chord(ccp_general._chord(z, p), p) - z) < 1e-10


def test_mobius_composite_is_a_chain_of_compose(rng, monkeypatch):
    # the solver composes the chord maps of its points in order, on plain
    # floats, through `_compose`: its composite equals the chain of
    # `_compose` over `chord_involution` bit for bit, also with a pivot on
    # the circle (a rank-1 chord map)
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
            chain = ccp_general._compose(chord_involution(circle, P), chain)
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
# the chord walk in the circle's frame and the perspectrix axis


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


def _ends(pivots, seeds):
    """The (seed, end) pair of each seed's walk through the pivots."""
    return [(seed, _walk(seed, pivots)) for seed in seeds]


def _fixed_points(tri, circle, pivots):
    """The two solution vertices the walk through B, C, A returns to: one of
    each closed-form solution, in the circle's frame."""
    return [min((_in_frame(circle, P) for P in vm.cartesian(tri)),
                key=lambda V: abs(_walk(V, pivots) - V))
            for vm in ccp_closed.solutions_for(tri, core.identify_circle(tri, circle))]


def _off_axis(axis, z):
    """Distance of z from the axis (d, moment), the line of the points h
    with Im(conj(h) d) = moment."""
    d, moment = axis
    return abs((z.conjugate() * d).imag - moment) / abs(d)


def _point(meet):
    X, w = meet
    return X / w


def _homog(meet):
    X, w = meet
    return np.array([X.real, X.imag, w])


def test_meet_of_tangents_and_diameters():
    # chord aa is the tangent at a, and chord a(-a) the diameter through a
    a, b, c, d = (_on_unit(t) for t in (0.3, 2.0, -0.5, 2.8))
    tangent_chord = _point(ccp_general._meet(a, a, c, d))
    assert abs((tangent_chord * a.conjugate()).real - 1.0) < 1e-15
    assert core.incidence_residual(np.cross([c.real, c.imag, 1.0], [d.real, d.imag, 1.0]),
                                   [tangent_chord.real, tangent_chord.imag, 1.0]) < 1e-15
    # two tangents meet at the pole of the chord through their points
    assert abs(_point(ccp_general._meet(a, a, b, b)) - 2.0 * a * b / (a + b)) < 1e-15
    # the diameter through a meets the tangent at a in a itself
    assert abs(_point(ccp_general._meet(a, -a, a, a)) - a) < 1e-15
    diameter_chord = _point(ccp_general._meet(a, -a, c, d))
    assert abs((diameter_chord * a.conjugate()).imag) < 1e-15


def test_meet_of_parallel_or_equal_chords():
    # the reflection z -> -conj(z) is the chord map through the point at
    # infinity of the x axis, and its axis is the y axis.  Seeds a and -a
    # give two vertical chords, exactly: their meet is the point at
    # infinity of the y axis, with w = 0, and the axis joins the other two
    a, c = _on_unit(0.7), _on_unit(2.9)
    reflect = lambda z: -z.conjugate()
    ends = [(seed, reflect(seed)) for seed in (a, -a, c)]
    (a1, a4), (b1, b4) = ends[:2]
    X, w = ccp_general._meet(a1, b4, a4, b1)
    assert w == 0.0 and X.real == 0.0 and X.imag != 0.0
    d, moment = ccp_general._axis(ends)
    assert abs(d.real) <= 1e-16 * abs(d) and abs(moment) <= 1e-16 * abs(d)
    # seeds on both fixed points, i and -i: their paths meet on one chord
    # twice, which gives no point at all, (0 : 0); the other two meets are
    # the seeds, and their join is the y axis again
    ends = [(1j, 1j), (-1j, -1j), (c, reflect(c))]
    assert ccp_general._meet(1j, -1j, 1j, -1j) == (0j, 0.0)
    d, moment = ccp_general._axis(ends)
    assert abs(d.real) <= 1e-16 * abs(d) and abs(moment) <= 1e-16 * abs(d)


def test_axis_seed_on_another_paths_end(tri6913):
    # seed b on the end of path a: one chord of their meet is the tangent
    # at a4, and the meet still lies on the axis
    circle, pivots, (t_a, _, t_c) = _chord_setup(tri6913)
    ends = _ends(pivots, (t_a, _walk(t_a, pivots), t_c))
    (a1, a4), (b1, b4) = ends[:2]
    assert b1 == a4
    meet = ccp_general._meet(a1, b4, a4, b1)
    assert abs(meet[1]) > 0.1
    axis = ccp_general._axis(ends)
    for V in _fixed_points(tri6913, circle, pivots):
        assert _off_axis(axis, V) < 1e-14
    assert _off_axis(axis, _point(meet)) < 1e-14


def test_axis_seed_on_solution_vertex(tri6913):
    # a closed path meets each other path in its seed, which lies on the axis
    circle, pivots, (_, t_b, t_c) = _chord_setup(tri6913)
    V, W = _fixed_points(tri6913, circle, pivots)
    ends = _ends(pivots, (V, t_b, t_c))
    assert abs(ends[0][1] - V) < 1e-15
    (a1, a4), (b1, b4), (c1, c4) = ends
    for meet in (ccp_general._meet(a1, b4, a4, b1), ccp_general._meet(a1, c4, a4, c1)):
        assert abs(_point(meet) - V) < 1e-14
    axis = ccp_general._axis(ends)
    assert max(_off_axis(axis, V), _off_axis(axis, W)) < 1e-14


def test_axis_through_seeds_on_both_solution_vertices():
    # two closed paths: their own meet is undefined (the same chord twice),
    # and the two others are the seeds.  The undefined meet is the best
    # separated from one of them, so only the sine between the chords at
    # each meet keeps the axis off it: the join of the undefined meet and
    # the seed on the second vertex lies 0.24 r off the first
    tri = core.triangle_from_sides(6, 9, 13)
    circle, pivots, (_, _, t_c) = _chord_setup(tri, core.EXCIRCLE_C)
    V, W = _fixed_points(tri, circle, pivots)
    (a1, a4), (b1, b4), (c1, c4) = ends = _ends(pivots, (V, W, t_c))
    undefined, at_v, at_w = (ccp_general._meet(a1, b4, a4, b1),
                             ccp_general._meet(a1, c4, a4, c1),
                             ccp_general._meet(b1, c4, b4, c1))
    assert abs(undefined[1]) < 1e-14
    assert abs(_point(at_v) - V) < 1e-14 and abs(_point(at_w) - W) < 1e-14
    assert sin_angle(_homog(undefined), _homog(at_w)) > sin_angle(_homog(at_v), _homog(at_w))
    wrong = np.cross(_homog(undefined), _homog(at_w))
    assert abs(wrong @ [V.real, V.imag, 1.0]) / math.hypot(*wrong[:2]) > 0.2
    axis = ccp_general._axis(ends)
    assert max(_off_axis(axis, V), _off_axis(axis, W)) < 1e-15


def test_cross_point_is_the_meet_of_the_chords(rng):
    for _ in range(100):
        a, b, c, d = (_on_unit(t) for t in rng.uniform(0.0, 2.0 * math.pi, 4))
        homog = lambda z: [z.real, z.imag, 1.0]
        h = _homog(ccp_general._meet(a, b, c, d))
        for p, q in ((a, b), (c, d)):
            assert core.incidence_residual(np.cross(homog(p), homog(q)), h) < 1e-12


def _span(pivots, seeds):
    """The axis's score for these seeds, recomputed with numpy: each chord
    the cross product of its ends (x, y, 1), each meet the cross product of
    its chords, and the best pair of meets by its smallest sine."""
    homog = lambda z: np.array([z.real, z.imag, 1.0])
    meets = []
    for (a1, a4), (b1, b4) in combinations(_ends(pivots, seeds), 2):
        ab, ba = np.cross(homog(a1), homog(b4)), np.cross(homog(a4), homog(b1))
        meets.append((np.cross(ab, ba), sin_angle(ab[:2], ba[:2])))
    return max(min(s, t, sin_angle(h, k)) for (h, s), (k, t) in combinations(meets, 2))


def test_axis_points_sine_threshold(tri6913):
    # seed c a rotation of seed b by delta: the paths b and c approach each
    # other, and with them the three meets, linearly in delta; the axis is
    # refused once no two meets span it to a sine above 1e-9
    _, pivots, (t_a, t_b, _) = _chord_setup(tri6913)
    delta0 = 1e-5
    per_delta = _span(pivots, (-t_a, t_b, t_b * _on_unit(delta0))) / delta0
    for sine, refused in ((0.5e-9, True), (2e-9, False)):
        seeds = (-t_a, t_b, t_b * _on_unit(sine / per_delta))
        assert _span(pivots, seeds) == pytest.approx(sine, rel=0.01)
        if refused:
            with pytest.raises(PathClosed, match="cannot build the axis"):
                ccp_general._axis(_ends(pivots, seeds))
        else:
            ccp_general._axis(_ends(pivots, seeds))


def _reference_scores(ends):
    """The axis's candidates as `ccp_general._axis` formed them before it
    was unrolled: the unit meets of the paths and the pairs of meets, each
    taken by `itertools.combinations`, as (score, (d, moment)) per pair."""
    meets = []
    for (a1, a4), (b1, b4) in combinations(ends, 2):
        X, w = ccp_general._meet(a1, b4, a4, b1)
        size = math.hypot(X.real, X.imag, w) or 1.0
        meets.append((X / size, w / size, abs(w)))
    scores = []
    for (X, w, sine), (Y, v, sine2) in combinations(meets, 2):
        d, moment = w * Y - v * X, X.real * Y.imag - X.imag * Y.real
        scores.append((min(sine, sine2, math.hypot(d.real, d.imag, moment)), (d, moment)))
    return scores


def _reference_axis(ends):
    """The old `_axis`: the first pair whose score beats 1e-9 and every
    score before it, or PathClosed."""
    best, axis = 1e-9, None
    for score, candidate in _reference_scores(ends):
        if score > best:
            best, axis = score, candidate
    if axis is None:
        raise PathClosed("cannot build the axis")
    return axis


def _assert_axis_as_reference(ends):
    try:
        want = _reference_axis(ends)
    except PathClosed:
        with pytest.raises(PathClosed, match="cannot build the axis"):
            ccp_general._axis(ends)
        return
    bits = lambda axis: np.array([axis[0].real, axis[0].imag, axis[1]]).tobytes()
    assert bits(ccp_general._axis(ends)) == bits(want)


def test_unrolled_axis_is_bit_identical_to_combinations(rng):
    # random ends, three paths with no relation between seed and end
    for _ in range(1000):
        ends = [tuple(_on_unit(t) for t in pair)
                for pair in rng.uniform(0.0, 2.0 * math.pi, (3, 2)).tolist()]
        _assert_axis_as_reference(ends)
    # the degenerate ends of the tests above: two vertical chords meeting at
    # infinity, two paths closed on the fixed points (meet (0 : 0)), and
    # seeds on both solution vertices of a real walk
    a, c = _on_unit(0.7), _on_unit(2.9)
    reflect = lambda z: -z.conjugate()
    _assert_axis_as_reference([(seed, reflect(seed)) for seed in (a, -a, c)])
    _assert_axis_as_reference([(1j, 1j), (-1j, -1j), (c, reflect(c))])
    tri = core.triangle_from_sides(6, 9, 13)
    circle, pivots, (_, _, t_c) = _chord_setup(tri, core.EXCIRCLE_C)
    V, W = _fixed_points(tri, circle, pivots)
    _assert_axis_as_reference(_ends(pivots, (V, W, t_c)))
    # all three paths closed on one point: no two meets span the axis
    _assert_axis_as_reference([(a, a)] * 3)


def test_axis_keeps_the_first_of_two_equal_best_scores():
    # chords a1 b4 and a4 b1 at a sine of 0.01, so the meet of paths a and b
    # scores 0.01 against either other meet; path c all but closed at i, so
    # the other two meets lie 1e-4 apart.  The pairs (ab, ac) and (ab, bc)
    # tie exactly, and the axis joins the first
    a1, b4, a4 = _on_unit(0.3), _on_unit(2.0), _on_unit(-1.0)
    ends = [(a1, a4), (a1 * b4 / a4 * _on_unit(0.02), b4), (1j, 1j * _on_unit(1e-4))]
    (first, ab_ac), (second, ab_bc), (third, _) = _reference_scores(ends)
    assert first == second > third > 1e-9
    assert ab_ac != ab_bc
    assert ccp_general._axis(ends) == ab_ac
    _assert_axis_as_reference(ends)


def test_perspectrix_integer_family_matches_closed_form():
    # every integer-sided triangle with sides 1-11 and all four circles, 2,684
    # problems: one seeding builds every axis, a cross point at infinity
    # included, and the vertices agree with the closed form
    problems = 0
    for a, b, c in product(range(1, 12), repeat=3):
        if not (a < b + c and b < c + a and c < a + b):
            continue
        tri = core.triangle_from_sides(a, b, c)
        for tag in core.CIRCLE_TAGS:
            circ = core.tagged_circle(tri, tag)
            persp = np.vstack([s.vertices for s in ccp_general.solve_ccp_perspectrix(tri, circ)])
            closed = np.vstack([vm.cartesian(tri) for vm in ccp_closed.solutions_for(tri, tag)])
            assert set_deviation(closed, persp) <= 1e-12 * circ.radius, (a, b, c, tag)
            problems += 1
    assert problems == 2684


def _record_axis_ends(monkeypatch):
    """Record the touchpoints and the (seed, end) pairs the solver builds."""
    touched, axes = [], []
    real_touch, real_axis = ccp_general._touchpoints, ccp_general._axis
    monkeypatch.setattr(ccp_general, "_touchpoints",
                        lambda *args: touched.append(real_touch(*args)) or touched[-1])
    monkeypatch.setattr(ccp_general, "_axis",
                        lambda ends: axes.append(list(ends)) or real_axis(ends))
    return touched, axes


def test_perspectrix_first_rung_builds_no_rotated_seeds(tri6913, monkeypatch):
    # the one seeding is the old ladder's first rung: two touchpoints and the
    # antipode of the third, none multiplied by a rotation, and one axis per
    # circle with no retry
    touched, axes = _record_axis_ends(monkeypatch)
    for tri in (tri6913, core.triangle_from_sides(3, 4, 5)):
        for tag in core.CIRCLE_TAGS:
            ccp_general.solve_ccp_perspectrix(tri, core.tagged_circle(tri, tag))
    assert len(touched) == len(axes) == 8
    for (t_a, t_b, t_c), ends in zip(touched, axes):
        assert [seed for seed, _ in ends] == [-t_a, t_b, t_c]


# the seedings the old ladder fell back on, as maps of the touchpoints
_LATER_RUNGS = (
    lambda t_a, t_b, t_c: (t_a, -t_b, -t_c),
    lambda t_a, t_b, t_c: (-t_a, -t_b, t_c),
) + tuple(
    (lambda turn: lambda t_a, t_b, t_c: (t_a * turn, t_b * turn, t_c * turn))(_on_unit(angle))
    for angle in (0.37, 0.91, 1.53)
)


@pytest.mark.parametrize("failing", range(1, 6))
def test_perspectrix_later_rungs_match_closed_form(tri6913, monkeypatch, failing):
    # the axis is the walk's, not the seeds': seeded as the old ladder's rung
    # failing + 1, the one construction still solves the incircle in one axis
    rung, real_touch = _LATER_RUNGS[failing - 1], ccp_general._touchpoints
    touched, axes = _record_axis_ends(monkeypatch)

    def reseeded(*args):
        # the solver seeds (-t_a, t_b, t_c), so hand it touchpoints that give the rung
        touched.append(real_touch(*args))
        s_a, s_b, s_c = rung(*touched[-1])
        return -s_a, s_b, s_c

    monkeypatch.setattr(ccp_general, "_touchpoints", reseeded)
    circ = core.tagged_circle(tri6913, core.INCIRCLE)
    p1, p2 = ccp_general.solve_ccp_perspectrix(tri6913, circ)
    assert len(touched) == len(axes) == 1
    assert [seed for seed, _ in axes[0]] == list(rung(*touched[0]))
    vm1, vm2 = ccp_closed.incircle_solutions(tri6913)
    closed = np.vstack([vm1.cartesian(tri6913), vm2.cartesian(tri6913)])
    pers = np.vstack([p1.cartesian(tri6913), p2.cartesian(tri6913)])
    assert set_deviation(closed, pers) < 1e-9 * circ.radius


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
    ((1e-10, 0.5e-8), 1),  # |gp| < 1e-8 even where the step would stay local
    ((1e-10, 2e-8), 4),  # |gp| >= 1e-8: steps of 0.005 rad run to the cap
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
