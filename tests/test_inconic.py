import numpy as np
import pytest

from castillon import brocard, ccp_closed, core, inconic
from castillon.errors import GeometryError, NonEllipse
from castillon.sampling import random_triangle

from conftest import set_deviation
from oracles import (
    circle_tangency_residual,
    circle_to_conic,
    conic_from_tangent_lines,
    conic_point_residual,
    random_interior_perspector,
    sin_angle,
)


def test_gergonne_perspector_gives_incircle(tri345):
    t = tri345
    spec = inconic.inconic_from_perspector([1 / t.u, 1 / t.v, 1 / t.w], t)
    incircle_conic = circle_to_conic(core.tagged_circle(t, core.INCIRCLE))
    assert sin_angle(spec.conic.m, incircle_conic.m) < 1e-10


def test_centroid_perspector_gives_steiner_inellipse(tri345):
    t = tri345
    spec = inconic.inconic_from_perspector([1.0, 1.0, 1.0], t)
    A, B, C = t.vertices
    for M in ((B + C) / 2, (C + A) / 2, (A + B) / 2):
        assert conic_point_residual(spec.conic, core.homog(M)) < 1e-12
    assert core.tangency_residual(spec.conic, core.side_lines(t)) < 1e-10


def test_symmedian_perspector_gives_brocard_inellipse(tri345):
    t = tri345
    a, b, c = t.sides
    spec = inconic.inconic_from_perspector([a * a, b * b, c * c], t)
    reference_ellipse = brocard.brocard_inellipse(brocard.brocard_frame(t))
    assert sin_angle(spec.conic.m, reference_ellipse.m) < 1e-10
    # foci are the reference's Brocard points
    f = brocard.brocard_frame(t)
    got_center = core.ellipse_axes(spec.conic).center
    assert np.linalg.norm(got_center - 0.5 * (f.Omega1_cart + f.Omega2_cart)) < 1e-10


def test_mixed_sign_perspector_rejected(tri345):
    with pytest.raises(NonEllipse):
        inconic.inconic_from_perspector([1.0, -1.0, 1.0], tri345)


def _image_triangle(spec, tri):
    """Reference triangle under the circularizing map, which sends the
    inconic to the unit circle at the origin."""
    W, center = inconic.circularizing_map(spec)
    return core.triangle_from_vertices(np.array([W @ V - W @ center for V in tri.vertices]))


def _assert_unit_incircle(image):
    circle = core.tagged_circle(image, core.INCIRCLE)
    assert np.linalg.norm(circle.center) < 1e-10 and abs(circle.radius - 1.0) < 1e-10


def test_incircle_input_circularizes_to_similarity(tri345):
    t = tri345
    spec = inconic.inconic_from_perspector([1 / t.u, 1 / t.v, 1 / t.w], t)
    W, _ = inconic.circularizing_map(spec)
    _assert_unit_incircle(_image_triangle(spec, t))
    # similarity: W proportional to an orthogonal matrix
    prod = W @ W.T
    assert np.linalg.norm(prod - prod[0, 0] * np.eye(2)) < 1e-12 * abs(prod[0, 0])


def test_steiner_circularizes_to_equilateral(tri345):
    spec = inconic.inconic_from_perspector([1.0, 1.0, 1.0], tri345)
    image = _image_triangle(spec, tri345)
    sides = image.sides
    assert max(sides) - min(sides) < 1e-9 * max(sides)
    _assert_unit_incircle(image)


def test_random_perspector_tangency(tri6913, rng):
    for _ in range(10):
        spec = inconic.inconic_from_perspector(random_interior_perspector(rng), tri6913)
        image = _image_triangle(spec, tri6913)
        unit = core.CircleData(np.zeros(2), 1.0)
        for line in core.side_lines(image):
            assert circle_tangency_residual(unit, line) < 1e-10


def test_identity_transport_for_incircle(tri6913):
    t = tri6913
    spec = inconic.inconic_from_perspector([1 / t.u, 1 / t.v, 1 / t.w], t)
    sols = inconic.solve_ccp_inconic(spec, t)
    closed = np.vstack([vm.cartesian(t) for vm in ccp_closed.incircle_solutions(t)])
    got = np.vstack(sols.triangles)
    assert set_deviation(closed, got) < 1e-9 * t.r
    # returned conic is the solutions' shared inellipse
    sol_tri = core.triangle_from_vertices(ccp_closed.incircle_solutions(t)[0].cartesian(t))
    shared = brocard.brocard_inellipse(brocard.brocard_frame(sol_tri))
    assert sin_angle(sols.conic.m, shared.m) < 1e-9


def test_steiner_solutions_tangent_to_single_conic(tri345):
    spec = inconic.inconic_from_perspector([1.0, 1.0, 1.0], tri345)
    sols = inconic.solve_ccp_inconic(spec, tri345)
    assert sols.tangency_residual < 1e-8
    assert sols.incidence_residual < 1e-9
    # every leave-one-out five-line fit recovers the same conic
    sides = [core.cart_line(v[i], v[(i + 1) % 3])
             for v in sols.triangles for i in range(3)]
    dual = core.adjugate3(sols.conic.m)
    for skip in range(6):
        fit = conic_from_tangent_lines(
            [s for i, s in enumerate(sides) if i != skip])
        assert sin_angle(fit.m, dual) < 1e-7


def _on_inconic_residual(P, tri, perspector) -> float:
    """Normalized value of sum (x/p)^2 - 2 sum (y/q)(z/r) at P's barycentrics,
    the inconic with perspector p:q:r (as the benchmark's checker reads it)."""
    M = np.vstack([tri.vertices.T, np.ones(3)])
    q = np.linalg.solve(M, np.array([P[0], P[1], 1.0])) / np.asarray(perspector, float)
    f = q @ q - 2.0 * (q[1] * q[2] + q[2] * q[0] + q[0] * q[1])
    return abs(f) / float(np.abs(q).sum()) ** 2


def test_transport_sweep(rng):
    for _ in range(8):
        t = random_triangle(rng)
        for _ in range(5):
            perspector = random_interior_perspector(rng)
            spec = inconic.inconic_from_perspector(perspector, t)
            sols = inconic.solve_ccp_inconic(spec, t)
            assert sols.tangency_residual < 1e-8
            assert sols.incidence_residual < 1e-9
            # independent oracle: every vertex is on the inconic
            for verts in sols.triangles:
                for P in verts:
                    assert _on_inconic_residual(P, t, perspector) <= 1e-12
            # the conic fitted to five of the six sides is the returned one
            fit = conic_from_tangent_lines(
                [core.cart_line(v[i], v[(i + 1) % 3])
                 for v in sols.triangles for i in range(3)][:5])
            assert sin_angle(fit.m, core.adjugate3(sols.conic.m)) < 1e-7


def test_tangency_preserved_for_arbitrary_tangents(tri6913):
    # any tangent of the image inellipse pulls back to a tangent of the
    # returned conic, not just the six solution sides
    import math
    t = tri6913
    spec = inconic.inconic_from_perspector([3.0, 1.0, 2.0], t)
    W, inconic_center = inconic.circularizing_map(spec)
    H = np.eye(3)
    H[:2, :2] = W
    H[:2, 2] = -W @ inconic_center
    image = _image_triangle(spec, t)
    vms = ccp_closed.incircle_solutions(image)
    image_ell = brocard.brocard_inellipse(brocard.brocard_frame(
        core.triangle_from_vertices(vms[0].cartesian(image))))
    sols = inconic.solve_ccp_inconic(spec, t)
    for theta in np.linspace(0.0, 2 * math.pi, 12, endpoint=False):
        # tangent of the image ellipse at parameter theta via its dual conic:
        # lines L with L^T N L = 0 through the point of tangency
        center, (a_e, b_e), _ = core.ellipse_axes(image_ell)
        M2 = image_ell.m[:2, :2]
        _, vecs = np.linalg.eigh(M2)
        direction = vecs[:, 0]
        rot = np.array([[direction[0], -direction[1]], [direction[1], direction[0]]])
        P = center + rot @ np.array([a_e * math.cos(theta), b_e * math.sin(theta)])
        line = image_ell.m @ core.homog(P)  # polar of a conic point = tangent
        assert core.tangency_residual(image_ell, [line]) < 1e-10
        pulled = H.T @ line  # lines pull back with H^T
        assert core.tangency_residual(sols.conic, [pulled]) < 1e-9


def test_near_side_perspector_solves(tri6913):
    # perspector near A: the inconic touches AB and CA within ~1e-6 of A
    spec = inconic.inconic_from_perspector([1.0, 1e-6, 1e-6], tri6913)
    sols = inconic.solve_ccp_inconic(spec, tri6913)
    assert sols.incidence_residual <= 1e-9


def test_near_side_tangency(tri6913):
    # the former circularize-and-pull-back route measured 3.59e-9 here
    spec = inconic.inconic_from_perspector([1.0, 2.0, 1e-4], tri6913)
    sols = inconic.solve_ccp_inconic(spec, tri6913)
    assert sols.tangency_residual < 3.59e-9


def test_thin_inconic_fails_tangency_check(tri6913):
    spec = inconic.inconic_from_perspector([1.0, 2.0, 1e-6], tri6913)
    with pytest.raises(GeometryError, match="common conic misses a solution side"):
        inconic.solve_ccp_inconic(spec, tri6913)
