import os
import subprocess
import sys

import numpy as np
import pytest

import castillon
from castillon import brocard, centers, core
from castillon.errors import UnknownCenter

from oracles import is_infinite_bary, report_passed, sin_angle

REQUIRED = (1, 2, 3, 4, 6, 7, 15, 16, 20, 175, 176, 187, 279, 371, 372, 390,
            481, 482, 511, 512, 514, 516, 1151, 1152, 1350, 3053)


def test_registry_covers_required_indices():
    registry = set(centers.registry_indices())
    assert set(REQUIRED) <= registry


def test_unknown_center_raises(tri345):
    with pytest.raises(UnknownCenter):
        centers.center(99999, tri345)


def test_centroid_and_gergonne(tri345, tri6913):
    assert sin_angle(centers.center(2, tri345), [1, 1, 1]) < 1e-15
    assert sin_angle(centers.center(7, tri6913), [1 / 8, 1 / 5, 1.0]) < 1e-14


def test_homogeneity_all_registry(tri345):
    a, b, c = tri345.sides
    scaled = core.triangle_from_sides(2 * a, 2 * b, 2 * c)
    for idx in centers.registry_indices():
        assert sin_angle(centers.center(idx, tri345), centers.center(idx, scaled)) < 1e-10, idx


def test_permutation_equivariance(tri6913):
    # relabeling (a,b,c) -> (b,c,a) must rotate the barycentrics
    a, b, c = tri6913.sides
    relabeled = core.triangle_from_sides(b, c, a)
    for idx in centers.registry_indices():
        rotated = centers.center(idx, relabeled)
        direct = centers.center(idx, tri6913)
        assert sin_angle(np.roll(direct, -1), rotated) < 1e-9, idx


# --- defining-property tests -------------------------------------------------


def test_incenter_property(tri6913):
    P = core.bary_to_cartesian(centers.center(1, tri6913), tri6913)
    d = [core.point_line_distance(P, line) for line in core.side_lines(tri6913)]
    assert max(d) - min(d) < 1e-12


def test_circumcenter_property(tri6913):
    P = core.bary_to_cartesian(centers.center(3, tri6913), tri6913)
    d = [np.linalg.norm(P - V) for V in tri6913.vertices]
    assert max(d) - min(d) < 1e-12


def test_orthocenter_property(tri6913):
    t = tri6913
    P = core.bary_to_cartesian(centers.center(4, t), t)
    A, B, C = t.vertices
    assert abs(float((P - A) @ (B - C))) < 1e-10
    assert abs(float((P - B) @ (C - A))) < 1e-10


def test_symmedian_distance_property(tri345):
    # distances to the sides are proportional to the sidelengths
    t = tri345
    P = core.bary_to_cartesian(centers.center(6, t), t)
    ratios = [core.point_line_distance(P, line) / s
              for line, s in zip(core.side_lines(t), t.sides)]
    assert max(ratios) - min(ratios) < 1e-12


def test_gergonne_cevian_property(tri6913):
    # cevians through the intouch points concur at X7
    t = tri6913
    inc = core.tagged_circle(t, core.INCIRCLE)
    X7 = core.bary_to_cartesian(centers.center(7, t), t)
    A, B, C = t.vertices
    for V, (P, Q) in zip((A, B, C), ((B, C), (C, A), (A, B))):
        d = Q - P
        touch = P + ((inc.center - P) @ d) / (d @ d) * d  # foot from the incenter
        assert core.point_line_distance(X7, core.cart_line(V, touch)) < 1e-10


def test_isodynamic_property(tri6913):
    t = tri6913
    for idx in (15, 16):
        P = core.bary_to_cartesian(centers.center(idx, t), t)
        vals = [s * np.linalg.norm(P - V) for s, V in zip(t.sides, t.vertices)]
        assert max(vals) - min(vals) < 1e-10 * max(vals)


def test_de_longchamps_reflection(tri345):
    t = tri345
    X3 = core.bary_to_cartesian(centers.center(3, t), t)
    X4 = core.bary_to_cartesian(centers.center(4, t), t)
    X20 = core.bary_to_cartesian(centers.center(20, t), t)
    assert np.linalg.norm(X20 - (2 * X3 - X4)) < 1e-12


@pytest.mark.parametrize("sides", [(3, 4, 5), (6, 9, 13), (1.48, 1.85, 1.32)])
def test_equal_detour_property(sides):
    # inner Soddy center: |PA| - (s-a) equal over the vertices
    t = core.triangle_from_sides(*sides)
    P = core.bary_to_cartesian(centers.center(176, t), t)
    vals = [np.linalg.norm(P - V) - q for V, q in zip(t.vertices, (t.u, t.v, t.w))]
    assert max(vals) - min(vals) < 1e-12
    assert min(vals) > 0


def test_isoperimetric_property():
    # outer Soddy center: |PA| + (s-a) equal, on a triangle where the outer
    # Soddy circle has positive curvature
    t = core.triangle_from_sides(1.48, 1.85, 1.32)
    P = core.bary_to_cartesian(centers.center(175, t), t)
    vals = [np.linalg.norm(P - V) + q for V, q in zip(t.vertices, (t.u, t.v, t.w))]
    assert max(vals) - min(vals) < 1e-12


def test_soddy_centers_on_soddy_line(tri6913):
    t = tri6913
    line = core.line_through(centers.center(1, t), centers.center(7, t))
    for idx in (175, 176, 390, 481, 482, 1323, 20):
        assert core.incidence_residual(line, centers.center(idx, t)) < 1e-10, idx


def test_brocard_axis_membership(tri6913):
    t = tri6913
    line = core.line_through(centers.center(3, t), centers.center(6, t))
    for idx in (15, 16, 187, 371, 372, 511, 1151, 1152, 1350, 3053):
        assert core.incidence_residual(line, centers.center(idx, t)) < 1e-10, idx


def test_schoute_center_is_axis_lemoine_meet(tri345):
    t = tri345
    a, b, c = t.sides
    axis = core.line_through(centers.center(3, t), centers.center(6, t))
    lemoine = np.array([1 / a ** 2, 1 / b ** 2, 1 / c ** 2])
    meet = core.line_through(axis, lemoine)
    assert sin_angle(centers.center(187, t), meet) < 1e-12


def test_x279_is_barycentric_square_of_x7(tri6913):
    t = tri6913
    x7 = centers.center(7, t)
    assert sin_angle(centers.center(279, t), x7 * x7) < 1e-13


def test_infinity_points(tri6913):
    t = tri6913
    for idx in (511, 512, 514, 516):
        assert is_infinite_bary(centers.center(idx, t)), idx
    # X512 is on the Lemoine axis, X514 on the Gergonne line
    a, b, c = t.sides
    assert core.incidence_residual(np.array([1 / a ** 2, 1 / b ** 2, 1 / c ** 2]),
                                   centers.center(512, t)) < 1e-12
    assert core.incidence_residual(np.array([t.u, t.v, t.w]),
                                   centers.center(514, t)) < 1e-12


def test_fletcher_point_on_both_lines(tri6913):
    t = tri6913
    soddy = core.line_through(centers.center(1, t), centers.center(7, t))
    gergonne_line = np.array([t.u, t.v, t.w])
    X1323 = centers.center(1323, t)
    assert core.incidence_residual(soddy, X1323) < 1e-12
    assert core.incidence_residual(gergonne_line, X1323) < 1e-12


def test_fletcher_point_bit_identical_to_np_cross(triangles_100):
    for t in triangles_100:
        s = t.s
        soddy = np.cross(centers.center(1, t), centers.center(7, t))
        want = np.cross(soddy, np.array([s - t.a, s - t.b, s - t.c]))
        assert np.array_equal(centers.center(1323, t), want)


# --- correspondences ---------------------------------------------------------


def test_pair_file_complete():
    pairs = centers.correspondence_pairs()
    assert len(pairs) == 56
    assert (3, 1) in pairs and (43121, 31569) in pairs


def test_correspondences_fixed_triangles(tri6913, tri345):
    for t in (tri6913, tri345):
        rep = centers.verify_correspondences(t)
        assert report_passed(rep)
        assert len(rep.checks) == 56
        assert sum(not c.skipped for c in rep.checks) >= 10
        # data-only pairs are reported as skipped checks, never failed
        skipped = [c for c in rep.checks if c.skipped]
        assert skipped
        for c in skipped:
            assert c.note == "data-only" and c.passed


def test_correspondences_sweep(triangles_100):
    for t in triangles_100[:40]:
        rep = centers.verify_correspondences(t)
        assert report_passed(rep), [(c.name, c.residual) for c in rep.checks if not c.passed]


def test_infinity_pair_direction_equality(tri6913):
    # [511, 516]: direction of the solutions' Brocard axis equals the
    # direction of the reference's Soddy line
    from castillon import ccp_closed
    t = tri6913
    vm1, _ = ccp_closed.incircle_solutions(t)
    sol = core.triangle_from_vertices(vm1.cartesian(t))
    d_sol = core.convert_bary(centers.center(511, sol), sol, t)
    d_ref = centers.center(516, t)
    assert is_infinite_bary(d_sol)
    assert sin_angle(d_sol, d_ref) < 1e-9


def _fresh_python(*args):
    """Run a new interpreter on this test's package."""
    package_root = os.path.dirname(os.path.dirname(castillon.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [package_root, os.environ.get("PYTHONPATH")]))}
    return subprocess.run([sys.executable, *args], capture_output=True, text=True, env=env)


@pytest.mark.parametrize("module", ["castillon.centers", "castillon.brocard"])
def test_module_imports_alone(module):
    # brocard takes its centers from the registry and centers verifies
    # brocard reports, so each imports the other; either may come first.
    # -X importtime reports a module first when its code finishes running,
    # so the named module finishing last means its own import ran the others
    proc = _fresh_python("-X", "importtime", "-c", f"import {module}")
    assert proc.returncode == 0, proc.stderr
    reported = [line.rsplit("|", 1)[1].strip() for line in proc.stderr.splitlines()
                if line.startswith("import time:") and "|" in line]
    finished = list(dict.fromkeys(n for n in reported if n.startswith("castillon.")))
    assert finished[-1] == module, finished


def test_core_imports_only_errors():
    # the package itself exports nothing, so it imports none of its modules
    proc = _fresh_python("-c", "import sys, castillon.core; "
                               "print(*sorted(m for m in sys.modules if m.startswith('castillon')))")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["castillon", "castillon.core", "castillon.errors"]


def test_registry_batch_rows_match_single_triangles(triangles_100):
    # every formula is elementwise in the sides, so row i of a batch is the
    # triangle alone to the bit; _normalized sums per triangle, X1323 takes
    # its cross products per row
    batch = core.stack_triangles(triangles_100)
    for idx in centers.registry_indices():
        rows = centers.center(idx, batch)
        assert rows.shape == (100, 3), idx
        for i, t in enumerate(triangles_100):
            assert np.array_equal(rows[i], centers.center(idx, t)), (idx, t.sides)


def test_correspondence_batch_rows_match_single_triangles(tri6913, equilateral):
    # 300 draws: each check's residual for row i of one batch equals the
    # triangle evaluated alone, bit for bit; the equilateral row skips its
    # undefined pairs in that row only
    from castillon import sampling
    rng = np.random.default_rng(20261018)
    tris = [sampling.random_triangle(rng) for _ in range(300)] + [tri6913, equilateral]
    rep = centers.verify_correspondences(core.stack_triangles(tris))
    assert rep.note == "11 verified, 45 data-only"
    for i, t in enumerate(tris):
        alone = centers.verify_correspondences(t)
        for c, s in zip(rep.checks, alone.checks, strict=True):
            assert c.name == s.name
            assert np.broadcast_to(c.residual, (len(tris),))[i] == s.residual, (c.name, t.sides)
    assert report_passed(rep)
    skipped = {c.name: np.flatnonzero(np.broadcast_to(c.skipped, (len(tris),)))
               for c in rep.checks if c.note != "data-only"}
    assert {name for name, rows in skipped.items() if len(rows)} == {
        "pair [187,1323]", "pair [511,516]", "pair [512,514]"}
    assert all(list(rows) in ([], [len(tris) - 1]) for rows in skipped.values())


def test_equilateral_skips_only_its_own_row(equilateral, rng):
    # the pairs with a center that vanishes on an equilateral triangle skip
    # exactly the rows whose incircle solutions are equilateral
    from castillon import sampling
    tris = [equilateral] + [sampling.random_triangle(rng) for _ in range(20)]
    rep = centers.verify_correspondences(core.stack_triangles(tris))
    assert report_passed(rep) and rep.note == "11 verified, 45 data-only"
    skipped = np.zeros(len(tris), dtype=bool)
    for c in rep.checks:
        if c.note != "data-only":
            skipped |= c.skipped
    assert np.flatnonzero(skipped).tolist() == [0]
    undefined = {i for i in centers.registry_indices()
                 if centers.center_definition(i).equilateral_undefined}
    assert undefined == {16, 187, 511, 512, 514, 516, 1323}
    assert all(np.abs(centers.center(i, equilateral)).max() == 0.0 for i in undefined)
