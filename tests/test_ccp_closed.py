import math

import numpy as np
import pytest

from castillon import ccp_closed, ccp_general, core, sampling
from castillon.ccp_closed import PHI, SignedSides
from castillon.errors import InfinitePoint, SeedMismatch

from conftest import set_deviation
from oracles import (circle_center, golden_coefficients, incircle_vertices, pair_rows,
                     signed_uvw, sin_angle, solution_pair)

PHI_CONJ = (1.0 - math.sqrt(5.0)) / 2.0


def test_golden_identities():
    t1, t2 = golden_coefficients(PHI)
    assert np.array_equal(ccp_closed.T1, t1) and np.array_equal(ccp_closed.T2, t2)
    (sq_phi, _, sq_phi_m1), (sq_phi_m2, _, _), _ = ccp_closed.T1.tolist()
    assert abs(sq_phi - (PHI + 1.0)) < 1e-15
    assert abs(sq_phi_m1 - (2.0 - PHI)) < 1e-15
    assert abs(sq_phi_m2 - sq_phi_m1 ** 2) < 1e-15  # (phi-2)^2 = (phi-1)^4


def test_equilateral_first_row_proportions(equilateral):
    # u = v = w, so the first row of the first solution is [phi^2, 1, (phi-1)^2]
    vm1, _ = ccp_closed.incircle_solutions(equilateral)
    expected = np.array([PHI ** 2, 1.0, (PHI - 1.0) ** 2])
    assert sin_angle(vm1.rows[0], expected) < 1e-14


def test_vertices_on_incircle_6913(tri6913):
    # r = area / s with area = sqrt(14*8*5*1)
    circ = core.tagged_circle(tri6913, core.INCIRCLE)
    assert abs(circ.radius - math.sqrt(14 * 8 * 5) / 14) < 1e-14
    for vm in ccp_closed.incircle_solutions(tri6913):
        for P in vm.cartesian(tri6913):
            assert abs(np.linalg.norm(P - circ.center) - circ.radius) \
                < 1e-10 * circ.radius


def test_cross_oracle_against_parameter_solver(tri6913):
    circ = core.tagged_circle(tri6913, core.INCIRCLE)
    sols = ccp_general.solve_ccp_mobius(ccp_general.CcpProblem.on_triangle(tri6913, circ))
    closed = np.vstack([vm.cartesian(tri6913)
                        for vm in ccp_closed.incircle_solutions(tri6913)])
    mob = np.vstack([s.vertices for s in sols])
    assert set_deviation(closed, mob) < 1e-9 * circ.radius


def test_side_incidence_pattern(triangles_100):
    # side row_i-row_{i+1} passes through A, B, C in turn for the incircle
    E = np.eye(3)
    for t in triangles_100[:20]:
        for vm in ccp_closed.incircle_solutions(t):
            for i, vertex in enumerate(E):
                line = np.cross(vm.rows[i], vm.rows[(i + 1) % 3])
                assert core.incidence_residual(line, vertex) < 1e-10


def test_excircle_solutions_on_circle_345(tri345):
    circ = core.tagged_circle(tri345, core.EXCIRCLE_A)
    assert abs(circ.radius - 2.0) < 1e-14
    for vm in ccp_closed.excircle_solutions(tri345, "A"):
        for P in vm.cartesian(tri345):
            assert abs(np.linalg.norm(P - circ.center) - 2.0) < 1e-10 * 2.0


def test_excircle_cross_oracle_345(tri345):
    circ = core.tagged_circle(tri345, core.EXCIRCLE_A)
    sols = ccp_general.solve_ccp_mobius(ccp_general.CcpProblem.on_triangle(tri345, circ))
    closed = np.vstack([vm.cartesian(tri345)
                        for vm in ccp_closed.excircle_solutions(tri345, "A")])
    assert set_deviation(closed, np.vstack([s.vertices for s in sols])) \
        < 1e-9 * circ.radius


def test_equilateral_excircle_rotation_symmetry(equilateral):
    t = equilateral
    center = t.vertices.mean(axis=0)
    rot = np.array([[math.cos(2 * math.pi / 3), -math.sin(2 * math.pi / 3)],
                    [math.sin(2 * math.pi / 3), math.cos(2 * math.pi / 3)]])
    va = np.vstack([vm.cartesian(t) for vm in ccp_closed.excircle_solutions(t, "A")])
    vb = np.vstack([vm.cartesian(t) for vm in ccp_closed.excircle_solutions(t, "B")])
    # the triangle's rotation symmetry permutes the three excircle pictures
    rotated = (va - center) @ rot.T + center
    vc = np.vstack([vm.cartesian(t) for vm in ccp_closed.excircle_solutions(t, "C")])
    assert min(set_deviation(rotated, vb), set_deviation(rotated, vc)) < 1e-10


# ---------------------------------------------------------------------------
# exversion


def test_exversion_of_incenter(tri6913):
    sd = SignedSides.from_triangle(tri6913).exverted("A")
    incenter = np.array([sd.a, sd.b, sd.c])
    assert sin_angle(incenter, [-tri6913.a, tri6913.b, tri6913.c]) < 1e-15


def test_exversion_of_gergonne_matches_displayed_triple(tri6913):
    # A-exverted [1/u : 1/v : 1/w] equals [(b-s)(c-s), (b-s)s, (c-s)s]
    t = tri6913
    sd = SignedSides.from_triangle(t).exverted("A")
    u, v, w = signed_uvw(sd)
    exverted = np.array([v * w, u * w, u * v])
    s = t.s
    displayed = np.array([(t.b - s) * (t.c - s), (t.b - s) * s, (t.c - s) * s])
    assert sin_angle(exverted, displayed) < 1e-14


def test_double_exversion_is_identity(tri345):
    sd = SignedSides.from_triangle(tri345)
    twice = sd.exverted("B").exverted("B")
    assert (twice.a, twice.b, twice.c) == (sd.a, sd.b, sd.c)
    assert np.allclose(pair_rows(twice, core.INCIRCLE)[0], pair_rows(sd, core.INCIRCLE)[0])


def test_exversion_of_a_batch(triangles_100):
    # each row of an exverted batch is that triangle's exverted triple
    tris = triangles_100[:10]
    batch = SignedSides.from_triangle(core.stack_triangles(tris))
    for vertex in "ABCabc":
        out = batch.exverted(vertex)
        rows = [SignedSides.from_triangle(t).exverted(vertex) for t in tris]
        assert np.array_equal(np.array(out).T, np.array(rows))
    for vertex in ("D", "", "AB"):
        with pytest.raises(ValueError):
            batch.exverted(vertex)


# ---------------------------------------------------------------------------
# symmedian


def test_symmedian_is_reference_gergonne_6913(tri6913):
    vm1, vm2 = ccp_closed.incircle_solutions(tri6913)
    expected = np.array([1 / 8, 1 / 5, 1.0])  # [1/u : 1/v : 1/w]
    s1 = ccp_closed.solution_symmedian(vm1, tri6913)
    s2 = ccp_closed.solution_symmedian(vm2, tri6913)
    assert sin_angle(s1, expected) < 1e-10
    assert sin_angle(s2, expected) < 1e-10
    assert sin_angle(s1, s2) < 1e-12


def test_excircle_symmedian_is_exverted_gergonne(tri6913):
    t = tri6913
    s = t.s
    displayed = np.array([(t.b - s) * (t.c - s), (t.b - s) * s, (t.c - s) * s])
    for vm in ccp_closed.excircle_solutions(t, "A"):
        got = ccp_closed.solution_symmedian(vm, t)
        assert sin_angle(got, displayed) < 1e-10


# ---------------------------------------------------------------------------
# twenty-three from one


def test_seed_is_a_solution_vertex(tri6913):
    seed = ccp_closed.generator_seed(tri6913)
    _, vm2 = ccp_closed.incircle_solutions(tri6913)
    assert sin_angle(seed, vm2.rows[2]) < 1e-14


def test_seed_mismatch_raises(tri6913):
    with pytest.raises(SeedMismatch):
        ccp_closed.twenty_three_from_one(np.array([1.0, 1.0, 1.0]), tri6913)


def test_bicentric_swap_crosses_to_other_solution(tri6913):
    # the bicentric swap of the seed is the other solution's A-vertex
    gen = ccp_closed.twenty_three_from_one(ccp_closed.generator_seed(tri6913), tri6913)
    swapped = next(g for g in gen
                   if g.circle == core.INCIRCLE and g.label == "T1" and g.vertex == "A")
    vm1, _ = ccp_closed.incircle_solutions(tri6913)
    assert swapped.row == 2
    assert sin_angle(swapped.coords, vm1.rows[2]) < 1e-12


def test_a_exversion_of_seed_matches_displayed_excircle_vertex(tri6913):
    # the A-exverted seed equals [(c-s)(s-b)(phi-1)^2, (s-b)s, (s-c)s(phi-2)^2],
    # the first row of the first A-excircle solution matrix
    t = tri6913
    gen = ccp_closed.twenty_three_from_one(ccp_closed.generator_seed(t), t)
    got = next(g for g in gen
               if g.circle == core.EXCIRCLE_A and g.label == "T1" and g.vertex == "A")
    s = t.s
    displayed = np.array([
        (t.c - s) * (s - t.b) * (PHI - 1) ** 2,
        (s - t.b) * s,
        (s - t.c) * s * (PHI - 2) ** 2,
    ])
    assert got.row == 0
    assert sin_angle(got.coords, displayed) < 1e-12
    e1, _ = ccp_closed.excircle_solutions(t, "A")
    assert sin_angle(got.coords, e1.rows[0]) < 1e-12


def test_all_24_vertices_match_matrix_rows(triangles_100):
    for t in triangles_100[:30]:
        gen = ccp_closed.twenty_three_from_one(ccp_closed.generator_seed(t), t)
        assert len(gen) == 24
        labels = {(g.circle, g.label, g.row) for g in gen}
        assert len(labels) == 24
        mats = {}
        for tag in core.CIRCLE_TAGS:
            for vm in ccp_closed.solutions_for(t, tag):
                mats[(tag, vm.label)] = vm.rows
        for g in gen:
            assert sin_angle(g.coords, mats[(g.circle, g.label)][g.row]) < 1e-10


def _twenty_three_numpy(tri):
    """The 24 coordinates by the numpy pipeline the float one replaced:
    `pair_rows` incircle rows, `np.roll` and fancy indexing, in generator
    order."""
    cyc = lambda f: lambda sd: np.roll(f(sd.rotated()), 1)
    bic = lambda f: lambda sd: f(sd.swapped_bc())[[0, 2, 1]]
    base = lambda sd: pair_rows(sd, core.INCIRCLE)[1][2]
    sd = SignedSides.from_triangle(tri)
    out = []
    for formula in (base, bic(base)):
        for _ in "ABC":
            out.append(formula(sd))
            out += [formula(sd.exverted(exc)) for exc in "ABC"]
            formula = cyc(formula)
    return out


def test_twenty_three_bit_identical_to_numpy_pipeline(triangles_100, equilateral):
    # the same products in the same order, so the floats are equal, not close
    for t in triangles_100 + [equilateral]:
        gen = ccp_closed.twenty_three_from_one(ccp_closed.generator_seed(t), t)
        assert [g.coords for g in gen] == [tuple(r.tolist()) for r in _twenty_three_numpy(t)]
        assert ccp_closed.generator_seed(t) == tuple(
            ccp_closed.incircle_solutions(t)[1].rows[2].tolist())


def test_equilateral_four_concyclic_sextets(equilateral):
    t = equilateral
    gen = ccp_closed.twenty_three_from_one(ccp_closed.generator_seed(t), t)
    for tag in core.CIRCLE_TAGS:
        circ = core.tagged_circle(t, tag)
        pts = [core.bary_to_cartesian(g.coords, t) for g in gen if g.circle == tag]
        assert len(pts) == 6
        for P in pts:
            assert abs(np.linalg.norm(P - circ.center) - circ.radius) \
                < 1e-10 * circ.radius


@pytest.mark.parametrize("tag", core.CIRCLE_TAGS)
def test_pair_in_one_pass_bit_identical(tag):
    # both solutions of a circle come from one stacked matmul; each row of a
    # batch, and each triangle alone, gives the bits of one solution's own
    # matmul and division, the formula evaluated one solution at a time
    rng = np.random.default_rng(20261019)
    tris = [sampling.random_triangle(rng) for _ in range(81)]
    batch = ccp_closed.solutions_for(core.stack_triangles(tris), tag)
    for i, t in enumerate(tris):
        alone = ccp_closed.solutions_for(t, tag)
        assert [vm.label for vm in alone] == ["T1", "T2"]
        for vm, vb in zip(alone, batch):
            want = (vm.rows @ t.vertices) / vm.rows.sum(axis=-1)[..., None]
            assert vm.cartesian(t) is vm.vertices
            assert vm.vertices.tobytes() == want.tobytes()
            assert vb.rows[i].tobytes() == vm.rows.tobytes()
            assert vb.vertices[i].tobytes() == vm.vertices.tobytes()


def _needles_and_offsets():
    """Needles down to the flatness cut-off, some with a circle at infinity,
    and one triangle at offsets from 1 to 1e8."""
    tris = []
    for e in 10.0 ** -np.arange(1, 16):
        for sides in ((2, 1, 1 + e), (1, 1, 2 - e), (1, 1.5, 2.5 - e), (PHI, 1 + e, PHI - 1 + e)):
            try:
                tris.append(core.triangle_from_sides(*sides))
            except ValueError:
                pass
    rng = np.random.default_rng(3)
    shape = rng.normal(size=(3, 2))
    tris += [core.triangle_from_vertices(10.0 ** k + shape) for k in range(9)]
    return tris


def _assert_matches_reference(tri, batch=False) -> int:
    """The stored centres, rows and vertices of every circle equal the
    per-circle evaluation of `oracles`, bit for bit, and a circle raises
    InfinitePoint exactly where the reference does (its solutions also where
    its centre does); the number of raises."""
    raised = 0
    for tag in core.CIRCLE_TAGS:
        try:
            rows, vertices = solution_pair(tri, tag)
            if not batch:
                circle_center(tri, tag)
        except InfinitePoint:
            raised += 1
            with pytest.raises(InfinitePoint):
                ccp_closed.solutions_for(tri, tag)
        else:
            for j, vm in enumerate(ccp_closed.solutions_for(tri, tag)):
                assert vm.rows.tobytes() == rows[..., j, :, :].tobytes(), (tri.sides, tag)
                assert vm.vertices.tobytes() == vertices[..., j, :, :].tobytes(), (tri.sides, tag)
        if batch:
            continue
        try:
            center = circle_center(tri, tag)
        except InfinitePoint:
            raised += 1
            with pytest.raises(InfinitePoint):
                core.tagged_circle(tri, tag)
        else:
            assert core.tagged_circle(tri, tag).center.tobytes() == center.tobytes()
    return raised


def _raises(call) -> bool:
    try:
        call()
    except InfinitePoint:
        return True
    return False


def _assert_batch_flags(members) -> set:
    """A batch of `members` flags a circle's centre exactly where a member's
    `tagged_circle` raises, and the circle exactly where a member's
    `solutions_for` does; a flagged circle raises for the batch, and an
    unflagged one reads each member's own bits.  The (centre, circle) flag
    pairs seen."""
    batch = core.stack_triangles(members)
    circles = ccp_closed.build_four_circles(batch)
    centers_infinite, infinite = circles.centers_infinite, circles.infinite
    seen = set()
    for k, tag in enumerate(core.CIRCLE_TAGS):
        center = any(_raises(lambda: core.tagged_circle(t, tag)) for t in members)
        rows = any(_raises(lambda: ccp_closed.solutions_for(t, tag)) for t in members)
        assert (centers_infinite[k], infinite[k]) == (center, rows), tag
        seen.add((center, rows))
        if rows:
            with pytest.raises(InfinitePoint):
                ccp_closed.solutions_for(batch, tag)
            continue
        pair = ccp_closed.solutions_for(batch, tag)
        for i, t in enumerate(members):
            for vb, vm in zip(pair, ccp_closed.solutions_for(t, tag)):
                assert vb.rows[i].tobytes() == vm.rows.tobytes()
                assert vb.vertices[i].tobytes() == vm.vertices.tobytes()
    assert _raises(lambda: ccp_closed.require_closed_form(batch)) == any(infinite)
    return seen


def test_four_circles_bit_identical_to_per_circle_reference():
    # the four circles of a triangle are one stacked evaluation; each circle
    # must still read the bits of its own evaluation: on a seeded sweep, on
    # an 81-triangle batch, on needles (some with a circle at infinity) and
    # far from the origin
    rng = np.random.default_rng(26)
    tris = [sampling.random_triangle(rng) for _ in range(500)]
    assert sum(_assert_matches_reference(t) for t in tris) == 0
    needles = _needles_and_offsets()
    assert sum(_assert_matches_reference(t) for t in needles) > 0
    assert _assert_matches_reference(core.stack_triangles(tris[:81]), batch=True) == 0
    # batches with needles: each needle with sweep triangles, and all of them
    # at once; a circle's centre flag and its row flag stay apart (a PHI
    # needle's A-excircle has rows at infinity and a finite centre)
    seen = set()
    for extra in [[t] for t in needles] + [needles]:
        seen |= _assert_batch_flags(tris[:8] + extra)
    assert seen == {(False, False), (False, True), (True, True)}


def test_solutions_for_at_infinity_raises():
    # near u = 0 with v = (phi - 1) w, a row of the A-excircle's closed form
    # sums to about u / s of its largest term: here below 1e-14, while its
    # centre's weights (-a, b, c) still sum to 2u, above 1e-14 max(a, b, c);
    # only the A-excircle's solutions raise, and only when read
    t = core.triangle_from_sides(1.618033988749895, 1.000000000000012, 0.6180339887499069)
    assert np.isfinite(core.tagged_circle(t, core.EXCIRCLE_A).center).all()
    for call in (lambda: ccp_closed.solutions_for(t, core.EXCIRCLE_A),
                 lambda: ccp_closed.excircle_solutions(t, "A"),
                 lambda: solution_pair(t, core.EXCIRCLE_A)):
        with pytest.raises(InfinitePoint):
            call()
    for tag in (core.INCIRCLE, core.EXCIRCLE_B, core.EXCIRCLE_C):
        for vm in ccp_closed.solutions_for(t, tag):
            assert np.isfinite(vm.vertices).all()


def test_circle_at_infinity_has_no_solutions():
    # on the needle (2, 1, 1 + 1e-14) the A-excircle's centre weights
    # (-a, b, c) sum to 1e-14 of the largest, a point at infinity, while its
    # six closed-form rows alone still sum to finite totals (their vertices
    # lie 1.1% of the true radius off the true A-excircle): the circle's one
    # flag covers both, so its solutions raise where its centre does
    t = core.triangle_from_sides(2, 1, 1 + 1e-14)
    assert np.isfinite(solution_pair(t, core.EXCIRCLE_A)[1]).all()
    for call in (lambda: core.tagged_circle(t, core.EXCIRCLE_A),
                 lambda: ccp_closed.solutions_for(t, core.EXCIRCLE_A),
                 lambda: ccp_closed.require_closed_form(t)):
        with pytest.raises(InfinitePoint):
            call()
    assert np.isfinite(core.tagged_circle(t, core.EXCIRCLE_B).center).all()
    for vm in ccp_closed.solutions_for(t, core.EXCIRCLE_B):
        assert np.isfinite(vm.vertices).all()
    ccp_closed.require_closed_form(core.triangle_from_sides(6, 9, 13))


# ---------------------------------------------------------------------------
# golden-conjugate symmetry


def test_conjugate_phi_swaps_solutions(triangles_100):
    for t in triangles_100[:30]:
        plain_t1, plain_t2 = ccp_closed.incircle_solutions(t)
        conj_t1, conj_t2 = incircle_vertices(t, PHI_CONJ)
        assert set_deviation(conj_t1, plain_t2.cartesian(t)) < 1e-9 * t.r
        assert set_deviation(conj_t2, plain_t1.cartesian(t)) < 1e-9 * t.r
