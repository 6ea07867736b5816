"""Acceptance suite: one test per criterion, each at its stated tolerance,
printing one pass/fail line (run with -s to see them inline)."""

import json
import math
import time

import numpy as np
import pytest

from castillon import (
    brocard,
    ccp_closed,
    ccp_general,
    centers,
    cli,
    core,
    inconic,
)
from castillon.ccp_general import CcpProblem
from castillon.sampling import random_triangle

from conftest import set_deviation
from oracles import (
    chord_involution,
    conic_from_tangent_lines,
    incircle_vertices,
    point_at,
    random_interior_perspector,
    report_max_residual,
    report_passed,
    sin_angle,
    solution_rows,
)

SWEEP_SEED = 20260809
UNIT = core.CircleData(np.zeros(2), 1.0)


def _report(num, ok, detail):
    line = f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'}: {detail}"
    print(line)
    assert ok, line


@pytest.fixture(scope="module")
def sweep_triangles():
    rng = np.random.default_rng(SWEEP_SEED)
    return [random_triangle(rng) for _ in range(1000)]


@pytest.fixture(scope="module")
def sweep_batch(sweep_triangles):
    """The sweep as one batch; each row is bit-identical to its triangle
    alone, so every residual below is the one-at-a-time value."""
    return core.stack_triangles(sweep_triangles)


@pytest.fixture(scope="module")
def shared_report(sweep_batch):
    return brocard.verify_shared_objects(sweep_batch)


def _failures(check) -> int:
    return int(np.count_nonzero(np.logical_not(check.passed)))


def test_criterion_01_cross_oracle_agreement(sweep_triangles):
    worst_closed = 0.0
    perspectrix_hits = 0
    cases = 0
    t0 = time.perf_counter()
    for tri in sweep_triangles:
        for tag in core.CIRCLE_TAGS:
            circ = core.tagged_circle(tri, tag)
            closed = np.vstack([vm.cartesian(tri)
                                for vm in ccp_closed.solutions_for(tri, tag)])
            sols = ccp_general.solve_ccp_mobius(CcpProblem.on_triangle(tri, circ))
            assert len(sols) == 2
            mob = np.vstack([s.vertices for s in sols])
            dev = set_deviation(closed, mob) / circ.radius
            worst_closed = max(worst_closed, dev)
            p1, p2 = ccp_general.solve_ccp_perspectrix(tri, circ)
            pers = np.vstack([p1.cartesian(tri), p2.cartesian(tri)])
            if set_deviation(closed, pers) / circ.radius <= 1e-9:
                perspectrix_hits += 1
            cases += 1
    elapsed = time.perf_counter() - t0
    rate = perspectrix_hits / cases
    ok = worst_closed <= 1e-9 and rate >= 0.99 and elapsed <= 10.0
    _report(1, ok,
            f"closed-vs-mobius max {worst_closed:.2e} (tol 1e-9), "
            f"perspectrix match rate {rate:.4f} (>=0.99), "
            f"runtime {elapsed:.1f}s (<=10s) over {cases} circle problems")


def test_criterion_02_cyclic_incidence_and_count(sweep_triangles):
    worst = 0.0
    two_everywhere = True
    for tri in sweep_triangles:
        for tag in core.CIRCLE_TAGS:
            circ = core.tagged_circle(tri, tag)
            sols = ccp_general.solve_ccp_mobius(CcpProblem.on_triangle(tri, circ))
            two_everywhere = two_everywhere and len(sols) == 2
            for vm in ccp_closed.solutions_for(tri, tag):
                verts = vm.cartesian(tri)
                hit = set()
                for i in range(3):
                    side = np.cross(core.homog(verts[i]), core.homog(verts[(i + 1) % 3]))
                    dists = [core.point_line_distance(V, side) / circ.radius
                             for V in tri.vertices]
                    k = int(np.argmin(dists))
                    hit.add(k)
                    worst = max(worst, dists[k])
                assert hit == {0, 1, 2}
    ok = worst <= 1e-10 and two_everywhere
    _report(2, ok, f"side-through-vertex residual max {worst:.2e} (tol 1e-10); "
                   f"exactly two solutions in 100% of trials: {two_everywhere}")


def test_criterion_03_symmedian_is_gergonne(sweep_triangles):
    worst = 0.0
    for tri in sweep_triangles:
        expected = np.array([1.0 / tri.u, 1.0 / tri.v, 1.0 / tri.w])
        for vm in ccp_closed.incircle_solutions(tri):
            worst = max(worst, sin_angle(
                ccp_closed.solution_symmedian(vm, tri), expected))
    t = core.triangle_from_sides(6, 9, 13)
    vm1, _ = ccp_closed.incircle_solutions(t)
    explicit = sin_angle(ccp_closed.solution_symmedian(vm1, t),
                              [1 / 8, 1 / 5, 1.0])
    ok = worst <= 1e-10 and explicit <= 1e-10
    _report(3, ok, f"symmedian-vs-[1/(s-a):1/(s-b):1/(s-c)] max {worst:.2e} "
                   f"(tol 1e-10); (6,9,13) direction [1/8:1/5:1] residual {explicit:.2e}")


def test_criterion_04_shared_object_suite(shared_report):
    failures = sum(_failures(c) for c in shared_report.checks)
    worst = report_max_residual(shared_report)
    ok = not failures
    _report(4, ok, f"verify_shared_objects over 1000 triangles: "
                   f"{failures} failed checks, max residual {worst:.2e}")


def test_criterion_05_brocard_point_closed_form(shared_report):
    names = ("brocard-point-1-closed-form", "brocard-point-2-closed-form")
    checks = [c for c in shared_report.checks if c.name in names]
    worst = max(float(np.max(c.residual)) for c in checks)
    bad = sum(_failures(c) for c in checks)
    ok = bad == 0 and worst <= 1e-9
    _report(5, ok, f"alpha/beta/gamma barycentrics vs direct computation: "
                   f"max {worst:.2e} (tol 1e-9), {bad} failures")


def test_criterion_06_de_longchamps(sweep_batch):
    rep = brocard.de_longchamps_concurrence(sweep_batch)
    assert report_passed(rep), [(c.name, np.max(c.residual)) for c in rep.checks if _failures(c)]
    worst = report_max_residual(rep)
    ok = worst <= 1e-9
    _report(6, ok, f"four axes contain X20; incircle axis contains X1, X7: "
                   f"max residual {worst:.2e} (tol 1e-9)")


def test_criterion_07_twenty_three_from_one(sweep_batch):
    t = sweep_batch
    gen = ccp_closed.twenty_three_from_one(t)
    worst = max(float(np.max(core.sin_angles(gen[k], solution_rows(t, tag))))
                for k, tag in enumerate(core.CIRCLE_TAGS))
    ok = worst <= 1e-10
    _report(7, ok, f"24 generated vertices vs matrix rows: max {worst:.2e} (tol 1e-10)")


def test_criterion_08_inconic_transport():
    rng = np.random.default_rng(SWEEP_SEED + 1)
    worst_tangency = worst_fit = 0.0
    trials = 0
    for _ in range(20):
        tri = random_triangle(rng)
        for _ in range(10):
            spec = inconic.inconic_from_perspector(
                random_interior_perspector(rng), tri)
            sols = inconic.solve_ccp_inconic(spec, tri)
            worst_tangency = max(worst_tangency, sols.tangency_residual)
            sides = list(core.polygon_sides(np.array(sols.triangles)).reshape(6, 3))
            fit = conic_from_tangent_lines(sides[:5])
            worst_fit = max(worst_fit, sin_angle(fit.m, core.adjugate3(sols.conic.m)))
            trials += 1
    ok = worst_tangency <= 1e-8 and worst_fit <= 1e-7
    _report(8, ok, f"{trials} perspector trials: two solutions each, "
                   f"six-side tangency max {worst_tangency:.2e} (tol 1e-8), "
                   f"fitted-conic agreement max {worst_fit:.2e} (tol 1e-7)")


def test_criterion_09_correspondence_pairs():
    rng = np.random.default_rng(SWEEP_SEED + 2)
    batch = core.stack_triangles([random_triangle(rng) for _ in range(100)])
    rep = centers.verify_correspondences(batch)
    assert report_passed(rep)
    worst = report_max_residual(rep)
    n_verified = sum(c.note != "data-only" for c in rep.checks)
    n_total = len(rep.checks)
    ok = worst <= 1e-9 and n_verified >= 10 and n_total == 56
    _report(9, ok, f"{n_verified} verified pairs over 100 triangles, "
                   f"max {worst:.2e} (tol 1e-9); "
                   f"{n_total - n_verified} pairs emitted data-only")


def test_criterion_10_golden_structure():
    phi = ccp_closed.PHI
    (sq_phi, _, sq_phi_m1), (sq_phi_m2, _, _), _ = ccp_closed.T1.tolist()
    ident = max(
        abs(sq_phi - (phi + 1.0)),
        abs(sq_phi_m1 - (2.0 - phi)),
        abs(sq_phi_m2 - sq_phi_m1 ** 2),
    )
    rng = np.random.default_rng(SWEEP_SEED + 3)
    conj = (1.0 - math.sqrt(5.0)) / 2.0
    worst = 0.0
    for _ in range(100):
        tri = random_triangle(rng)
        t1, t2 = ccp_closed.incircle_solutions(tri)
        c1, c2 = incircle_vertices(tri, conj)
        worst = max(worst,
                    set_deviation(c1, t2.cartesian(tri)) / tri.r,
                    set_deviation(c2, t1.cartesian(tri)) / tri.r)
    ok = ident <= 1e-15 and worst <= 1e-9
    _report(10, ok, f"golden identities max defect {ident:.1e} (tol 1e-15); "
                    f"conjugate swap max deviation {worst:.2e} (tol 1e-9)")


def _trichotomy_family(scale):
    return np.array([[3.0, 0.0], [-1.0, 2.5], [-0.5, -2.0]]) * scale


def _family_discriminant(scale):
    maps = [chord_involution(UNIT, P) for P in _trichotomy_family(scale)]
    m = maps[0]
    for nxt in maps[1:]:
        m = ccp_general._compose(nxt, m)
    m00, m01, m10, m11 = m
    a, b, c = m10, m11 - m00, -m01
    return b * b - 4.0 * a * c


def test_criterion_11_trichotomy(tmp_path):
    # two solutions at full scale
    sols2 = ccp_general.solve_ccp_mobius(
        CcpProblem(circle=UNIT, points=_trichotomy_family(1.0)))
    # zero solutions with all points deep inside
    zero_pts = _trichotomy_family(0.05)
    sols0 = ccp_general.solve_ccp_mobius(CcpProblem(circle=UNIT, points=zero_pts))
    # tangent instance by bisecting the discriminant of the scaling family
    lo, hi = 0.05, 1.0
    for _ in range(100):
        mid = 0.5 * (lo + hi)
        if _family_discriminant(mid) < 0:
            lo = mid
        else:
            hi = mid
    sols1 = ccp_general.solve_ccp_mobius(
        CcpProblem(circle=UNIT, points=_trichotomy_family(0.5 * (lo + hi))))

    # exhaustive closure sweep certifying the 0-solution witness
    thetas = np.linspace(0.0, 2.0 * math.pi, 10_000, endpoint=False)
    min_closure = math.inf
    for theta in thetas:
        P = point_at(UNIT, theta)
        Q = P
        for pivot in zero_pts:
            d = pivot - Q
            d = d / np.linalg.norm(d)
            Q = Q - 2.0 * float((Q - UNIT.center) @ d) * d
        min_closure = min(min_closure, float(np.linalg.norm(Q - P)))

    # exit codes through the CLI
    def run_case(points):
        path = tmp_path / "case.json"
        path.write_text(json.dumps({
            "circle": {"center": [0, 0], "radius": 1},
            "points": [list(map(float, P)) for P in points],
        }))
        out = tmp_path / "out.json"
        return cli.main(["solve", str(path), "--out", str(out)])

    counts = (len(sols0), len(sols1), len(sols2))
    mult1 = sols1[0].multiplicity if sols1 else None
    exit0 = run_case(zero_pts)
    exit2 = run_case(_trichotomy_family(1.0))
    ok = (counts == (0, 1, 2) and mult1 == ccp_general.TANGENT_DOUBLE
          and min_closure >= 1e-3 and exit0 == 3 and exit2 == 0)
    _report(11, ok, f"solution counts {counts} (want (0,1,2)), tangent tagged "
                    f"{mult1}; 0-witness min closure {min_closure:.3f} "
                    f"(>=1e-3 over 10^4 params); exit codes {exit0}/{exit2} (want 3/0)")


def test_criterion_12_determinism(tmp_path):
    prob = tmp_path / "p.json"
    prob.write_text(json.dumps(
        {"triangle": {"a": 6, "b": 9, "c": 13}, "circle": "incircle"}))
    outs = []
    for name in ("a.json", "b.json"):
        path = tmp_path / name
        assert cli.main(["solve", str(prob), "--solver", "all",
                         "--out", str(path)]) == 0
        outs.append(path.read_bytes())
    solve_stable = outs[0] == outs[1]
    svgs = []
    for name in ("a.svg", "b.svg"):
        path = tmp_path / name
        assert cli.main(["render", str(prob), "--figure", "broc",
                         "--out", str(path)]) == 0
        svgs.append(path.read_bytes())
    render_stable = svgs[0] == svgs[1]
    ok = solve_stable and render_stable
    _report(12, ok, f"solve byte-stable: {solve_stable}; "
                    f"render byte-stable: {render_stable}")
