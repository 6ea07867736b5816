"""Command-line interface: solve, verify, centers, render.

Exit codes are a stable contract: 0 success, 1 verification claim failed,
2 invalid input, 3 no real solution, 4 degenerate configuration.
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from . import brocard, ccp_closed, ccp_general, centers, core, figures, inconic, problemfile
from .ccp_general import CcpProblem
from .errors import (
    DegenerateComposition,
    DegenerateTriangle,
    GeometryError,
    UnknownCenter,
)
from .problemfile import (
    KIND_GENERAL,
    KIND_INCONIC,
    KIND_TRIANGLE_CIRCLE,
    ProblemFileError,
    ProblemSpec,
)

EXIT_OK = 0
EXIT_CLAIM_FAILED = 1
EXIT_INVALID_INPUT = 2
EXIT_NO_SOLUTION = 3
EXIT_DEGENERATE = 4


def _write_output(text: str, out_path: str | None) -> None:
    if out_path is None or out_path == "-":
        sys.stdout.write(text)
        return
    try:
        with open(out_path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    except OSError as exc:
        raise ProblemFileError(f"cannot write {out_path}: {exc}") from exc


# ---------------------------------------------------------------------------
# solve


def _vertex_set_deviation(groups) -> float:
    """Max Hausdorff-style deviation between vertex sets of solver outputs."""
    worst = 0.0
    base = np.vstack(groups[0])
    for other in groups[1:]:
        d = np.linalg.norm(base[:, None, :] - np.vstack(other)[None, :, :], axis=2)
        worst = max(worst, float(d.min(axis=1).max()), float(d.min(axis=0).max()))
    return worst


def _solution_entry(verts, tri=None, multiplicity=ccp_general.TWO_DISTINCT) -> dict:
    entry = {
        "vertices": [list(map(float, V)) for V in verts],
        "multiplicity": multiplicity,
    }
    if tri is not None:
        entry["barycentrics"] = [
            list(core.normalize_bary(core.cartesian_to_bary(V, tri))) for V in verts
        ]
    return entry


def _shared_block(tri: core.TriangleData, tag: str) -> dict:
    frame = brocard.solution_frame(tri, tag)
    first, second = brocard.shared_brocard_points(tri)
    return {
        "symmedian": list(core.normalize_bary(
            ccp_closed.solution_symmedian(ccp_closed.solutions_for(tri, tag)[0], tri))),
        "brocard_points": [list(core.normalize_bary(first)),
                           list(core.normalize_bary(second))],
        "brocard_angle": frame.omega,
        "lemoine": problemfile.canonical(
            core.line_cart_to_bary(frame.lemoine_cart, tri), np.inf),
        "axis": None if frame.degenerate else problemfile.canonical(
            core.line_cart_to_bary(frame.axis_cart, tri), np.inf),
        "inellipse_matrix": problemfile.canonical(brocard.brocard_inellipse(frame).m, "fro"),
    }


def _solve_triangle_circle(spec: ProblemSpec, solver: str) -> tuple[dict, int]:
    tri, circle = spec.triangle, spec.circle
    solvers = {
        "closed": lambda: ccp_closed.solutions_for(tri, spec.circle_tag),
        "mobius": lambda: ccp_general.solve_ccp_mobius(CcpProblem.on_triangle(tri, circle)),
        "perspectrix": lambda: ccp_general.solve_ccp_perspectrix(tri, circle),
    }
    outputs = {name: [sol.cartesian(tri) for sol in solve()]
               for name, solve in solvers.items() if solver in (name, "all")}

    primary = outputs.get("closed") or outputs.get("perspectrix") or outputs.get("mobius")
    if not primary:
        return {"solutions": []}, EXIT_NO_SOLUTION

    doc = {
        "schema": problemfile.SCHEMA_ID,
        "problem": spec.raw,
        "solver": solver,
        "circle": {"center": list(circle.center), "radius": circle.radius},
        "solutions": [_solution_entry(verts, tri) for verts in primary],
        "shared": _shared_block(tri, spec.circle_tag),
        "residuals": core.solution_residuals(circle, primary, tri.vertices, nearest=True),
    }
    if solver == "all":
        doc["residuals"]["cross_solver_max_deviation"] = _vertex_set_deviation(
            list(outputs.values()))
    return doc, EXIT_OK


def _solve_general(spec: ProblemSpec) -> tuple[dict, int]:
    prob = CcpProblem(circle=spec.circle, points=spec.points)
    sols = ccp_general.solve_ccp_mobius(prob)
    doc = {
        "schema": problemfile.SCHEMA_ID,
        "problem": spec.raw,
        "solver": "mobius",
        "circle": {"center": list(spec.circle.center), "radius": spec.circle.radius},
        "solutions": [
            _solution_entry(s.vertices, spec.triangle, s.multiplicity) for s in sols
        ],
    }
    if not sols:
        return doc, EXIT_NO_SOLUTION
    doc["residuals"] = core.solution_residuals(prob.circle, [s.vertices for s in sols],
                                               prob.points, nearest=False)
    return doc, EXIT_OK


def _solve_inconic(spec: ProblemSpec) -> tuple[dict, int]:
    tri = spec.triangle
    ispec = inconic.inconic_from_perspector(spec.perspector, tri)
    sols = inconic.solve_ccp_inconic(ispec, tri)
    doc = {
        "schema": problemfile.SCHEMA_ID,
        "problem": spec.raw,
        "solver": "inconic-transport",
        "image_circle": core.INCIRCLE,
        "solutions": [_solution_entry(verts, tri) for verts in sols.triangles],
        "shared": {"conic_matrix": problemfile.canonical(sols.conic.m, "fro")},
        "residuals": {
            "tangency": sols.tangency_residual,
            "incidence": sols.incidence_residual,
        },
    }
    return doc, EXIT_OK


def cmd_solve(args) -> int:
    spec = problemfile.load_problem(args.input)
    if spec.kind == KIND_TRIANGLE_CIRCLE:
        doc, code = _solve_triangle_circle(spec, args.solver)
    elif spec.kind == KIND_INCONIC:
        if args.solver not in ("closed", "all"):
            raise ProblemFileError("inconic problems support only the transport solver")
        doc, code = _solve_inconic(spec)
    elif spec.kind == KIND_GENERAL:
        if args.solver not in ("closed", "mobius", "all"):
            raise ProblemFileError("general problems support only the mobius solver")
        doc, code = _solve_general(spec)
    else:
        raise ProblemFileError("solve needs a circle, perspector or points")
    _write_output(problemfile.dump_document(doc), args.out)
    if code == EXIT_NO_SOLUTION:
        print("no real solution", file=sys.stderr)
    return code


# ---------------------------------------------------------------------------
# verify


def _twenty_three_claim(t: core.TriangleData) -> brocard.Report:
    gen = ccp_closed.twenty_three_from_one(ccp_closed.generator_seed(t), t)
    mats = {(tag, vm.label): vm.rows
            for tag in core.CIRCLE_TAGS for vm in ccp_closed.solutions_for(t, tag)}
    worst = 0.0
    for gv in gen:
        worst = np.maximum(worst, core.sin_angles(np.stack(gv.coords, axis=-1),
                                                  mats[(gv.circle, gv.label)][..., gv.row, :]))
    return brocard.Report(name="twenty-three-from-one",
                          checks=(brocard.check("all-24-vertices-from-one", worst, 1e-10),),
                          note="24 vertices")


def _failed_rows(rep: brocard.Report, t: core.TriangleData) -> list:
    """One row per failing check: its largest failing residual and the
    triangle that has it, by index in the batch (0 is the input) and sides."""
    rows, n = [], len(t.a)
    for c in rep.checks:
        failed = np.broadcast_to(np.logical_not(c.passed), (n,))
        if failed.any():
            residual = np.broadcast_to(c.residual, (n,))
            i = int(np.argmax(np.where(failed, residual, -np.inf)))
            sides = ", ".join(repr(float(x[i])) for x in t.sides)
            rows.append((f"  {c.name}", False, residual[i],
                         f"worst triangle {i} (sides {sides}), tol {c.tolerance:g}"))
    return rows


def _load_triangle_problem(args) -> ProblemSpec:
    """The problem file of a command that needs a triangle."""
    spec = problemfile.load_problem(args.input)
    if spec.triangle is None:
        raise ProblemFileError(f"{args.command} requires a triangle-based problem")
    return spec


def cmd_verify(args) -> int:
    if args.sweep < 0:
        raise ProblemFileError(f"--sweep must be a non-negative count, got {args.sweep}")
    spec = _load_triangle_problem(args)
    triangles = [spec.triangle]
    if args.sweep:
        text = os.environ.get("CASTILLON_SEED", "0")
        if not text.strip().isdecimal():
            raise ProblemFileError(f"CASTILLON_SEED must be a non-negative integer, got {text!r}")
        seed = int(text)
        rng = np.random.default_rng(seed)
        from .sampling import random_triangle
        triangles += [random_triangle(rng) for _ in range(args.sweep)]

    t = core.stack_triangles(triangles)
    ccp_closed.require_closed_form(t)  # every claim reads all four circles
    rows = []
    for claim in (brocard.verify_shared_objects, brocard.de_longchamps_concurrence,
                  centers.verify_correspondences, _twenty_three_claim):
        rep = claim(t)
        rows.append((rep.name, rep.passed, rep.max_residual,
                     rep.note or f"{len(rep.checks)} checks"))
        rows += _failed_rows(rep, t)
    width = max(len(row[0]) for row in rows)
    if args.sweep:
        print(f"verified on {len(triangles)} triangles "
              f"(input + {args.sweep} random, seed {seed})")
    for name, ok, residual, note in rows:
        status = "PASS" if ok else "FAIL"
        print(f"{name:<{width}}  {status}  max-residual {residual:.3e}  {note}")
    return EXIT_OK if all(row[1] for row in rows) else EXIT_CLAIM_FAILED


# ---------------------------------------------------------------------------
# centers


def cmd_centers(args) -> int:
    spec = _load_triangle_problem(args)
    tri = spec.triangle
    if args.pairs:
        registry = set(centers.registry_indices())
        for i, k in centers.correspondence_pairs():
            status = "verified" if (i in registry and k in registry) else "data-only"
            print(f"{i} {k} {status}")
        return EXIT_OK
    rows = []
    equilateral = brocard.brocard_frame(tri).degenerate
    for idx in args.index or centers.registry_indices():
        definition = centers.center_definition(int(idx))
        try:
            if equilateral and definition.equilateral_undefined:
                raise GeometryError("equilateral triangle")
            bary = core.normalize_bary(definition.fn(tri))
        except GeometryError as exc:
            raise GeometryError(f"X{idx} is undefined on this triangle ({exc})") from exc
        x, y, z = (float(f"{v:.15g}") for v in bary)
        rows.append(f"X{idx} {x:.15g} {y:.15g} {z:.15g}")
    print("\n".join(rows))
    return EXIT_OK


# ---------------------------------------------------------------------------
# render


def cmd_render(args) -> int:
    spec = _load_triangle_problem(args)
    tri = spec.triangle
    if args.figure == "inc":
        text = figures.render_incircle(tri)
    elif args.figure == "broc":
        text = figures.render_brocard(tri)
    elif args.figure == "excs":
        text = figures.render_excircles(tri)
    else:
        if spec.perspector is None:
            raise ProblemFileError("the inconic figure needs inconic_perspector")
        text = figures.render_inconic(tri, spec.perspector)
    _write_output(text, args.out)
    return EXIT_OK


# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="castillon",
        description="Inscribed-triangle solvers on incircles, excircles and "
                    "inconics, with shared-object verification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="solve a problem file")
    p.add_argument("input", help="problem JSON path")
    p.add_argument("--solver", choices=("closed", "mobius", "perspectrix", "all"),
                   default="closed")
    p.add_argument("--out", default=None, help="output path (default stdout)")
    p.set_defaults(fn=cmd_solve)

    p = sub.add_parser("verify", help="verify the shared-object claims")
    p.add_argument("input", help="problem JSON path (triangle-based)")
    p.add_argument("--sweep", type=int, default=0, metavar="N",
                   help="also verify N random triangles (seed: CASTILLON_SEED)")
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("centers", help="print triangle-center barycentrics")
    p.add_argument("input", help="problem JSON path (triangle-based)")
    p.add_argument("--index", type=int, action="append",
                   help="Kimberling index (repeatable; default: whole registry)")
    p.add_argument("--pairs", action="store_true",
                   help="list the correspondence pairs and their status")
    p.set_defaults(fn=cmd_centers)

    p = sub.add_parser("render", help="render an SVG figure")
    p.add_argument("input", help="problem JSON path (triangle-based)")
    p.add_argument("--figure", choices=("inc", "broc", "excs", "inconic"),
                   required=True)
    p.add_argument("--out", required=True, help="SVG output path")
    p.set_defaults(fn=cmd_render)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (ProblemFileError, UnknownCenter) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID_INPUT
    except (DegenerateTriangle, DegenerateComposition) as exc:
        print(f"degenerate configuration: {exc}", file=sys.stderr)
        return EXIT_DEGENERATE
    except GeometryError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DEGENERATE


if __name__ == "__main__":
    sys.exit(main())
