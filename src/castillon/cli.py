"""Command-line interface: solve, verify, centers, render.

Exit codes are a stable contract: 0 success, 1 verification claim failed,
2 invalid input, 3 no real solution, 4 degenerate configuration.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys

import numpy as np

from . import (brocard, ccp_closed, ccp_general, centers, core, figures, inconic,
               problemfile, sampling)
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

# triangles per batch of a `verify --sweep`, so its memory does not grow with N
VERIFY_CHUNK = 4096


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


def _solution_entry(verts, tri=None, multiplicity=core.TWO_DISTINCT) -> dict:
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
    """The 24 derived vertices against the rows of the four circles' solutions."""
    rows = t.derived(core.four_circles).rows[:, 1:]
    worst = core.sin_angles(ccp_closed.twenty_three_from_one(t), rows).max(axis=(0, 1, -1))
    return brocard.Report(name="twenty-three-from-one",
                          checks=(brocard.check("all-24-vertices-from-one", worst, 1e-10),),
                          note="24 vertices")


class _Tally:
    """One claim's checks over the chunks of a sweep, reduced chunk by chunk
    to what its rows print: per check, the largest residual and the largest
    failing residual (the first of equal ones, and a NaN before all, as
    `np.max` and `np.argmax` pick), with the triangle that has it, by index
    in the sweep (0 is the input) and sides."""

    def __init__(self, rep: brocard.Report):
        self.name, self.note = rep.name, rep.note or f"{len(rep.checks)} checks"
        self.checks = [(c.name, c.tolerance) for c in rep.checks]
        self.top = [-np.inf] * len(rep.checks)
        self.worst = [None] * len(rep.checks)  # per check: (residual, index, sides)

    def add(self, rep: brocard.Report, t: core.TriangleData, first: int) -> None:
        n = len(t.a)
        for k, c in enumerate(rep.checks):
            self.top[k] = np.maximum(self.top[k], np.max(c.residual))
            failed = np.broadcast_to(np.logical_not(c.passed), (n,))
            if not failed.any():
                continue
            residual = np.broadcast_to(c.residual, (n,))
            i = int(np.argmax(np.where(failed, residual, -np.inf)))
            worst = self.worst[k]
            if worst is None or residual[i] > worst[0] or (
                    np.isnan(residual[i]) and not np.isnan(worst[0])):
                self.worst[k] = (residual[i], first + i, tuple(float(x[i]) for x in t.sides))

    def rows(self) -> list:
        """The claim's row, then one row per failing check."""
        rows = [(self.name, all(w is None for w in self.worst),
                 max(map(float, self.top), default=0.0), self.note)]
        for (name, tol), worst in zip(self.checks, self.worst):
            if worst is not None:
                residual, i, sides = worst
                rows.append((f"  {name}", False, residual,
                             f"worst triangle {i} (sides {', '.join(map(repr, sides))}), "
                             f"tol {tol:g}"))
        return rows


def _load_triangle_problem(args) -> ProblemSpec:
    """The problem file of a command that needs a triangle."""
    spec = problemfile.load_problem(args.input)
    if spec.triangle is None:
        raise ProblemFileError(f"{args.command} requires a triangle-based problem")
    return spec


def _sweep_chunks(head: core.TriangleData, n: int, rng):
    """The batch `head` of the input triangle, then n triangles drawn from
    `rng`, as batches of VERIFY_CHUNK triangles (the last one shorter), each
    drawn when the one before has been verified."""
    draws = sampling.TriangleDraws(rng)
    first = min(n, VERIFY_CHUNK - 1)
    yield core.concat_triangles([head, draws.take(first)])
    for left in range(n - first, 0, -VERIFY_CHUNK):
        yield draws.take(min(left, VERIFY_CHUNK))


def cmd_verify(args) -> int:
    if args.sweep < 0:
        raise ProblemFileError(f"--sweep must be a non-negative count, got {args.sweep}")
    spec = _load_triangle_problem(args)
    head = core.stack_triangles([spec.triangle])
    chunks = [head]
    if args.sweep:
        text = os.environ.get("CASTILLON_SEED", "0")
        if not text.strip().isdecimal():
            raise ProblemFileError(f"CASTILLON_SEED must be a non-negative integer, got {text!r}")
        seed = int(text)
        chunks = _sweep_chunks(head, args.sweep, np.random.default_rng(seed))

    claims = (brocard.verify_shared_objects, brocard.de_longchamps_concurrence,
              centers.verify_correspondences, _twenty_three_claim)
    tallies = {}
    done = 0
    for t in chunks:
        ccp_closed.require_closed_form(t)  # every claim reads all four circles
        for claim in claims:
            rep = claim(t)
            if claim not in tallies:
                tallies[claim] = _Tally(rep)
            tallies[claim].add(rep, t, done)
        done += len(t.a)
        del t, rep  # before the next chunk is drawn
    rows = [row for tally in tallies.values() for row in tally.rows()]
    width = max(len(row[0]) for row in rows)
    if args.sweep:
        print(f"verified on {done} triangles "
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


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser, built once per process: it holds reference cycles, which a
    parser per call would leave to the collector."""
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

    p = sub.add_parser("verify", help="verify the shared-object claims")
    p.add_argument("input", help="problem JSON path (triangle-based)")
    p.add_argument("--sweep", type=int, default=0, metavar="N",
                   help="also verify N random triangles (seed: CASTILLON_SEED)")

    p = sub.add_parser("centers", help="print triangle-center barycentrics")
    p.add_argument("input", help="problem JSON path (triangle-based)")
    p.add_argument("--index", type=int, action="append",
                   help="Kimberling index (repeatable; default: whole registry)")
    p.add_argument("--pairs", action="store_true",
                   help="list the correspondence pairs and their status")

    p = sub.add_parser("render", help="render an SVG figure")
    p.add_argument("input", help="problem JSON path (triangle-based)")
    p.add_argument("--figure", choices=("inc", "broc", "excs", "inconic"),
                   required=True)
    p.add_argument("--out", required=True, help="SVG output path")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    # looked up per call, so a command replaced on the module is the one run
    commands = {"solve": cmd_solve, "verify": cmd_verify, "centers": cmd_centers,
                "render": cmd_render}
    try:
        return commands[args.command](args)
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
