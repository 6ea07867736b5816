"""oracle-sweep worker: criterion 01's loop, run in one process.

Each problem is one circle of a seeded triangle from
`sampling.random_triangle`, solved by the closed form, the mobius solver and
the perspectrix construction; the three answers are cross-checked.  Drawing
the triangles is untimed set-up.  Prints one JSON object on stdout.

Usage: python perfbench/oracle_worker.py --seed N --seconds S --out DIR [--spans PATH]
It writes each problem's solve time in seconds, raw and at nominal speed, to
DIR/latencies.f64 and DIR/latencies_nominal.f64 (native doubles, NaN for a
failed problem), so its own bookkeeping stays small next to the program's
memory.  With --spans it alternates untraced and traced passes over a fixed
set of triangles and writes the spans to PATH instead.
"""

from __future__ import annotations

import argparse
import json
import math
import time
from array import array
from pathlib import Path

import numpy as np

import checks
import reference
from castillon import ccp_closed, ccp_general, core, sampling
from castillon.ccp_general import CcpProblem
from shim import Tracer

BATCH = 250           # triangles drawn per untimed set-up step
WINDOW_S = 1.0        # latencies are scaled by the reference slices of their window
REF_EVERY_S = 0.1     # a reference slice after this much solving
TRACE_TRIANGLES = 100  # per traced pass: 400 problems


def solve(tri, tag):
    circ = core.tagged_circle(tri, tag)
    closed = [vm.cartesian(tri) for vm in ccp_closed.solutions_for(tri, tag)]
    mobius = [s.vertices for s in
              ccp_general.solve_ccp_mobius(CcpProblem.on_triangle(tri, circ))]
    persp = [vm.cartesian(tri) for vm in ccp_general.solve_ccp_perspectrix(tri, circ)]
    return closed, mobius, persp


class Tally:
    """Outcomes of the checked problems."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.crit01 = checks.Exceedance(checks.CRIT01_TOL)
        self.last_good = None

    def run(self, tri, tag) -> float | None:
        """Solve and check one problem; its solve time, or None if it failed."""
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            out = solve(tri, tag)
        except Exception as exc:  # a solver error fails the item, not the run
            errs, dev = [f"{type(exc).__name__}: {exc}"], 0.0
        else:
            elapsed = time.perf_counter() - t0
            errs, dev = checks.check_oracle(tri.vertices, tag, *out)
        if errs:
            self.failed += 1
            if len(self.errors) < 5:
                self.errors.append(f"{tri.sides} {tag}: {'; '.join(errs)}")
            return None
        self.crit01.add(dev)
        self.last_good = (tri.vertices, tag, out)
        return elapsed

    def summary(self) -> dict:
        return {"attempted": self.attempted, "failed": self.failed, "errors": self.errors,
                "crit01_max": self.crit01.max, "crit01_exceed": self.crit01.count}

    def selfcheck(self) -> list[str]:
        """The checker must flag a vertex moved by 1e-6 r and a lost solution."""
        if self.last_good is None:
            return ["no correct output to corrupt"]
        vertices, tag, (closed, mobius, persp) = self.last_good
        center, r = checks.tagged_circle(vertices, tag)
        moved = [v.copy() for v in mobius]
        d = moved[0][0] - center
        moved[0][0] = moved[0][0] + 1e-6 * r * d / np.linalg.norm(d)
        bad = []
        if not checks.check_oracle(vertices, tag, closed, moved, persp)[0]:
            bad.append("oracle checker missed a vertex moved by 1e-6 r")
        if not checks.check_oracle(vertices, tag, closed, mobius[:1], persp)[0]:
            bad.append("oracle checker missed a lost mobius solution")
        return bad


def seed_selfcheck(seed: int) -> list[str]:
    """The same seed draws byte-identical triangles; another seed changes them."""
    def draw(s):
        rng = np.random.default_rng(s)
        return np.array([sampling.random_triangle(rng).sides for _ in range(5)]).tobytes()
    a, b, c = draw(seed), draw(seed), draw(seed + 1)
    return [] if a == b and a != c else ["oracle inputs are not a function of the seed"]


def timed(seed: int, seconds: float, out_dir: Path) -> dict:
    """Solves problems for `seconds`.  Each 1-s window gets a scale from the
    reference slices interleaved with it (see reference.py); latencies are
    returned raw and at nominal speed."""
    rng = np.random.default_rng(seed)
    tally = Tally()
    speed = reference.Speed(reference.slice_seconds, reference.NOMINAL_SLICE_S)
    latencies, windows, pending = array("d"), array("i"), []
    start = next_ref = time.perf_counter()
    while time.perf_counter() - start < seconds:
        if not pending:
            pending = [sampling.random_triangle(rng) for _ in range(BATCH)][::-1]
        tri = pending.pop()
        for tag in core.CIRCLE_TAGS:
            if time.perf_counter() >= next_ref:
                speed.sample()
                next_ref = time.perf_counter() + REF_EVERY_S
            w = int((time.perf_counter() - start) / WINDOW_S)
            elapsed = tally.run(tri, tag)
            latencies.append(math.nan if elapsed is None else elapsed)
            windows.append(w)
    scale = {w: speed.scale(start + w * WINDOW_S, start + (w + 1) * WINDOW_S)
             for w in set(windows)}
    (out_dir / "latencies.f64").write_bytes(latencies.tobytes())
    (out_dir / "latencies_nominal.f64").write_bytes(
        array("d", (e * scale[w] for e, w in zip(latencies, windows))).tobytes())
    return {**tally.summary(), "selfcheck": tally.selfcheck() + seed_selfcheck(seed),
            "reference_s": speed.median_s()}


def traced(seed: int, seconds: float, spans_path: str) -> dict:
    tally = Tally()
    tracer = Tracer()
    passes = []
    start = time.perf_counter()
    while (time.perf_counter() - start < seconds
           or sum(p["traced"] for p in passes) < 2):
        is_traced = len(passes) % 2 == 1
        tracer.pass_no = len(passes)
        if is_traced:
            tracer.install()
        rng = np.random.default_rng(seed)
        tracer.item = -1
        tris = [sampling.random_triangle(rng) for _ in range(TRACE_TRIANGLES)]
        busy = 0.0
        for i, tri in enumerate(tris):
            for j, tag in enumerate(core.CIRCLE_TAGS):
                tracer.item = 4 * i + j
                busy += tally.run(tri, tag) or 0.0
        if is_traced:
            tracer.uninstall()
        passes.append({"traced": is_traced, "busy_s": busy, "items": 4 * len(tris)})
    tracer.dump(spans_path)
    return {**tally.summary(), "selfcheck": tally.selfcheck() + seed_selfcheck(seed),
            "passes": passes}


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--out", type=Path)
    ap.add_argument("--spans", default=None)
    args = ap.parse_args()
    out = (traced(args.seed, args.seconds, args.spans) if args.spans
           else timed(args.seed, args.seconds, args.out))
    print(json.dumps(out))


if __name__ == "__main__":
    main()
