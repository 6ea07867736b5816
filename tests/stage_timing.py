"""Cost of one oracle problem, stage by stage.

    python tests/stage_timing.py [--triangles N] [--seed S] [--passes P] [--tree DIR ...]

Draws N triangles with `sampling.random_triangle` from numpy seed S and
times the four stages of one oracle problem per circle of each, as the
benchmark's oracle worker (`perfbench/oracle_worker.py`) solves it:
`circle` (`core.tagged_circle`), `closed` (`ccp_closed.solutions_for` and
the cartesian vertices), `mobius` (`ccp_general.solve_ccp_mobius` on
`CcpProblem.on_triangle`) and `perspectrix`
(`ccp_general.solve_ccp_perspectrix`).  The problems run in the worker's
order: triangle by triangle, its four circles one after the other, each
solved through all four stages and then, untimed, checked by the worker's
own `checks.check_oracle`, so each stage meets its code as cold as the
worker does.  The first circle of each triangle pays for what is built for
all four, so its problems are reported apart from the other three.  The
report gives the min and the median over the passes of the microseconds
per problem, for the first circle, the later circles and all problems.

Each pass of each `--tree` (a checkout; default: the checkout holding this
script) runs in a process of its own, with that checkout's `src` on
PYTHONPATH, as `perfbench/run.py` runs each workload: one untimed pass
first, on the same triangles, then the timed one.  Every pass draws fresh
triangle objects from the same seed, as the worker draws new ones: a
triangle keeps what it has derived (`TriangleData.derived`), so reused
objects would time warm values the worker never reads.  With two or more
trees the processes alternate, the first tree first on even passes and
last on odd ones, so all see the same drift of the host's speed.  The last
block gives, for each later tree, the median over passes of its time over
the first tree's in the same pass, over all passes and over each order
apart: a difference between the two orders is the bias of running first
or second.  Standard library and numpy only; the checker comes from this
script's own checkout, whichever trees it times.  Not a test module:
pytest does not collect it.

It locates cost; it cannot size a claim.  An A/A run of two copies of one
commit over 10 passes read per-stage ratios of 0.92-0.97, and it read one
prototype's later-circle problems 7% slower while `perfbench` read
`oracle-sweep`'s `latency_ms_p50` 3.6% faster in 9 of 10 pairs.  A claimed
gain comes from alternating `perfbench/run.py` pairs.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

STAGES = ("circle", "closed", "mobius", "perspectrix")
GROUPS = ("first", "later", "all")
HERE = Path(__file__).resolve().parents[1]


def load_checker():
    """The oracle worker's output check, from this checkout's `perfbench/`."""
    path = HERE / "perfbench" / "checks.py"
    spec = importlib.util.spec_from_file_location("stage_timing_checks", path)
    checks = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(checks)
    return checks.check_oracle


def one_pass(n: int, seed: int, check) -> list[list[float]]:
    """Microseconds per problem of each stage, in `STAGES` order, for the
    first circle of each triangle and for the other three, on N fresh
    triangles of `seed`, the problems solved one by one in the worker's
    order with `check` after each.  Imports the package found on sys.path."""
    from castillon import ccp_closed as closed, ccp_general as general, core, sampling

    rng = np.random.default_rng(seed)
    tris = [sampling.random_triangle(rng) for _ in range(n)]
    clock = time.perf_counter_ns
    totals = [[0] * len(STAGES), [0] * len(STAGES)]  # first circle, later circles
    for tri in tris:
        for j, tag in enumerate(core.CIRCLE_TAGS):
            t0 = clock()
            circ = core.tagged_circle(tri, tag)
            t1 = clock()
            closed_form = [vm.cartesian(tri) for vm in closed.solutions_for(tri, tag)]
            t2 = clock()
            mobius = [s.vertices for s in
                      general.solve_ccp_mobius(general.CcpProblem.on_triangle(tri, circ))]
            t3 = clock()
            persp = [s.cartesian(tri) for s in general.solve_ccp_perspectrix(tri, circ)]
            t4 = clock()
            check(tri.vertices, tag, closed_form, mobius, persp)
            row = totals[j > 0]
            for k, (a, b) in enumerate(((t0, t1), (t1, t2), (t2, t3), (t3, t4))):
                row[k] += b - a
    return [[ns / 1e3 / (count * n) for ns in row]
            for row, count in zip(totals, (1, len(core.CIRCLE_TAGS) - 1))]


def child(n: int, seed: int) -> None:
    """One process's work: an untimed pass, then the timed one, printed as
    JSON on stdout."""
    check = load_checker()
    one_pass(n, seed, check)
    print(json.dumps(one_pass(n, seed, check)))


def run_pass(root: Path, n: int, seed: int) -> list[list[float]]:
    """One timed pass of the checkout `root`, in a process of its own."""
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    out = subprocess.run(
        [sys.executable, __file__, "--child", "--triangles", str(n), "--seed", str(seed)],
        env=env, cwd=root, capture_output=True, text=True, check=True)
    return json.loads(out.stdout)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--triangles", type=int, default=300)
    parser.add_argument("--seed", type=int, default=5)
    parser.add_argument("--passes", type=int, default=15)
    parser.add_argument("--tree", type=Path, action="append")
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.child:
        child(args.triangles, args.seed)
        return 0
    roots = [root.resolve() for root in args.tree or [HERE]]
    # tree, group, pass, stage (the last column the sum)
    times = [{group: [] for group in GROUPS} for _ in roots]
    for k in range(args.passes):
        order = range(len(roots)) if k % 2 == 0 else reversed(range(len(roots)))
        for t in order:
            first, later = run_pass(roots[t], args.triangles, args.seed)
            every = [(f + 3.0 * l) / 4.0 for f, l in zip(first, later)]
            for group, stages in zip(GROUPS, (first, later, every)):
                times[t][group].append(stages + [sum(stages)])

    names = STAGES + ("sum",)
    print(f"us per problem, {4 * args.triangles} problems (seed {args.seed}), "
          f"{args.passes} passes, one process each: min / median; first circle "
          "of each triangle, the later three, all")
    print(f"{'tree':<42}{'circles':<8}" + "".join(f"{name:>18}" for name in names))
    for root, per_group in zip(roots, times):
        for group in GROUPS:
            cells = [f"{min(col):8.1f} /{statistics.median(col):7.1f}"
                     for col in zip(*per_group[group])]
            print(f"{str(root)[-42:]:<42}{group:<8}" + "".join(f"{cell:>18}" for cell in cells))
    if len(roots) > 1:
        print("median per-pass ratio to the first tree: all passes, the first tree "
              "run first (even passes), run last (odd passes)")
    for root, per_group in list(zip(roots, times))[1:]:
        for group in GROUPS:
            for label, picked in (("all", slice(None)), ("first ran first", slice(0, None, 2)),
                                  ("first ran last", slice(1, None, 2))):
                ratios = [statistics.median(b / a for a, b in zip(col0[picked], col[picked]))
                          for col0, col in zip(zip(*times[0][group]), zip(*per_group[group]))]
                print(f"{str(root)[-24:] + ', ' + label:<42}{group:<8}"
                      + "".join(f"{ratio:>18.3f}" for ratio in ratios))
    return 0


if __name__ == "__main__":
    sys.exit(main())
