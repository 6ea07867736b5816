"""In-process cost of one oracle problem, stage by stage.

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
worker does.  Each pass draws fresh triangle objects from the same seed,
untimed, as the worker draws new ones: a triangle keeps what it has
derived (`TriangleData.derived`), so reused objects would time warm values
the worker never reads.  The first circle of each triangle pays for what
is built for all four, so its problems are reported apart from the other
three.  The report gives the min and the median over the passes of the
microseconds per problem, for the first circle, the later circles and all
problems.

Each `--tree` is a checkout whose `src/castillon` is imported as a package
of its own (default: the checkout holding this script), so two trees run
side by side in one process.  Their passes alternate, the first tree first
on even passes, so both see the same drift of the host's speed, and the
last block gives the median over passes of each tree's time over the first
tree's.  Standard library and numpy only; the checker comes from this
script's own checkout, whichever trees it times.  Not a test module:
pytest does not collect it.
"""

from __future__ import annotations

import argparse
import importlib
import importlib.util
import statistics
import sys
import time
from pathlib import Path

import numpy as np

STAGES = ("circle", "closed", "mobius", "perspectrix")


def load_tree(root: Path, name: str):
    """`root/src/castillon` imported as the package `name`; its modules
    import each other relatively, so each tree keeps its own."""
    init = root / "src" / "castillon" / "__init__.py"
    spec = importlib.util.spec_from_file_location(
        name, init, submodule_search_locations=[str(init.parent)])
    package = importlib.util.module_from_spec(spec)
    sys.modules[name] = package
    spec.loader.exec_module(package)
    return {mod: importlib.import_module(f"{name}.{mod}")
            for mod in ("core", "ccp_closed", "ccp_general", "sampling")}


def draw(modules, n: int, seed: int):
    rng = np.random.default_rng(seed)
    return [modules["sampling"].random_triangle(rng) for _ in range(n)]


def load_checker():
    """The oracle worker's output check, from this checkout's `perfbench/`."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "checks.py"
    spec = importlib.util.spec_from_file_location("stage_timing_checks", path)
    checks = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(checks)
    return checks.check_oracle


def one_pass(modules, tris, check) -> list[list[float]]:
    """Microseconds per problem of each stage, in `STAGES` order, for the
    first circle of each triangle and for the other three, the problems
    solved one by one in the worker's order with `check` after each."""
    core, closed, general = modules["core"], modules["ccp_closed"], modules["ccp_general"]
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
    return [[ns / 1e3 / (count * len(tris)) for ns in row]
            for row, count in zip(totals, (1, len(core.CIRCLE_TAGS) - 1))]


GROUPS = ("first", "later", "all")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--triangles", type=int, default=300)
    parser.add_argument("--seed", type=int, default=5)
    parser.add_argument("--passes", type=int, default=15)
    parser.add_argument("--tree", type=Path, action="append")
    args = parser.parse_args(argv)
    roots = args.tree or [Path(__file__).resolve().parents[1]]
    trees = [load_tree(root, f"castillon_tree{k}") for k, root in enumerate(roots)]
    check = load_checker()
    # tree, group, pass, stage (the last column the sum)
    times = [{group: [] for group in GROUPS} for _ in trees]
    for k in range(args.passes):
        order = range(len(trees)) if k % 2 == 0 else reversed(range(len(trees)))
        for t in order:
            first, later = one_pass(trees[t], draw(trees[t], args.triangles, args.seed), check)
            every = [(f + 3.0 * l) / 4.0 for f, l in zip(first, later)]
            for group, stages in zip(GROUPS, (first, later, every)):
                times[t][group].append(stages + [sum(stages)])

    names = STAGES + ("sum",)
    print(f"us per problem, {4 * args.triangles} problems (seed {args.seed}), "
          f"{args.passes} passes: min / median; first circle of each triangle, "
          "the later three, all")
    print(f"{'tree':<34}{'circles':<8}" + "".join(f"{name:>18}" for name in names))
    for root, per_group in zip(roots, times):
        for group in GROUPS:
            cells = [f"{min(col):8.1f} /{statistics.median(col):7.1f}"
                     for col in zip(*per_group[group])]
            print(f"{str(root)[-34:]:<34}{group:<8}" + "".join(f"{cell:>18}" for cell in cells))
    for root, per_group in list(zip(roots, times))[1:]:
        for group in GROUPS:
            ratios = [statistics.median(b / a for a, b in zip(col0, col))
                      for col0, col in zip(zip(*times[0][group]), zip(*per_group[group]))]
            print(f"{'ratio to first, ' + str(root)[-17:]:<34}{group:<8}"
                  + "".join(f"{ratio:>18.3f}" for ratio in ratios))
    return 0


if __name__ == "__main__":
    sys.exit(main())
