"""In-process cost of one oracle problem, stage by stage.

    python tests/stage_timing.py [--triangles N] [--seed S] [--passes P] [--tree DIR ...]

Draws N triangles with `sampling.random_triangle` from numpy seed S and
times the four stages of one oracle problem per circle of each, as the
benchmark's oracle worker solves it: `circle` (`core.tagged_circle`),
`closed` (`ccp_closed.solutions_for` and the cartesian vertices), `mobius`
(`ccp_general.solve_ccp_mobius` on `CcpProblem.on_triangle`) and
`perspectrix` (`ccp_general.solve_ccp_perspectrix`).  One pass runs each
stage over all 4 N problems under `time.perf_counter_ns`; the report gives
the min and the median over the passes of the microseconds per problem.

Each `--tree` is a checkout whose `src/castillon` is imported as a package
of its own (default: the checkout holding this script), so two trees run
side by side in one process.  Their passes alternate, the first tree first
on even passes, so both see the same drift of the host's speed, and the
last block gives the median over passes of each tree's time over the first
tree's.  Standard library and numpy only.  Not a test module: pytest does
not collect it.
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


def problems(modules, n: int, seed: int):
    rng = np.random.default_rng(seed)
    tris = [modules["sampling"].random_triangle(rng) for _ in range(n)]
    return [(tri, tag) for tri in tris for tag in modules["core"].CIRCLE_TAGS]


def one_pass(modules, probs) -> list[float]:
    """Microseconds per problem of each stage, in `STAGES` order."""
    core, closed, general = modules["core"], modules["ccp_closed"], modules["ccp_general"]
    clock = time.perf_counter_ns
    t0 = clock()
    circles = [core.tagged_circle(tri, tag) for tri, tag in probs]
    t1 = clock()
    for tri, tag in probs:
        [vm.cartesian(tri) for vm in closed.solutions_for(tri, tag)]
    t2 = clock()
    for (tri, _), circ in zip(probs, circles):
        [s.vertices for s in general.solve_ccp_mobius(general.CcpProblem.on_triangle(tri, circ))]
    t3 = clock()
    for (tri, _), circ in zip(probs, circles):
        [s.cartesian(tri) for s in general.solve_ccp_perspectrix(tri, circ)]
    t4 = clock()
    return [(b - a) / 1e3 / len(probs) for a, b in ((t0, t1), (t1, t2), (t2, t3), (t3, t4))]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--triangles", type=int, default=300)
    parser.add_argument("--seed", type=int, default=5)
    parser.add_argument("--passes", type=int, default=15)
    parser.add_argument("--tree", type=Path, action="append")
    args = parser.parse_args(argv)
    roots = args.tree or [Path(__file__).resolve().parents[1]]
    trees = [load_tree(root, f"castillon_tree{k}") for k, root in enumerate(roots)]
    probs = [problems(modules, args.triangles, args.seed) for modules in trees]
    times: list[list[list[float]]] = [[] for _ in trees]  # tree, pass, stage
    for k in range(args.passes):
        order = range(len(trees)) if k % 2 == 0 else reversed(range(len(trees)))
        for t in order:
            stages = one_pass(trees[t], probs[t])
            times[t].append(stages + [sum(stages)])

    names = STAGES + ("sum",)
    print(f"us per problem, {4 * args.triangles} problems (seed {args.seed}), "
          f"{args.passes} passes: min / median")
    print(f"{'tree':<40}" + "".join(f"{name:>18}" for name in names))
    for root, per_pass in zip(roots, times):
        cells = [f"{min(col):8.1f} /{statistics.median(col):7.1f}" for col in zip(*per_pass)]
        print(f"{str(root)[-40:]:<40}" + "".join(f"{cell:>18}" for cell in cells))
    for root, per_pass in list(zip(roots, times))[1:]:
        ratios = [statistics.median(b / a for a, b in zip(col0, col))
                  for col0, col in zip(zip(*times[0]), zip(*per_pass))]
        print(f"{'ratio to first, ' + str(root)[-24:]:<40}"
              + "".join(f"{ratio:>18.3f}" for ratio in ratios))
    return 0


if __name__ == "__main__":
    sys.exit(main())
