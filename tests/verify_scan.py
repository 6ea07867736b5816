"""Scan the `verify-sweep` benchmark's own calls for failing claims.

    PYTHONPATH=src python tests/verify_scan.py [--seeds 1-150] [--calls 60]
        [--sweep 80] [--save DIR]

For each benchmark seed, draws the problem documents of its first CALLS
calls as `perfbench/inputs.py` does, and runs each in-process through
`verify --sweep SWEEP` with `CASTILLON_SEED` = seed * 1000 + call, as
`perfbench/run.py` does.  Prints one line per call that does not exit 0 (its
seed, call, exit code and FAIL rows) and a summary; with --save, writes each
such problem document to DIR as `verify-<seed>-<call>.json`, the bytes the
benchmark gives the program.  Not a test module: pytest does not collect it.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import os
import sys
import tempfile
from pathlib import Path

from castillon import cli

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def load_inputs():
    """`perfbench/inputs.py`, imported without writing bytecode next to it."""
    sys.dont_write_bytecode = True
    sys.path.insert(0, str(PERFBENCH))
    import inputs
    return inputs


def verify(path: Path, seed: int, sweep: int) -> tuple[int, list[str]]:
    """Exit code and FAIL rows of one `verify --sweep` call."""
    os.environ["CASTILLON_SEED"] = str(seed)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(["verify", str(path), "--sweep", str(sweep)])
    rows = [line.strip() for line in out.getvalue().splitlines() if "  FAIL  " in line]
    return code, rows or err.getvalue().splitlines()


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seeds", default="1-150", help="first-last benchmark seed")
    ap.add_argument("--calls", type=int, default=60, help="calls per seed")
    ap.add_argument("--sweep", type=int, default=80, help="random triangles per call")
    ap.add_argument("--save", type=Path, help="directory for the failing documents")
    args = ap.parse_args()
    first, last = map(int, args.seeds.split("-"))
    inputs = load_inputs()
    failing_seeds = set()
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "problem.json"
        for seed in range(first, last + 1):
            rng = inputs.make_rng("verify-sweep", seed)
            for call in range(args.calls):
                doc = inputs.encode(inputs.verify_problem(rng))
                path.write_bytes(doc)
                code, rows = verify(path, seed * 1000 + call, args.sweep)
                if code == cli.EXIT_OK:
                    continue
                failing_seeds.add(seed)
                print(f"seed {seed} call {call}: exit {code}")
                for row in rows:
                    print(f"    {row}")
                if args.save:
                    args.save.mkdir(parents=True, exist_ok=True)
                    (args.save / f"verify-{seed}-{call}.json").write_bytes(doc)
    n = last - first + 1
    print(f"{len(failing_seeds)} of {n} seeds fail ({100.0 * len(failing_seeds) / n:.1f}%), "
          f"{args.calls} calls each of --sweep {args.sweep}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
