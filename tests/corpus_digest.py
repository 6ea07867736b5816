"""Byte-comparison corpus: one sha256 per output document of a seeded set of
problems, for checking that a change leaves every document byte-identical.

    PYTHONPATH=src python tests/corpus_digest.py [--triangles N] [--seed S]

Draws N triangles from the standard library's `random.Random(S)`, even
indices given by their sides, odd ones by vertices at an offset from the
origin, and an interior inconic perspector for each from a second stream
of its own, so the triangles do not depend on it.  Each triangle is run
in-process through `solve --solver all` on the incircle and the three
excircles, through `centers` (the whole registry) and through `solve` on
its inconic, and every tenth one through `render --figure excs`, `broc`
and `inconic` and through `verify --sweep 40` with `CASTILLON_SEED` set
to its index, and last through `render --figure inc`.  Prints one
line per document (name, exit code, sha256 of its stdout, or of its SVG)
and a last line with the sha256 of all of them; run it at two commits and
compare.  Stderr is not hashed:
warnings carry absolute paths.  Not a test module: pytest does not
collect it.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import random
import sys
import tempfile
from pathlib import Path
from unittest import mock

from castillon import cli

CIRCLES = ("incircle", "excircle-A", "excircle-B", "excircle-C")


def draw_triangle(rng: random.Random, i: int) -> dict:
    """Sides log-uniform in [0.1, 10] for even i; for odd i, vertices
    uniform in a box of side 20 around an offset of up to 100."""
    if i % 2 == 0:
        while True:
            a, b, c = (math.exp(rng.uniform(math.log(0.1), math.log(10.0))) for _ in range(3))
            if a + b > c and b + c > a and c + a > b:
                return {"a": a, "b": b, "c": c}
    ox, oy = rng.uniform(-100.0, 100.0), rng.uniform(-100.0, 100.0)
    return {"vertices": [[ox + rng.uniform(-10.0, 10.0), oy + rng.uniform(-10.0, 10.0)]
                         for _ in range(3)]}


def draw_perspector(rng: random.Random) -> list[float]:
    """Barycentrics uniform in [0.05, 1), so the inconic stays inside."""
    return [rng.uniform(0.05, 1.0) for _ in range(3)]


def run(argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    return code, out.getvalue()


def sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def render(path: Path, figure: str, workdir: Path) -> tuple[int, str]:
    """Exit code and sha256 of the SVG `render --figure` writes (of no bytes
    if it writes none)."""
    svg = workdir / "figure.svg"
    svg.unlink(missing_ok=True)
    code, _ = run(["render", str(path), "--figure", figure, "--out", str(svg)])
    return code, hashlib.sha256(svg.read_bytes() if svg.exists() else b"").hexdigest()


def digests(n: int, seed: int, workdir: Path):
    """(name, exit code, sha256) of every document, in order."""
    rng, perspectors = random.Random(seed), random.Random(f"perspectors-{seed}")
    for i in range(n):
        triangle = draw_triangle(rng, i)
        perspector = draw_perspector(perspectors)
        for circle in CIRCLES:
            path = workdir / "problem.json"
            path.write_text(json.dumps({"triangle": triangle, "circle": circle}),
                            encoding="utf-8")
            code, out = run(["solve", str(path), "--solver", "all"])
            yield f"solve-{i}-{circle}", code, sha(out)
        path = workdir / "problem.json"
        path.write_text(json.dumps({"triangle": triangle}), encoding="utf-8")
        code, out = run(["centers", str(path)])
        yield f"centers-{i}", code, sha(out)
        inconic = workdir / "inconic.json"
        inconic.write_text(json.dumps({"triangle": triangle, "inconic_perspector": perspector}),
                           encoding="utf-8")
        code, out = run(["solve", str(inconic)])
        yield f"solve-{i}-inconic", code, sha(out)
        if i % 10 == 0:
            yield f"render-{i}-excs", *render(path, "excs", workdir)
            with mock.patch.dict(os.environ, {"CASTILLON_SEED": str(i)}):
                code, out = run(["verify", str(path), "--sweep", "40"])
            yield f"verify-{i}-sweep40", code, sha(out)
            yield f"render-{i}-broc", *render(path, "broc", workdir)
            yield f"render-{i}-inconic", *render(inconic, "inconic", workdir)
            yield f"render-{i}-inc", *render(path, "inc", workdir)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--triangles", type=int, default=250)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    total, count = hashlib.sha256(), 0
    with tempfile.TemporaryDirectory() as tmp:
        for name, code, digest in digests(args.triangles, args.seed, Path(tmp)):
            line = f"{name} {code} {digest}"
            print(line)
            total.update(line.encode() + b"\n")
            count += 1
    print(f"all {count} documents {total.hexdigest()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
