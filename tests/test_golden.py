"""Golden documents: a fixed set of commands whose stdout, exit codes and
SVG figures are committed under tests/data/golden/ and must stay
byte-identical.  Stderr is not compared: warnings carry absolute paths.
With them is the last line of `corpus_digest.py`'s default corpus, one
sha256 over its 1,625 documents.

An intended output change regenerates the files with

    PYTHONPATH=src python tests/test_golden.py

and lists every changed file in CHANGES.md.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path
from unittest import mock

import pytest

from castillon import cli

import corpus_digest

GOLDEN = Path(__file__).resolve().parent / "data" / "golden"
CORPUS = GOLDEN / "corpus_digest.txt"

TRI_6913 = {"a": 6, "b": 9, "c": 13}
TRI_345 = {"a": 3, "b": 4, "c": 5}
CLOCKWISE = {"vertices": [[3, 4], [3, 0], [0, 0]]}
SKEWED = {"vertices": [[1.5, 4], [0, 0], [6, 0.5]]}
# inputs that do not round exactly, so a one-ulp change of a circle shows
INEXACT_SIDES = {"a": 0.3, "b": 0.7, "c": 0.9}
INEXACT_VERTICES = {"vertices": [[0.1, 0.7], [-1.3, 0.2], [2.9, -0.4]]}
CIRCLES = ("incircle", "excircle-A", "excircle-B", "excircle-C")


def _cases() -> dict:
    """name -> (problem document, arguments after the problem path, CASTILLON_SEED)."""
    cases = {}
    for circle in CIRCLES:
        for solver in ("closed", "mobius", "perspectrix", "all"):
            cases[f"solve-6913-{circle}-{solver}"] = (
                {"triangle": TRI_6913, "circle": circle}, ["solve", "--solver", solver], None)
        for name, tri in (("clockwise", CLOCKWISE), ("skewed", SKEWED),
                          ("inexact-sides", INEXACT_SIDES),
                          ("inexact-vertices", INEXACT_VERTICES)):
            cases[f"solve-{name}-{circle}-all"] = (
                {"triangle": tri, "circle": circle}, ["solve", "--solver", "all"], None)
    for name, tri, perspector in (("345-123", TRI_345, [1, 2, 3]),
                                  ("6913-near-side", TRI_6913, [1, 1e-6, 1e-6])):
        problem = {"triangle": tri, "inconic_perspector": perspector}
        cases[f"solve-inconic-{name}"] = (problem, ["solve"], None)
        cases[f"render-inconic-{name}"] = (problem, ["render", "--figure", "inconic"], None)
    unit = {"center": [0, 0], "radius": 1}
    for name, circle, points in (
            ("3-points", {"center": [1, -0.5], "radius": 2}, [[4, 0.5], [-2.5, 2], [0.3, -4]]),
            ("5-points", unit, [[2, 0.5], [-1.5, 2], [0.3, -3], [3, -2], [-2.5, -1]]),
            ("on-circle", unit, [[1, 0], [2, 1.5], [-1.5, 2]]),
            ("no-solution", unit, [[0.5, 0], [0.5, 0], [0.5, 0]])):
        cases[f"solve-general-{name}"] = ({"circle": circle, "points": points}, ["solve"], None)
    cases["centers-6913"] = ({"triangle": TRI_6913}, ["centers"], None)
    cases["verify-6913"] = ({"triangle": TRI_6913}, ["verify"], None)
    for figure in ("inc", "broc", "excs"):
        cases[f"render-6913-{figure}"] = ({"triangle": TRI_6913},
                                          ["render", "--figure", figure], None)
    cases["verify-6913-sweep-200"] = ({"triangle": TRI_6913}, ["verify", "--sweep", "200"],
                                      "424242")
    return cases


CASES = _cases()


def run_case(name: str, workdir: Path) -> tuple[int, str, str | None]:
    """Run one case in-process: (exit code, stdout, SVG text or None)."""
    problem, args, seed = CASES[name]
    path = workdir / f"{name}.json"
    path.write_text(json.dumps(problem), encoding="utf-8")
    argv = [args[0], str(path), *args[1:]]
    svg = workdir / f"{name}.svg"
    if args[0] == "render":
        argv += ["--out", str(svg)]
    env = {"CASTILLON_SEED": seed} if seed is not None else {}
    out = io.StringIO()
    with mock.patch.dict(os.environ, env), contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return code, out.getvalue(), svg.read_text(encoding="utf-8") if svg.exists() else None


def _expected_codes() -> dict:
    return json.loads((GOLDEN / "exit_codes.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_document(name, tmp_path):
    code, out, svg = run_case(name, tmp_path)
    assert code == _expected_codes()[name]
    assert out == (GOLDEN / f"{name}.out").read_text(encoding="utf-8")
    svg_path = GOLDEN / f"{name}.svg"
    assert svg == (svg_path.read_text(encoding="utf-8") if svg_path.exists() else None)


def test_golden_set_is_complete():
    # every case has its files and no file is left from a removed case
    names = {p.name.split(".")[0] for p in GOLDEN.glob("*.out")}
    assert names == set(CASES) == set(_expected_codes())


def test_corpus_digest():
    # every document of the default corpus stays byte-identical
    assert corpus_digest.summary() + "\n" == CORPUS.read_text(encoding="utf-8")


def _regenerate() -> None:
    GOLDEN.mkdir(parents=True, exist_ok=True)
    for old in list(GOLDEN.glob("*.out")) + list(GOLDEN.glob("*.svg")):
        old.unlink()
    codes = {}
    with tempfile.TemporaryDirectory() as tmp:
        for name in sorted(CASES):
            codes[name], out, svg = run_case(name, Path(tmp))
            (GOLDEN / f"{name}.out").write_text(out, encoding="utf-8", newline="\n")
            if svg is not None:
                (GOLDEN / f"{name}.svg").write_text(svg, encoding="utf-8", newline="\n")
    (GOLDEN / "exit_codes.json").write_text(json.dumps(codes, indent=1, sort_keys=True) + "\n",
                                            encoding="utf-8")
    CORPUS.write_text(corpus_digest.summary() + "\n", encoding="utf-8", newline="\n")


if __name__ == "__main__":
    _regenerate()
    sys.exit(0)
