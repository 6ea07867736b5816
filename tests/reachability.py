"""Reachability of the package under the test suite: which lines and which
`raise` statements of each module the suite executes.

    PYTHONPATH=src python tests/reachability.py

Runs the whole suite (`python -m pytest -q`) in a child process with a
`sitecustomize` module on a temporary PYTHONPATH.  That module installs a
`sys.settrace` line tracer in every Python process that starts with that
path, so the suite's own process and the command-line subprocesses its tests
start are traced alike; each writes the lines it ran in the package to a
file when it exits.  The denominator is the line table of every code object
of each module (`co_lines`, without the line 0 a module starts at), and a
`raise` counts as reached when its first line ran.  Prints one row per module, its unreached lines and its unreached
raises with their source, and the totals.  Standard library only; tracing
makes the suite several times slower.  Not a test module: pytest does not
collect it.
"""

from __future__ import annotations

import ast
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import castillon

PACKAGE = Path(castillon.__file__).resolve().parent
ROOT = Path(__file__).resolve().parents[1]

SITECUSTOMIZE = '''\
import atexit, json, os, sys, tempfile, threading

_PACKAGE = os.environ["REACHABILITY_PACKAGE"]
_OUT = os.environ["REACHABILITY_OUT"]
_hits = {}
_inside = {}


def _local(frame, event, arg):
    if event == "line":
        _hits[frame.f_code.co_filename].add(frame.f_lineno)
    return _local


def _global(frame, event, arg):
    name = frame.f_code.co_filename
    if name not in _inside:
        _inside[name] = os.path.realpath(name).startswith(_PACKAGE + os.sep)
        if _inside[name]:
            _hits.setdefault(name, set())
    return _local if _inside[name] else None


def _dump():
    sys.settrace(None)
    hits = {os.path.realpath(k): sorted(v) for k, v in _hits.items() if v}
    fd, _ = tempfile.mkstemp(suffix=".json", dir=_OUT)
    with os.fdopen(fd, "w", encoding="utf-8") as fh:
        json.dump(hits, fh)


atexit.register(_dump)
threading.settrace(_global)
sys.settrace(_global)
'''


def code_lines(code) -> set[int]:
    """Line numbers in the line tables of a code object and those nested in it."""
    lines = {line for _, _, line in code.co_lines() if line}
    for const in code.co_consts:
        if hasattr(const, "co_lines"):
            lines |= code_lines(const)
    return lines


def run_suite(workdir: Path) -> tuple[int, dict[str, set[int]]]:
    """Run the suite traced; its exit code and the lines reached per file."""
    (workdir / "sitecustomize.py").write_text(SITECUSTOMIZE, encoding="utf-8")
    out = workdir / "hits"
    out.mkdir()
    path = [str(workdir), str(PACKAGE.parent), os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path)),
           "REACHABILITY_PACKAGE": str(PACKAGE), "REACHABILITY_OUT": str(out)}
    proc = subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider"],
                          cwd=ROOT, env=env)
    reached: dict[str, set[int]] = {}
    for dump in out.iterdir():
        for name, lines in json.loads(dump.read_text(encoding="utf-8")).items():
            reached.setdefault(name, set()).update(lines)
    return proc.returncode, reached


def ranges(lines) -> str:
    """Sorted line numbers as compact ranges: 3-5, 9."""
    spans: list[list[int]] = []
    for line in sorted(lines):
        if spans and line == spans[-1][1] + 1:
            spans[-1][1] = line
        else:
            spans.append([line, line])
    return ", ".join(str(a) if a == b else f"{a}-{b}" for a, b in spans)


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        code, reached = run_suite(Path(tmp))
    print(f"\nsuite exit code {code}\n")
    totals = [0, 0, 0, 0]
    print(f"{'module':<16} {'lines':>11} {'raises':>9}")
    rows = []
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text(encoding="utf-8")
        lines = code_lines(compile(source, str(path), "exec"))
        hit = reached.get(str(path), set()) & lines
        raises = [node for node in ast.walk(ast.parse(source)) if isinstance(node, ast.Raise)]
        missed = sorted((node for node in raises if node.lineno not in hit),
                        key=lambda node: node.lineno)
        counts = (len(hit), len(lines), len(raises) - len(missed), len(raises))
        totals = [t + c for t, c in zip(totals, counts)]
        print(f"{path.name:<16} {counts[0]:>5}/{counts[1]:<5} {counts[2]:>4}/{counts[3]:<4}")
        rows.append((path.name, sorted(lines - hit), missed, source.splitlines()))
    print(f"{'total':<16} {totals[0]:>5}/{totals[1]:<5} {totals[2]:>4}/{totals[3]:<4}")
    for name, unreached, missed, text in rows:
        if unreached:
            print(f"\n{name}: unreached lines {ranges(unreached)}")
        for node in missed:
            print(f"  unreached raise {name}:{node.lineno}: {text[node.lineno - 1].strip()}")
    return code


if __name__ == "__main__":
    sys.exit(main())
