import json
import math
import os
import re
import shutil
import sys
from pathlib import Path

import numpy as np
import pytest

from castillon import cli, core
from castillon.problemfile import ProblemFileError, parse_problem_text, round15

from conftest import bench_module
from oracles import sin_angle


def write(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


def run(args):
    return cli.main(args)


def test_solve_incircle_6913(tmp_path, capsys):
    path = write(tmp_path, "p.json",
                 {"schema": "castillon/1",
                  "triangle": {"a": 6, "b": 9, "c": 13},
                  "circle": "incircle"})
    assert run(["solve", path]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["schema"] == "castillon/1"
    assert len(doc["solutions"]) == 2
    sym = np.array(doc["shared"]["symmedian"])
    assert sin_angle(sym, [1 / 8, 1 / 5, 1.0]) < 1e-10
    assert doc["residuals"]["on_circle"] < 1e-10
    assert doc["residuals"]["incidence"] < 1e-10


def test_solve_all_cross_deviation_equilateral(tmp_path, capsys):
    path = write(tmp_path, "p.json",
                 {"triangle": {"a": 2, "b": 2, "c": 2}, "circle": "incircle"})
    assert run(["solve", path, "--solver", "all"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["residuals"]["cross_solver_max_deviation"] < 1e-9


def test_solve_excircle_vertices_input(tmp_path, capsys):
    path = write(tmp_path, "p.json",
                 {"triangle": {"vertices": [[3, 4], [0, 0], [3, 0]]},
                  "circle": "excircle-A"})
    assert run(["solve", path]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert abs(doc["circle"]["radius"] - 2.0) < 1e-12


def test_solve_inconic(tmp_path, capsys):
    path = write(tmp_path, "p.json",
                 {"triangle": {"a": 3, "b": 4, "c": 5},
                  "inconic_perspector": [1, 1, 1]})
    assert run(["solve", path]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["solver"] == "inconic-transport"
    assert doc["image_circle"] == "incircle"
    assert doc["residuals"]["tangency"] < 1e-8


def test_solve_near_side_inconic(tmp_path, capsys):
    path = write(tmp_path, "p.json",
                 {"triangle": {"a": 6, "b": 9, "c": 13},
                  "inconic_perspector": [1, 1e-6, 1e-6]})
    assert run(["solve", path]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["residuals"]["incidence"] <= 1e-9


def test_solve_thin_inconic_exits_degenerate(tmp_path, capsys):
    # the common conic's tangency check rejects it (residual ~5e-6)
    path = write(tmp_path, "p.json",
                 {"triangle": {"a": 6, "b": 9, "c": 13},
                  "inconic_perspector": [1, 2, 1e-6]})
    assert run(["solve", path]) == 4
    assert "common conic misses a solution side" in capsys.readouterr().err


def test_solve_negative_perspector_is_its_positive_twin(tmp_path, capsys):
    # an all-negative perspector names the same inconic; only the echoed
    # problem differs
    docs = []
    for perspector in ([1, 2, 3], [-1, -2, -3]):
        path = write(tmp_path, "p.json", {"triangle": {"a": 6, "b": 9, "c": 13},
                                          "inconic_perspector": perspector})
        assert run(["solve", path]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc.pop("problem")["inconic_perspector"] == perspector
        docs.append(doc)
    assert docs[0] == docs[1]


def test_exit_codes(tmp_path, capsys, monkeypatch):
    bad = tmp_path / "bad.json"
    bad.write_text("{ not json", encoding="utf-8")
    assert run(["solve", str(bad)]) == 2
    assert "line 1" in capsys.readouterr().err

    missing = tmp_path / "absent.json"
    assert run(["verify", str(missing)]) == 2
    assert capsys.readouterr().err.startswith(f"error: cannot read {missing}: ")

    missing_kind = write(tmp_path, "k.json", {"circle": "incircle"})
    assert run(["solve", missing_kind]) == 2
    capsys.readouterr()

    schema_bad = write(tmp_path, "s.json",
                       {"triangle": {"a": -1, "b": 2, "c": 2}, "circle": "incircle"})
    assert run(["solve", schema_bad]) == 2
    assert "$.triangle" in capsys.readouterr().err

    no_solution = write(tmp_path, "n.json",
                        {"circle": {"center": [0, 0], "radius": 1},
                         "points": [[0.5, 0], [0.5, 0], [0.5, 0]]})
    assert run(["solve", no_solution]) == 3
    capsys.readouterr()

    degenerate = write(tmp_path, "d.json",
                       {"circle": {"center": [0, 0], "radius": 1},
                        "points": [[2, 1], [2, 1], [-1, 3], [-1, 3]]})
    assert run(["solve", degenerate]) == 4
    capsys.readouterr()

    flat = write(tmp_path, "f.json",
                 {"triangle": {"a": 1, "b": 1, "c": 2}, "circle": "incircle"})
    assert run(["solve", flat]) == 4
    capsys.readouterr()

    # invalid options, settings and output paths are invalid input too
    good = write(tmp_path, "g.json", {"triangle": {"a": 6, "b": 9, "c": 13},
                                      "circle": "incircle"})
    for seed in ("abc", "-1", "1e3", ""):
        monkeypatch.setenv("CASTILLON_SEED", seed)
        assert run(["verify", good, "--sweep", "2"]) == 2
        assert capsys.readouterr().err == (
            f"error: CASTILLON_SEED must be a non-negative integer, got {seed!r}\n")
    monkeypatch.setenv("CASTILLON_SEED", " 7 ")
    assert run(["verify", good, "--sweep", "2"]) == 0
    assert "(input + 2 random, seed 7)" in capsys.readouterr().out
    assert run(["verify", good, "--sweep", "-3"]) == 2
    assert capsys.readouterr().err == "error: --sweep must be a non-negative count, got -3\n"
    unwritable = tmp_path / "absent" / "x"
    for args in (["solve", good], ["render", good, "--figure", "inc"]):
        assert run(args + ["--out", str(unwritable)]) == 2
        assert capsys.readouterr().err.startswith(f"error: cannot write {unwritable}: ")


def test_solve_pivot_on_circle(tmp_path, capsys):
    # one genuine solution, whose vertex after the pivot is the pivot
    path = write(tmp_path, "p.json",
                 {"circle": {"center": [0, 0], "radius": 1},
                  "points": [[1, 0], [2, 1.5], [-1.5, 2]]})
    assert run(["solve", path]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert len(doc["solutions"]) == 1
    assert doc["solutions"][0]["multiplicity"] == "single"
    assert np.linalg.norm(np.array(doc["solutions"][0]["vertices"][1]) - [1, 0]) < 1e-12
    assert doc["residuals"]["incidence"] < 1e-12

    # the pivot twice: the composed chord map is zero
    path = write(tmp_path, "q.json",
                 {"circle": {"center": [0, 0], "radius": 1},
                  "points": [[1, 0], [1, 0], [0, 0.5]]})
    assert run(["solve", path]) == 4
    assert "composed chord map is zero" in capsys.readouterr().err


def test_verify_passes(tmp_path, capsys):
    path = write(tmp_path, "p.json", {"triangle": {"a": 6, "b": 9, "c": 13}})
    assert run(["verify", path]) == 0
    out = capsys.readouterr().out
    assert "shared-brocard-objects" in out and "PASS" in out
    assert "FAIL" not in out


def test_verify_345(tmp_path, capsys):
    path = write(tmp_path, "p.json",
                 {"triangle": {"a": 3, "b": 4, "c": 5}, "circle": "incircle"})
    assert run(["verify", path]) == 0
    capsys.readouterr()


def test_verify_near_degenerate_fixed_tolerances(tmp_path, capsys):
    # the tolerances are the same at every aspect ratio: aspect 1e3, the
    # certified bound, passes; far beyond it a thin triangle is never a
    # silent PASS, but a failed check row or exit 4
    path = write(tmp_path, "p.json", {"triangle": {"a": 1, "b": 1, "c": 2 - 1e-3}})
    assert run(["verify", path]) == 0
    assert "FAIL" not in capsys.readouterr().out

    path = write(tmp_path, "q.json", {"triangle": {"a": 1, "b": 1, "c": 1.9999999}})
    code = run(["verify", path])
    out = capsys.readouterr().out
    assert code in (1, 4)
    if code == 1:
        assert re.search(r"^  \S+\s+FAIL .* tol \S+$", out, re.MULTILINE)


def test_verify_large_triangle_passes(tmp_path, capsys):
    # residuals are dimension-free, so the scale of the input does not matter
    path = write(tmp_path, "p.json", {"triangle": {"a": 6e6, "b": 9e6, "c": 13e6}})
    assert run(["verify", path]) == 0
    assert "FAIL" not in capsys.readouterr().out


def test_verify_sweep_env_seed(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("CASTILLON_SEED", "7")
    path = write(tmp_path, "p.json", {"triangle": {"a": 3, "b": 4, "c": 5}})
    assert run(["verify", path, "--sweep", "3"]) == 0
    out = capsys.readouterr().out
    assert "seed 7" in out


def test_centers_command(tmp_path, capsys):
    path = write(tmp_path, "p.json", {"triangle": {"a": 6, "b": 9, "c": 13}})
    assert run(["centers", path, "--index", "7"]) == 0
    out = capsys.readouterr().out
    vals = np.array([float(x) for x in out.split()[1:]])
    assert sin_angle(vals, [1 / 8, 1 / 5, 1.0]) < 1e-12

    assert run(["centers", path, "--pairs"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 56
    assert sum(1 for l in lines if l.endswith("verified")) >= 10
    assert run(["centers", path, "--index", "99999"]) == 2


@pytest.mark.parametrize("side", [2, 3.7])
def test_verify_equilateral_passes(tmp_path, capsys, side):
    # the correspondence pairs with a center that vanishes on an
    # equilateral triangle skip it, as the Brocard-axis checks do
    path = write(tmp_path, "p.json", {"triangle": {"a": side, "b": side, "c": side}})
    assert run(["verify", path]) == 0
    out = capsys.readouterr().out
    assert len(out.splitlines()) == 4 and out.count("  PASS  ") == 4


def test_centers_undefined_center_exits_degenerate(tmp_path, capsys):
    # X16 and X516 are undefined on an equilateral triangle: exit 4 naming
    # them, with no partial listing and no numpy warning.  On (2, 2, 2) X16
    # is the exact zero triple; on (3.7, 3.7, 3.7) both are rounding noise
    # that would normalize to the centroid
    import warnings
    for side in (2, 3.7):
        path = write(tmp_path, "p.json", {"triangle": {"a": side, "b": side, "c": side}})
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run(["centers", path]) == 4
        out, err = capsys.readouterr()
        assert out == "" and "X16 is undefined on this triangle" in err
        assert run(["centers", path, "--index", "516"]) == 4
        out, err = capsys.readouterr()
        assert out == "" and "X516 is undefined on this triangle" in err
        assert run(["centers", path, "--index", "1"]) == 0
        assert capsys.readouterr().out == \
            "X1 0.333333333333333 0.333333333333333 0.333333333333333\n"


def test_solution_file_residuals_reproducible(tmp_path, capsys):
    path = write(tmp_path, "p.json",
                 {"triangle": {"a": 6, "b": 9, "c": 13}, "circle": "incircle"})
    out_path = tmp_path / "sol.json"
    assert run(["solve", path, "--out", str(out_path)]) == 0
    doc = json.loads(out_path.read_text())
    tri = core.triangle_from_sides(6, 9, 13)
    circ = core.tagged_circle(tri, core.INCIRCLE)
    on_circle = 0.0
    incidence = 0.0
    for sol in doc["solutions"]:
        verts = np.array(sol["vertices"])
        for i in range(3):
            on_circle = max(on_circle, abs(
                np.linalg.norm(verts[i] - circ.center) - circ.radius) / circ.radius)
            side = core.cart_line(verts[i], verts[(i + 1) % 3])
            incidence = max(incidence, min(
                core.point_line_distance(P, side) for P in tri.vertices) / circ.radius)
    assert abs(on_circle - doc["residuals"]["on_circle"]) < 1e-12
    assert abs(incidence - doc["residuals"]["incidence"]) < 1e-12


BIG = "1" + "0" * 399  # a 400-digit integer, beyond a double's range


@pytest.mark.parametrize("text, literal", [
    ('{"triangle": {"a": NaN, "b": 4, "c": 5}, "circle": "incircle"}', "NaN"),
    ('{"triangle": {"vertices": [[0, 0], [NaN, 0], [0, 1]]}, "circle": "incircle"}', "NaN"),
    ('{"circle": {"center": [0, 0], "radius": NaN}, "points": [[2, 0], [0, 2], [-2, 0]]}',
     "NaN"),
    ('{"circle": {"center": [0, 0], "radius": 1e400}, "points": [[2, 0], [0, 2], [-2, 0]]}',
     "1e400"),
    ('{"circle": {"center": [0, 0], "radius": 1}, "points": [[2, 0], [0, Infinity], [-2, 0]]}',
     "Infinity"),
    ('{"circle": {"center": [0, 0], "radius": 1}, "points": [[2, 0], [0, 2], [-Infinity, 0]]}',
     "-Infinity"),
    ('{"triangle": {"a": %s, "b": 4, "c": 5}, "circle": "incircle"}' % BIG, BIG),
    ('{"circle": {"center": [0, 0], "radius": 1}, "points": [[2, 0], [0, 2], [-%s, 0]]}' % BIG,
     "-" + BIG),
], ids=["nan-side", "nan-vertex", "nan-radius", "overflowing-radius", "infinite-point",
        "minus-infinite-point", "400-digit-side", "400-digit-point"])
def test_non_finite_numbers_are_invalid_input(tmp_path, capsys, text, literal):
    # exit 2, not 4 (a degenerate configuration) or 1 (a failed claim)
    path = tmp_path / "p.json"
    path.write_text(text, encoding="utf-8")
    assert run(["solve", str(path)]) == 2
    assert capsys.readouterr().err == f"error: number {literal} is not a finite double\n"


def test_output_rounding_rejects_non_finite_and_unknown_values():
    # an output document holds only finite numbers, strings, booleans and
    # None, in dicts and lists; floats keep 15 significant digits
    doc = {"x": (0.1 + 0.2, -0.0, np.float64(2.0 / 3.0)), "n": [np.int64(3), "s", True, None]}
    assert round15(doc) == {"x": [0.3, 0.0, 0.666666666666667], "n": [3, "s", True, None]}
    for bad in (math.nan, -math.inf, np.float64(math.inf)):
        with pytest.raises(ValueError, match="non-finite value in output document"):
            round15({"residuals": [1.0, bad]})
    for bad in (object(), {1.0}, np.zeros(2), 1j):
        with pytest.raises(TypeError, match="cannot serialize"):
            round15({"vertices": [bad]})


GENERAL = {"circle": {"center": [0, 0], "radius": 1}, "points": [[2, 0], [0, 2], [-2, 0]]}
NO_KIND =("no problem kind resolvable: give triangle+named circle, "
           "triangle+inconic_perspector, or circle+points")


@pytest.mark.parametrize("problem, solver, message", [
    ({"triangle": {"a": 3, "b": 4, "c": 5}, "inconic_perspector": [1, 2, 3]}, "perspectrix",
     "inconic problems support only the transport solver"),
    (GENERAL, "perspectrix", "general problems support only the mobius solver"),
    ({"triangle": {"a": 3, "b": 4, "c": 5}}, "closed", "solve needs a circle, perspector or points"),
    ({"inconic_perspector": [1, 2, 3]}, "closed", "an inconic perspector requires a triangle"),
    ({"circle": {"center": [0, 0], "radius": 1}}, "closed", NO_KIND),
    ({"triangle": {"a": 3, "b": 4, "c": 5}, "circle": {"center": [0, 0], "radius": 1}},
     "closed", NO_KIND),
])
def test_solve_rejects_what_it_cannot_solve(tmp_path, capsys, problem, solver, message):
    path = write(tmp_path, "p.json", problem)
    assert run(["solve", path, "--solver", solver]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize("command", ["verify", "centers", "render"])
def test_triangle_commands_reject_a_general_problem(tmp_path, capsys, command):
    path = write(tmp_path, "p.json", GENERAL)
    out = tmp_path / "fig.svg"
    options = ["--figure", "inc", "--out", str(out)] if command == "render" else []
    assert run([command, path, *options]) == 2
    assert capsys.readouterr().err == f"error: {command} requires a triangle-based problem\n"
    assert not out.exists()


def test_parse_problem_rejects_ambiguity():
    with pytest.raises(ProblemFileError):
        parse_problem_text(json.dumps({
            "triangle": {"a": 3, "b": 4, "c": 5},
            "inconic_perspector": [1, 1, 1],
            "points": [[1, 0], [0, 1], [1, 1]],
        }))
    with pytest.raises(ProblemFileError):
        parse_problem_text(json.dumps({"points": [[1, 0], [0, 1], [1, 1]]}))


# --- render -------------------------------------------------------------------


def test_render_incircle_structure(tmp_path):
    prob = write(tmp_path, "p.json",
                 {"triangle": {"a": 6, "b": 9, "c": 13}, "circle": "incircle"})
    out = tmp_path / "fig.svg"
    assert run(["render", prob, "--figure", "inc", "--out", str(out)]) == 0
    svg = out.read_text()
    assert svg.count("<polygon") == 3
    assert svg.count("<circle") == 1
    assert svg.startswith("<?xml")


def test_render_excircles_structure(tmp_path):
    prob = write(tmp_path, "p.json", {"triangle": {"a": 6, "b": 9, "c": 13}})
    out = tmp_path / "fig.svg"
    assert run(["render", prob, "--figure", "excs", "--out", str(out)]) == 0
    svg = out.read_text()
    assert svg.count("<circle") == 4
    assert svg.count('class="axis"') == 4
    assert svg.count("marker-x20") == 1
    # the marked point agrees with the registry's X20 (svg y is negated)
    from castillon import centers
    tri = core.triangle_from_sides(6, 9, 13)
    X20 = core.bary_to_cartesian(centers.center(20, tri), tri)
    import re
    m = re.search(r'marker-x20" data-cx="([-0-9.]+)" data-cy="([-0-9.]+)"', svg)
    got = np.array([float(m.group(1)), -float(m.group(2))])
    assert np.linalg.norm(got - X20) < 1e-6


def test_render_deterministic(tmp_path):
    prob = write(tmp_path, "p.json",
                 {"triangle": {"a": 6, "b": 9, "c": 13}, "circle": "incircle"})
    out1, out2 = tmp_path / "a.svg", tmp_path / "b.svg"
    for figure in ("inc", "broc", "excs"):
        assert run(["render", prob, "--figure", figure, "--out", str(out1)]) == 0
        assert run(["render", prob, "--figure", figure, "--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()


def test_figures_are_well_formed_xml(tmp_path):
    import xml.etree.ElementTree as ET
    prob = write(tmp_path, "p.json",
                 {"triangle": {"a": 6, "b": 9, "c": 13},
                  "inconic_perspector": [1, 2, 1]})
    for figure in ("inc", "broc", "excs", "inconic"):
        out = tmp_path / f"{figure}.svg"
        assert run(["render", prob, "--figure", figure, "--out", str(out)]) == 0
        root = ET.fromstring(out.read_text())
        assert root.tag.endswith("svg")
        assert "viewBox" in root.attrib


def test_console_script_subprocess(tmp_path):
    # the entry point end to end, and cross-process determinism: the installed
    # console script when it is on PATH, else `python -m castillon` on the
    # package this test imports
    import castillon
    import subprocess
    command = [shutil.which("castillon")]
    env = None
    if command[0] is None:
        command = [sys.executable, "-m", "castillon"]
        package_root = os.path.dirname(os.path.dirname(castillon.__file__))
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, [package_root, os.environ.get("PYTHONPATH")]))}
    prob = write(tmp_path, "p.json",
                 {"triangle": {"a": 6, "b": 9, "c": 13}, "circle": "incircle"})
    outs = []
    for name in ("s1.json", "s2.json"):
        path = tmp_path / name
        proc = subprocess.run(
            command + ["solve", prob, "--solver", "all", "--out", str(path)],
            capture_output=True, text=True, env=env)
        assert proc.returncode == 0, proc.stderr
        outs.append(path.read_bytes())
    assert outs[0] == outs[1]
    proc = subprocess.run(command + ["verify", prob],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "PASS" in proc.stdout


def test_cli_module_entry_point(tmp_path):
    # `python -m castillon.cli`, as the benchmark runs it, prints what
    # `cli.main` prints in process
    import castillon
    import subprocess
    package_root = os.path.dirname(os.path.dirname(castillon.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [package_root, os.environ.get("PYTHONPATH")]))}
    prob = write(tmp_path, "p.json",
                 {"triangle": {"a": 6, "b": 9, "c": 13}, "circle": "excircle-B"})
    proc = subprocess.run([sys.executable, "-m", "castillon.cli", "solve", prob,
                           "--solver", "all"], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    out = tmp_path / "s.json"
    assert run(["solve", prob, "--solver", "all", "--out", str(out)]) == 0
    assert proc.stdout == out.read_text(encoding="utf-8")


def test_console_script_declared():
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    scripts = tomllib.loads(pyproject.read_text(encoding="utf-8"))["project"]["scripts"]
    assert scripts["castillon"] == "castillon.cli:main"


def test_verify_solves_each_circle_once(tmp_path, capsys, monkeypatch):
    # one frame batch per solution triangle: 4 circles x 2 solutions, each
    # over all 81 triangles of the sweep
    from castillon import brocard
    calls = []
    frame = brocard.brocard_frame

    def counted_frame(tri):
        calls.append(len(tri.a))
        return frame(tri)

    monkeypatch.setattr(brocard, "brocard_frame", counted_frame)
    path = write(tmp_path, "p.json", {"triangle": {"a": 6, "b": 9, "c": 13}})
    assert run(["verify", path, "--sweep", "80"]) == 0
    capsys.readouterr()
    assert calls == [81] * 8


def test_verify_builds_lazy_frames_once_per_sweep(tmp_path, capsys, monkeypatch):
    # the whole sweep is one batch, the 24-vertex generator permutes tuples
    # instead of calling np.roll, and the six excircle frames build only
    # what the de Longchamps check reads (the axis), never their Brocard
    # points or Lemoine line
    from castillon import brocard
    rolls, batches = [], []
    roll, stack = np.roll, core.stack_triangles

    def counted_roll(*args, **kwargs):
        rolls.append(args)
        return roll(*args, **kwargs)

    def recorded_stack(triangles):
        batches.append(stack(triangles))
        return batches[-1]

    monkeypatch.setattr(np, "roll", counted_roll)
    monkeypatch.setattr(core, "stack_triangles", recorded_stack)
    path = write(tmp_path, "p.json", {"triangle": {"a": 6, "b": 9, "c": 13}})
    assert run(["verify", path, "--sweep", "80"]) == 0
    capsys.readouterr()
    assert rolls == []
    (batch,) = batches
    assert len(batch.a) == 81
    for tag in core.CIRCLE_TAGS[1:]:
        for k in (0, 1):
            built = set(vars(brocard.solution_frame(batch, tag, k))) - {
                "triangle", "R", "a2", "b2", "c2"}
            assert built == {"X3", "X6", "X3_cart", "X6_cart", "delta", "axis_cart"}
    incircle_built = set(vars(brocard.solution_frame(batch, core.INCIRCLE)))
    assert {"Omega1", "Omega1_cart", "lemoine", "lemoine_cart", "X187"} <= incircle_built


@pytest.mark.parametrize("seed", [1000, 2000, 424242000])
def test_verify_sweep_80_meets_benchmark_checker(tmp_path, capsys, monkeypatch, seed):
    # the sweeps the benchmark runs (CASTILLON_SEED = seed * 1000 + i); every
    # claim row must read PASS on each
    checks = bench_module(monkeypatch, "checks")
    monkeypatch.setenv("CASTILLON_SEED", str(seed))
    path = write(tmp_path, "p.json",
                 {"triangle": {"vertices": [[1.5, 4.0], [0.0, 0.0], [6.0, 0.5]]}})
    assert run(["verify", path, "--sweep", "80"]) == 0
    assert checks.check_verify(capsys.readouterr().out.encode(), 81) == []


@pytest.mark.parametrize("solver", ["closed", "all"])
def test_solve_computes_closed_form_once(tmp_path, capsys, monkeypatch, solver):
    # the four circles and their closed form are built once per triangle,
    # and serve the circle, the solutions and the shared block
    from castillon import ccp_closed
    calls = []
    build = ccp_closed.build_four_circles

    def counted(tri):
        calls.append(tri.sides)
        return build(tri)

    monkeypatch.setattr(ccp_closed, "build_four_circles", counted)
    path = write(tmp_path, "p.json",
                 {"triangle": {"a": 6, "b": 9, "c": 13}, "circle": "excircle-B"})
    assert run(["solve", path, "--solver", solver]) == 0
    capsys.readouterr()
    assert calls == [(6.0, 9.0, 13.0)]


@pytest.mark.parametrize("argv, frames", [
    (["solve", "--solver", "closed"], 1),
    (["solve", "--solver", "all"], 1),
    (["render", "--figure", "broc", "--out", "fig.svg"], 1),
    (["render", "--figure", "excs", "--out", "fig.svg"], 4),
])
def test_solve_and_render_build_each_frame_once(tmp_path, capsys, monkeypatch, argv, frames):
    # a frame is kept with its triangle: `solve` reads the T1 frame of its
    # circle for the shared block and builds no T2 frame, `render broc` the
    # incircle's T1 frame, `render excs` the T1 frame of each circle
    from castillon import brocard
    calls = []
    frame = brocard.brocard_frame

    def counted_frame(tri):
        calls.append(tri.sides)
        return frame(tri)

    monkeypatch.setattr(brocard, "brocard_frame", counted_frame)
    monkeypatch.chdir(tmp_path)
    path = write(tmp_path, "p.json",
                 {"triangle": {"a": 6, "b": 9, "c": 13}, "circle": "excircle-B"})
    assert run([argv[0], path, *argv[1:]]) == 0
    capsys.readouterr()
    assert len(calls) == frames


def test_verify_on_a_circle_at_infinity_exits_degenerate(tmp_path, capsys):
    # the needle (2, 1, 1 + 1e-14) has its A-excircle's centre at infinity,
    # so that circle has no closed-form solutions: verify stops before any
    # claim, where it used to fail on a meaningless incircle frame
    path = write(tmp_path, "p.json", {"triangle": {"a": 2, "b": 1, "c": 1 + 1e-14}})
    assert run(["verify", path]) == 4
    assert capsys.readouterr() == ("", f"error: {core.AT_INFINITY}\n")


@pytest.mark.parametrize("solver", ["perspectrix", "all"])
def test_solve_exits_degenerate_where_the_axis_misses_the_circle(tmp_path, capsys, solver):
    # on this needle the perspectrix axis of the B-excircle misses the
    # circle (`NoRealIntersection`); mobius's exit 3 here is a known wrong
    # answer, since two solutions exist, so it is not pinned
    path = write(tmp_path, "p.json", {
        "triangle": {"a": 5.336233865690943, "b": 5.495607786573558, "c": 0.1593739907196531},
        "circle": "excircle-B"})
    assert run(["solve", path, "--solver", solver]) == 4
    assert capsys.readouterr() == ("", "error: axis does not meet the circle\n")


def _traced_layers() -> dict:
    """`LAYERS` of the benchmark's call tracer, read from its file."""
    import ast
    shim = Path(__file__).resolve().parents[1] / "perfbench" / "shim.py"
    tree = ast.parse(shim.read_text(encoding="utf-8"))
    return next(ast.literal_eval(node.value) for node in tree.body
                if isinstance(node, ast.Assign)
                and any(getattr(t, "id", None) == "LAYERS" for t in node.targets))


def test_traced_layers_exist():
    # the benchmark's call tracer wraps these functions by name
    import importlib
    layers = _traced_layers()
    missing = [f"{mod}.{fn}" for mod, fns in layers.items() for fn in fns
               if not callable(getattr(importlib.import_module(f"castillon.{mod}"),
                                       fn, None))]
    assert layers and not missing


def test_traced_functions_have_one_name():
    # the tracer replaces each function on its own module; a second binding,
    # such as a `from .x import f` re-export, would call the original untraced
    import importlib
    homes = {}
    for mod, fns in _traced_layers().items():
        module = importlib.import_module(f"castillon.{mod}")
        for fn in fns:
            homes[id(getattr(module, fn))] = f"castillon.{mod}.{fn}"
    second = [f"{name}.{attr} -> {homes[id(value)]}"
              for name, module in sorted(sys.modules.items())
              if name.split(".")[0] == "castillon"
              for attr, value in vars(module).items()
              if id(value) in homes and homes[id(value)] != f"{name}.{attr}"]
    assert homes and not second


def test_verify_output_meets_benchmark_checker(tmp_path, capsys, monkeypatch):
    checks = bench_module(monkeypatch, "checks")
    monkeypatch.setenv("CASTILLON_SEED", "1")
    path = write(tmp_path, "p.json", {"triangle": {"a": 6, "b": 9, "c": 13}})
    assert run(["verify", path, "--sweep", "20"]) == 0
    out = capsys.readouterr().out.encode()
    assert checks.check_verify(out, 21) == []
    assert checks.check_verify(out.replace(b"  PASS  ", b"  FAIL  ", 1), 21)


def test_solve_output_meets_benchmark_checker(tmp_path, capsys, monkeypatch):
    checks = bench_module(monkeypatch, "checks")
    problem = {"triangle": {"vertices": [[1.5, 4.0], [0.0, 0.0], [6.0, 0.5]]},
               "circle": "excircle-B"}
    path = write(tmp_path, "p.json", problem)
    assert run(["solve", path, "--solver", "all"]) == 0
    out = capsys.readouterr().out.encode()
    assert checks.check_solve_triangle(problem, out)[0] == []

    problem = {"triangle": {"vertices": [[1.5, 4.0], [0.0, 0.0], [6.0, 0.5]]},
               "inconic_perspector": [3, 1, 2]}
    path = write(tmp_path, "q.json", problem)
    assert run(["solve", path]) == 0
    out = capsys.readouterr().out.encode()
    assert checks.check_solve_inconic(problem, out) == []


def test_verify_flat_triangle_exits_degenerate(tmp_path, capsys):
    path = write(tmp_path, "p.json", {"triangle": {"a": 1, "b": 1, "c": 2}})
    assert run(["verify", path]) == 4
    assert "degenerate" in capsys.readouterr().err


def test_verify_exit_one_on_failed_claim(tmp_path, capsys, monkeypatch):
    # the claims hold for every valid triangle, so force one failure to pin
    # the exit-code contract
    from castillon import brocard

    failing = brocard.Report(
        name="shared-brocard-objects",
        checks=(brocard.check("forced", np.array([1.0]), 1e-9),),
    )
    monkeypatch.setattr(cli.brocard, "verify_shared_objects", lambda tri: failing)
    path = write(tmp_path, "p.json", {"triangle": {"a": 3, "b": 4, "c": 5}})
    assert run(["verify", path]) == 1
    assert "FAIL" in capsys.readouterr().out


def test_verify_names_worst_triangle_of_failed_check(tmp_path, capsys, monkeypatch):
    # a failing check row names the triangle with its largest failing
    # residual, by index in the sweep (0 is the input) and sides, so it can
    # be rerun; here the forced residual is side a, so the largest a fails
    from castillon import brocard
    claim = brocard.verify_shared_objects
    seen = []

    def forced(t):
        seen.append(t)
        rep = claim(t)
        return rep._replace(checks=rep.checks + (brocard.check("forced", t.a, 5.0),))

    monkeypatch.setattr(cli.brocard, "verify_shared_objects", forced)
    monkeypatch.setenv("CASTILLON_SEED", "3")
    path = write(tmp_path, "p.json", {"triangle": {"a": 3, "b": 4, "c": 5}})
    assert run(["verify", path, "--sweep", "40"]) == 1
    out = capsys.readouterr().out
    (t,) = seen
    i = int(np.argmax(t.a))
    assert t.a[i] > 5.0
    sides = ", ".join(repr(float(x[i])) for x in t.sides)
    row = f"FAIL  max-residual {t.a[i]:.3e}  worst triangle {i} (sides {sides}), tol 5"
    assert re.search(r"^  forced\s+" + re.escape(row) + "$", out, re.MULTILINE), out
    assert out.count("FAIL") == 2  # the claim's row and the check's row


@pytest.mark.parametrize("circle", core.CIRCLE_TAGS)
def test_solve_all_agrees_on_a_far_shifted_triangle(tmp_path, capsys, circle):
    # the general solvers walk in the circle's frame, so a triangle far from
    # the origin solves as it does at the origin, up to the rounding of its
    # input coordinates (about 1e-10 at 1e6 and 1e-9 at 1e7); the perspectrix
    # identifies its named circle exactly, at any offset
    for offset in (1e6, 1e7):
        vertices = [[1.5 + offset, 4.0 + offset], [offset, offset], [6.0 + offset, 0.5 + offset]]
        path = write(tmp_path, "p.json", {"triangle": {"vertices": vertices}, "circle": circle})
        assert run(["solve", path, "--solver", "all"]) == 0, offset
        doc = json.loads(capsys.readouterr().out)
        assert doc["residuals"]["cross_solver_max_deviation"] <= 1e-8, offset


def test_solve_all_on_a_needle_exits_degenerate(tmp_path, capsys):
    # on the needle (2, 1, 1 + 1e-8) the three seed paths of the A-excircle
    # all but coincide, so no two of their cross points span the axis: the
    # perspectrix refuses instead of returning vertices 0.88 r off the closed
    # form, which mobius matches to 2.7e-4 r
    path = write(tmp_path, "p.json", {"triangle": {"a": 2, "b": 1, "c": 1.00000001},
                                      "circle": "excircle-A"})
    assert run(["solve", path, "--solver", "all"]) == 4
    assert capsys.readouterr() == (
        "", "error: cannot build the axis: no two cross points of the seed paths span it\n")
    assert run(["solve", path, "--solver", "mobius"]) == 0
    capsys.readouterr()


def test_clockwise_vertex_input(tmp_path, capsys):
    # negatively oriented vertex triples work through every code path
    path = write(tmp_path, "p.json",
                 {"triangle": {"vertices": [[3, 4], [3, 0], [0, 0]]},
                  "circle": "incircle"})
    assert run(["solve", path, "--solver", "all"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["residuals"]["cross_solver_max_deviation"] < 1e-9
    assert run(["verify", path]) == 0
    capsys.readouterr()


def test_render_inconic(tmp_path):
    prob = write(tmp_path, "p.json",
                 {"triangle": {"a": 3, "b": 4, "c": 5},
                  "inconic_perspector": [2, 1, 1]})
    out = tmp_path / "fig.svg"
    assert run(["render", prob, "--figure", "inconic", "--out", str(out)]) == 0
    svg = out.read_text()
    assert 'id="panel-problem"' in svg and 'id="panel-image"' in svg
    # missing perspector -> invalid input
    bare = write(tmp_path, "bare.json", {"triangle": {"a": 3, "b": 4, "c": 5}})
    assert run(["render", bare, "--figure", "inconic", "--out", str(out)]) == 2


@pytest.mark.parametrize("sides", [(6, 9, 13), (3, 4, 5)])
def test_render_inconic_draws_image_circle_unrotated(tmp_path, sides):
    # with the centroid as perspector the image panel's inellipse is a
    # circle, whose eigenvectors carry no direction
    a, b, c = sides
    prob = write(tmp_path, "p.json", {"triangle": {"a": a, "b": b, "c": c},
                                      "inconic_perspector": [1, 1, 1]})
    out = tmp_path / "fig.svg"
    assert run(["render", prob, "--figure", "inconic", "--out", str(out)]) == 0
    image = out.read_text().split('id="panel-image"')[1]
    ellipse = re.search(r'<ellipse class="conic" [^>]*/>', image).group(0)
    assert 'rx="0.500000" ry="0.500000"' in ellipse
    assert 'transform="rotate(0.000000 ' in ellipse


@pytest.mark.parametrize("seed", ["0", "424242"])
def test_verify_sweep_2000_meets_benchmark_checker(tmp_path, capsys, monkeypatch, seed):
    # 2,001 triangles in one batch: a wrong verdict on any of them shows as
    # a FAIL row, which the benchmark's checker rejects
    checks = bench_module(monkeypatch, "checks")
    monkeypatch.setenv("CASTILLON_SEED", seed)
    path = write(tmp_path, "p.json", {"triangle": {"a": 6, "b": 9, "c": 13}})
    assert run(["verify", path, "--sweep", "2000"]) == 0
    out = capsys.readouterr().out
    assert checks.check_verify(out.encode(), 2001) == [], out
