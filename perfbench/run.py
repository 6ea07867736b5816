"""The castillon benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root; the package is imported from ./src.  NAME is
one of WORKLOADS, or `all`, which runs each of them in turn.  Every workload
is a closed loop with one client.  With --trace 0 the run measures the
end-to-end metrics; with --trace 1 it alternates untraced and traced passes
over a fixed input set and reports per-layer metrics from the tracing shims.
Human-readable lines come first; the last line of stdout is one JSON object
with the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import re
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from array import array
from pathlib import Path

import numpy as np

import checks
import inputs
import reference
from shim import FUNCTIONS

WORKLOADS = ("oracle-sweep", "verify-sweep", "cli-oneshot")
PREFIX = {"oracle-sweep": "oracle", "verify-sweep": "verify", "cli-oneshot": "oneshot"}
ROOT = Path.cwd()
SRC = ROOT / "src"
BENCH = Path(__file__).resolve().parent
WORK = ROOT / ".perfbench_work"
PY = sys.executable

SETUP_PROBES = 7
# setup_s: a fresh interpreter that imports castillon.cli, start to exit; for
# the oracle sweep it also draws its first triangles, so work moved into
# triangle construction shows in set-up.
SETUP_CODE = "import castillon.cli\n"
ORACLE_SETUP = ("import castillon.cli\nimport numpy\nfrom castillon import sampling\n"
                "rng = numpy.random.default_rng({seed})\n"
                "[sampling.random_triangle(rng) for _ in range(200)]\n")
VERIFY_SWEEP = 80        # random triangles per timed `verify --sweep` call
TRACE_VERIFY_SWEEP = 20  # per traced pass
IMPORT_PROBES = 3
CALL_TIMEOUT_S = 120
IMPORTS = ("castillon.cli", "jsonschema", "numpy")


def child_env(**extra) -> dict:
    env = {k: v for k, v in os.environ.items() if not k.startswith(("PYTHON", "CASTILLON_"))}
    env["PYTHONPATH"] = str(SRC)
    env.update(extra)
    return env


def run_child(cmd, env=None, timeout=CALL_TIMEOUT_S):
    """(exit code, stdout, stderr, wall seconds); exit code None on timeout."""
    t0 = time.perf_counter()
    try:
        p = subprocess.run(cmd, capture_output=True, env=env or child_env(), cwd=ROOT,
                           timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        return None, exc.stdout or b"", exc.stderr or b"", time.perf_counter() - t0
    return p.returncode, p.stdout, p.stderr, time.perf_counter() - t0


def run_reference_process() -> float:
    rc, _, err, wall = run_child([PY, str(BENCH / "reference.py")])
    if rc != 0:
        raise RuntimeError(f"reference process failed: {err.decode(errors='replace')[-400:]}")
    return wall


def peak_child_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0


def mean_ok(values) -> float:
    """Mean of the finite values (0 if none): the expected length of the next unit."""
    ok = [v for v in values if v < math.inf]
    return statistics.mean(ok) if ok else 0.0


def tail_percentile(n: int) -> int | None:
    """The highest whole percentile, at most 90, with ten samples beyond it."""
    if n < 20:
        return None
    return min(90, math.floor(100.0 * (1.0 - 10.0 / n)))


def percentile(values, q: int) -> float:
    """Nearest-rank percentile; failed items are +inf."""
    s = sorted(values)
    return s[max(0, math.ceil(q / 100.0 * len(s)) - 1)]


class Report:
    """What one workload run measured and checked."""

    def __init__(self, workload: str):
        self.workload = workload
        self.prefix = PREFIX[workload]
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.selfcheck: list[str] = []
        self.metrics: dict[str, tuple[float, str]] = {}
        self.lines: list[str] = []
        self.crit01 = checks.Exceedance(checks.CRIT01_TOL)
        self.crit02 = checks.Exceedance(checks.CRIT02_TOL)
        self.last_good: dict = {}  # a correct output per kind, for the self-check
        self.speed = reference.Speed(run_reference_process, reference.NOMINAL_PROCESS_S)

    def run_call(self, cmd, env=None):
        """Runs one timed child right after a reference process; returns the
        exit code, stdout, stderr and (start, wall seconds)."""
        self.speed.sample()
        start = time.perf_counter()
        rc, out, err, wall = run_child(cmd, env)
        return rc, out, err, (start, wall)

    def nominal(self, span) -> float:
        """The wall time of `span` at nominal speed; call after the
        reference that follows the span."""
        start, wall = span
        return wall * self.speed.scale(start, start + wall)

    def fail(self, what: str, errs) -> None:
        self.failed += 1
        if len(self.errors) < 5:
            self.errors.append(f"{what}: {'; '.join(errs)}")

    def line(self, name: str, value, unit: str, note: str = "") -> None:
        self.lines.append(f"metric {name} {value:.6g} {unit}  {note}".rstrip())

    def latency_lines(self, prefix: str, samples_ms, raw_ms, scale: float, unit: str) -> None:
        """Median and highest allowed tail percentile of a latency sample at
        nominal speed, with the raw median."""
        vals = [v * scale for v in samples_ms]
        n = len(vals)
        self.line(f"{prefix}_p50", statistics.median(vals), unit,
                  f"n={n}, raw {statistics.median(raw_ms) * scale:.6g}")
        q = tail_percentile(n)
        if q is not None:
            self.line(f"{prefix}_p{q}", percentile(vals, q), unit, f"n={n}, {n - math.ceil(q / 100 * n)} beyond")
        if q != 90:
            self.lines.append(f"note {prefix}_p90 needs 100 samples, have {n}")

    def acceptance_lines(self) -> None:
        """Criterion 01's deviation and criterion 02's reported residual,
        which the checkers report instead of failing on (see checks.py)."""
        for name, exc in (("crit01_max_dev", self.crit01), ("crit02_max_residual", self.crit02)):
            if self.workload != "oracle-sweep" or exc is self.crit01:
                self.line(f"{self.prefix}.{name}", exc.max, "r",
                          f"{exc.count} of {self.attempted} above {exc.tol:g} r")


# ---------------------------------------------------------------------------
# set-up and import probes


def measure_setup(report: Report, seed: int) -> tuple[float, float]:
    """Median set-up seconds over fresh interpreters, at nominal speed and raw."""
    code = ORACLE_SETUP.format(seed=seed) if report.workload == "oracle-sweep" else SETUP_CODE
    spans = []
    for _ in range(SETUP_PROBES):
        rc, out, err, span = report.run_call([PY, "-c", code])
        if rc != 0:
            raise RuntimeError(f"set-up probe failed: {err.decode(errors='replace')[-400:]}")
        spans.append(span)
    report.speed.sample()
    return (statistics.median(report.nominal(span) for span in spans),
            statistics.median(wall for _, wall in spans))


def measure_imports() -> dict[str, float]:
    """Median cumulative import time in ms of IMPORTS, from -X importtime."""
    got = {name: [] for name in IMPORTS}
    for _ in range(IMPORT_PROBES):
        rc, _, err, _ = run_child([PY, "-X", "importtime", "-c", "import castillon.cli"])
        if rc != 0:
            raise RuntimeError("import probe failed")
        for line in err.decode().splitlines():
            parts = line.split("|")
            if len(parts) == 3 and parts[2].strip() in got:
                got[parts[2].strip()].append(int(parts[1]) / 1000.0)
    return {name: statistics.median(v) for name, v in got.items()}


# ---------------------------------------------------------------------------
# subprocess calls and their checks


def cli_cmd(args, problem_path: Path, out_path: Path | None, traced: bool):
    head = [PY, str(BENCH / "traced_cli.py")] if traced else [PY, "-m", "castillon.cli"]
    cmd = head + [args[0], str(problem_path), *args[1:]]
    return cmd + ["--out", str(out_path)] if args[0] == "render" else cmd


def check_oneshot(kind: str, expected_rc: int, problem: dict, rc, stdout: bytes,
                  svg: bytes | None, first_solve: bytes | None):
    """Checks one cli-oneshot call; returns the errors, criterion 01's
    deviation and criterion 02's reported residual."""
    if rc != expected_rc:
        return [f"exit code {rc}, expected {expected_rc}"], 0.0, 0.0
    dev = reported = 0.0
    if kind.startswith("render"):
        errs = checks.check_render(problem, svg or b"")
    elif kind == "solve-inconic":
        errs = checks.check_solve_inconic(problem, stdout)
    elif kind.startswith("solve-points"):
        errs, reported = checks.check_solve_points(problem, stdout, expected_rc == 0)
    else:
        errs, dev, reported = checks.check_solve_triangle(problem, stdout)
        if kind == "solve-repeat" and stdout != first_solve:
            errs.append("repeated solve is not byte-identical")
    return errs, dev, reported


class OneshotCycle:
    """One cycle of cli-oneshot: each kind of call once, on its own input."""

    def __init__(self, docs, workdir: Path, index: int):
        self.docs = docs
        self.paths = []
        for j, doc in enumerate(docs):
            path = workdir / f"oneshot-{index}-{j}.json"
            path.write_bytes(inputs.encode(doc))
            self.paths.append(path)
        self.svg = workdir / f"oneshot-{index}.svg"

    def run(self, report: Report, traced_pass: int | None = None, spans_dir: Path | None = None):
        """Runs the calls; returns the (start, wall seconds) of each, None if
        it failed."""
        walls, first_solve = [], None
        for j, ((kind, args, expected), doc) in enumerate(zip(inputs.ONESHOT_KINDS, self.docs)):
            env = None
            if traced_pass is not None:
                env = child_env(PERFBENCH_SPANS=str(spans_dir / f"spans-{traced_pass}-{j}.json"),
                                PERFBENCH_ITEM=str(j), PERFBENCH_PASS=str(traced_pass))
            self.svg.unlink(missing_ok=True)
            rc, out, err, span = report.run_call(cli_cmd(args, self.paths[j], self.svg,
                                                         traced_pass is not None), env)
            svg = self.svg.read_bytes() if self.svg.exists() else None
            errs, dev, reported = check_oneshot(kind, expected, doc, rc, out, svg, first_solve)
            if j == 0:
                first_solve = out
            report.attempted += 1
            if errs:
                report.fail(f"{kind} {self.paths[j].name}", errs + [err.decode(errors="replace")[-300:]])
                walls.append(None)
                continue
            report.crit01.add(dev)
            report.crit02.add(reported)
            report.last_good[kind] = (doc, out, svg)
            walls.append(span)
        return walls


def oneshot_selfcheck(report: Report) -> list[str]:
    """Each checker must flag a corrupted output of this run."""
    bad = []
    for kind, expected, corrupt in (
        ("solve-incircle", 0, "vertex"),
        ("solve-points-3", 0, "vertex"),
        ("solve-inconic", 0, "vertex"),
        ("solve-points-none", 3, "exit"),
        ("render-broc", 0, "svg"),
        ("solve-repeat", 0, "bytes"),
    ):
        if kind not in report.last_good:
            bad.append(f"no correct {kind} output to corrupt")
            continue
        doc, out, svg = report.last_good[kind]
        rc, first = expected, out
        if corrupt == "vertex":
            sol = json.loads(out)
            v = np.asarray(sol["solutions"][0]["vertices"][0], float)
            if "circle" in sol:
                c, r = np.asarray(sol["circle"]["center"], float), sol["circle"]["radius"]
            else:
                tri = np.asarray(doc["triangle"]["vertices"], float)
                c = tri.mean(axis=0)
                r = max(np.linalg.norm(tri[i] - tri[i - 1]) for i in range(3))
            sol["solutions"][0]["vertices"][0] = list(v + 1e-6 * r * (v - c) / np.linalg.norm(v - c))
            out = json.dumps(sol).encode()
        elif corrupt == "exit":
            rc = expected + 1
        elif corrupt == "svg":
            svg = re.sub(rb'(class="reference" points=")(-?[0-9.]+)',
                         lambda m: m.group(1) + b"%.6f" % (float(m.group(2)) + 1e-3), svg, count=1)
        else:
            first = out + b" "
        if not check_oneshot(kind, expected, doc, rc, out, svg, first)[0]:
            bad.append(f"checker missed a corrupted {kind} ({corrupt})")
    return bad


def verify_selfcheck(report: Report) -> list[str]:
    if "verify" not in report.last_good:
        return ["no correct verify output to corrupt"]
    out, n = report.last_good["verify"]
    bad = []
    if not checks.check_verify(out.replace(b"  PASS  ", b"  FAIL  ", 1), n):
        bad.append("verify checker missed a FAIL line")
    if not checks.check_verify(out, n + 1):
        bad.append("verify checker missed a wrong triangle count")
    return bad


def inputs_selfcheck(workload: str, seed: int) -> list[str]:
    """The same seed gives byte-identical inputs; another seed changes them."""
    def make(s):
        rng = inputs.make_rng(workload, s)
        if workload == "verify-sweep":
            return b"".join(inputs.encode(inputs.verify_problem(rng)) for _ in range(3))
        return b"".join(inputs.encode(d) for d in inputs.oneshot_cycle(rng))
    a, b, c = make(seed), make(seed), make(seed + 1)
    return [] if a == b and a != c else [f"{workload} inputs are not a function of the seed"]


# ---------------------------------------------------------------------------
# timed workloads (--trace 0)


def timed_oracle(report: Report, seed: int, seconds: float, workdir: Path) -> None:
    rc, out, err, _ = run_child([PY, str(BENCH / "oracle_worker.py"), "--seed", str(seed),
                                 "--seconds", str(seconds), "--out", str(workdir)],
                                timeout=seconds + 120)
    if rc != 0:
        raise RuntimeError(f"oracle worker failed: {err.decode(errors='replace')[-800:]}")
    res = json.loads(out)
    report.attempted, report.failed = res["attempted"], res["failed"]
    report.errors, report.selfcheck = res["errors"], res["selfcheck"]
    report.crit01.max, report.crit01.count = res["crit01_max"], res["crit01_exceed"]

    def load_ms(name):
        a = array("d")
        a.frombytes((workdir / name).read_bytes())
        return [math.inf if math.isnan(x) else x * 1e3 for x in a]

    lat, raw = load_ms("latencies_nominal.f64"), load_ms("latencies.f64")
    ok = [x for x in lat if x < math.inf]
    rate = 1e3 * len(ok) / sum(ok)
    report.metrics["items_per_s"] = (rate, "1/s")
    report.metrics["latency_ms_p50"] = (statistics.median(lat), "ms")
    report.line("oracle.problems_per_s", rate, "1/s",
                f"problems per second of solve time, "
                f"raw {1e3 * len(ok) / sum(x for x in raw if x < math.inf):.6g}")
    report.latency_lines("oracle.problem_us", lat, raw, 1e3, "us")
    report.acceptance_lines()
    report.lines.append(f"note reference slice median {res['reference_s'] * 1e3:.4f} ms "
                        f"(nominal {reference.NOMINAL_SLICE_S * 1e3:g} ms)")


def timed_verify(report: Report, seed: int, seconds: float, workdir: Path) -> None:
    rng = inputs.make_rng("verify-sweep", seed)
    spans = []  # (start, wall) of each call, None if it failed
    start = time.perf_counter()
    while len(spans) < 3 or time.perf_counter() - start + mean_ok(
            s[1] for s in spans if s) <= seconds:
        i = len(spans)
        path = workdir / f"verify-{i}.json"
        path.write_bytes(inputs.encode(inputs.verify_problem(rng)))
        env = child_env(CASTILLON_SEED=str(seed * 1000 + i))
        rc, out, err, span = report.run_call([PY, "-m", "castillon.cli", "verify", str(path),
                                              "--sweep", str(VERIFY_SWEEP)], env)
        errs = (checks.check_verify(out, VERIFY_SWEEP + 1) if rc == 0
                else [f"exit code {rc}", err.decode(errors="replace")[-300:]])
        report.attempted += 1
        if errs:
            report.fail(path.name, errs)
            spans.append(None)
        else:
            report.last_good["verify"] = (out, VERIFY_SWEEP + 1)
            spans.append(span)
    report.speed.sample()
    walls = [report.nominal(s) if s else math.inf for s in spans]
    raw = [s[1] if s else math.inf for s in spans]
    n = VERIFY_SWEEP + 1
    rate = statistics.median(n / w for w in walls)
    report.metrics["items_per_s"] = (rate, "1/s")
    report.metrics["latency_ms_p50"] = (statistics.median(walls) * 1e3, "ms")
    report.line("verify.triangles_per_s", rate, "1/s",
                f"median of {len(walls)} calls of {n} triangles, interpreter included, "
                f"raw {statistics.median(n / w for w in raw):.6g}")
    report.latency_lines("verify.call_ms", walls, raw, 1e3, "ms")
    report.selfcheck += verify_selfcheck(report)


def timed_oneshot(report: Report, seed: int, seconds: float, workdir: Path) -> None:
    rng = inputs.make_rng("cli-oneshot", seed)
    cycles, cycle_s = [], []
    start = time.perf_counter()
    while not cycle_s or time.perf_counter() - start + statistics.mean(cycle_s) <= seconds:
        t0 = time.perf_counter()
        cyc = OneshotCycle(inputs.oneshot_cycle(rng), workdir, len(cycle_s))
        cycles.append(cyc.run(report))
        cycle_s.append(time.perf_counter() - t0)
    report.speed.sample()
    rates, walls, raw = [], [], []
    for spans in cycles:
        done = [report.nominal(s) for s in spans if s]
        rates.append(len(done) / sum(done) if done else 0.0)
        walls += [report.nominal(s) * 1e3 if s else math.inf for s in spans]
        raw += [s[1] * 1e3 if s else math.inf for s in spans]
    rate = statistics.median(rates)
    report.metrics["items_per_s"] = (rate, "1/s")
    report.metrics["latency_ms_p50"] = (statistics.median(walls), "ms")
    report.line("oneshot.calls_per_s", rate, "1/s", f"median of {len(rates)} cycles")
    report.latency_lines("oneshot.latency_ms", walls, raw, 1.0, "ms")
    report.acceptance_lines()
    report.selfcheck += oneshot_selfcheck(report)


TIMED = {"oracle-sweep": timed_oracle, "verify-sweep": timed_verify, "cli-oneshot": timed_oneshot}


def run_timed(report: Report, seed: int, seconds: float, workdir: Path) -> None:
    setup, setup_raw = measure_setup(report, seed)
    report.metrics["setup_s"] = (setup, "s")
    name = "oracle.setup_s" if report.workload == "oracle-sweep" else "setup_s"
    report.line(name, setup, "s", f"median of {SETUP_PROBES} fresh interpreters, raw {setup_raw:.6g}")
    TIMED[report.workload](report, seed, seconds, workdir)
    rss = peak_child_rss_mb()
    report.metrics["peak_rss_mb"] = (rss, "MB")
    report.line(f"{report.prefix}.peak_rss_mb", rss, "MB", "largest child process")
    report.line(f"{report.prefix}.fail_frac", report.failed / max(1, report.attempted), "1",
                f"{report.failed} of {report.attempted}")
    report.lines.append(f"note reference process median {report.speed.median_s() * 1e3:.4f} ms "
                        f"(nominal {reference.NOMINAL_PROCESS_S * 1e3:g} ms)")


# ---------------------------------------------------------------------------
# traced workloads (--trace 1)


def aggregate_spans(files, items: int) -> tuple[dict, dict, list[str]]:
    """Per-function metrics over all traced passes, the per-pass call
    counts, and the list of shim bypasses."""
    calls = {f: 0 for f in FUNCTIONS}
    total = {f: 0 for f in FUNCTIONS}
    self_ns = {f: 0 for f in FUNCTIONS}
    per_pass: dict[int, dict[str, int]] = {}
    drawn = tried = 0
    bypasses: list[str] = []
    for path in files:
        data = json.loads(Path(path).read_text())
        bypasses = data["bypasses"] or bypasses
        spans = data["spans"]
        child = [0] * len(spans)
        for s in spans:
            if s is not None and s[3] >= 0:
                child[s[3]] += s[2] - s[1]
        for idx, s in enumerate(spans):
            if s is None:
                continue
            name, start, end, parent, _, pass_no = s
            calls[name] += 1
            total[name] += end - start
            self_ns[name] += end - start - child[idx]
            counts = per_pass.setdefault(pass_no, {})
            counts[name] = counts.get(name, 0) + 1
            drawn += name == "sampling.random_triangle"
            tried += (name == "core.triangle_from_sides" and parent >= 0
                      and spans[parent][0] == "sampling.random_triangle")
    metrics = {}
    for f in FUNCTIONS:
        n = calls[f]
        metrics[f"{f}.calls_per_item"] = (n / items, "count")
        metrics[f"{f}.self_us"] = (self_ns[f] / n / 1e3 if n else 0.0, "us")
        metrics[f"{f}.total_us"] = (total[f] / n / 1e3 if n else 0.0, "us")
    metrics["sampling.accept_ratio"] = (drawn / tried if tried else 0.0, "ratio")
    return metrics, per_pass, bypasses


def traced_passes(report: Report, seed: int, seconds: float, workdir: Path, spans_dir: Path):
    """Alternates untraced and traced passes over a fixed input set; returns
    (busy seconds of each pass, at nominal speed for subprocess calls, with
    its traced flag) and the items per pass."""
    if report.workload == "oracle-sweep":
        rc, out, err, _ = run_child([PY, str(BENCH / "oracle_worker.py"), "--seed", str(seed),
                                     "--seconds", str(seconds), "--spans",
                                     str(spans_dir / "spans-oracle.json")], timeout=seconds + 120)
        if rc != 0:
            raise RuntimeError(f"oracle worker failed: {err.decode(errors='replace')[-800:]}")
        res = json.loads(out)
        report.attempted, report.failed = res["attempted"], res["failed"]
        report.errors, report.selfcheck = res["errors"], res["selfcheck"]
        return [(p["busy_s"], p["traced"]) for p in res["passes"]], res["passes"][0]["items"]

    rng = inputs.make_rng(report.workload, seed)
    if report.workload == "cli-oneshot":
        cyc = OneshotCycle(inputs.oneshot_cycle(rng), workdir, 0)
        items = len(inputs.ONESHOT_KINDS)
    else:
        path = workdir / "verify-trace.json"
        path.write_bytes(inputs.encode(inputs.verify_problem(rng)))
        items = TRACE_VERIFY_SWEEP + 1
    passes = []  # (spans of the pass's calls, traced)
    start = time.perf_counter()
    while time.perf_counter() - start < seconds or sum(t for _, t in passes) < 2:
        p = len(passes)
        traced = p % 2 == 1
        if report.workload == "cli-oneshot":
            spans = cyc.run(report, p if traced else None, spans_dir)
        else:
            env = child_env(CASTILLON_SEED=str(seed * 1000),
                            PERFBENCH_SPANS=str(spans_dir / f"spans-{p}.json"),
                            PERFBENCH_ITEM="0", PERFBENCH_PASS=str(p))
            cmd = cli_cmd(("verify", "--sweep", str(TRACE_VERIFY_SWEEP)), path, None, traced)
            rc, out, err, span = report.run_call(cmd, env)
            errs = checks.check_verify(out, items) if rc == 0 else [f"exit code {rc}"]
            report.attempted += 1
            if errs:
                report.fail(path.name, errs)
            spans = [span]
        passes.append((spans, traced))
    report.speed.sample()
    return [(sum(report.nominal(s) for s in spans if s), t) for spans, t in passes], items


def run_traced(report: Report, seed: int, seconds: float, workdir: Path) -> None:
    spans_dir = WORK / f"trace-{report.workload}"
    shutil.rmtree(spans_dir, ignore_errors=True)
    spans_dir.mkdir(parents=True)
    passes, items = traced_passes(report, seed, seconds, workdir, spans_dir)
    n_traced = sum(t for _, t in passes)
    metrics, per_pass, bypasses = aggregate_spans(sorted(spans_dir.glob("spans-*.json")),
                                                  items * n_traced)
    if len({json.dumps(c, sort_keys=True) for c in per_pass.values()}) > 1:
        report.selfcheck.append("call counts differ between traced passes of the same input")
    untraced = statistics.median(b for b, t in passes if not t)
    traced = statistics.median(b for b, t in passes if t)
    metrics["trace.overhead_pct"] = (100.0 * (traced - untraced) / untraced, "%")
    for name, ms in measure_imports().items():
        metrics[f"import.{name}_ms"] = (ms, "ms")
    report.metrics = metrics
    report.lines.append(f"traced {n_traced} passes of {items} items; spans in "
                        f"{spans_dir.relative_to(ROOT)}")
    report.lines.append(f"trace overhead: traced {traced:.4f} s vs untraced {untraced:.4f} s "
                        f"per pass ({metrics['trace.overhead_pct'][0]:+.2f} %)")
    report.lines += [f"bypass {b}" for b in bypasses]
    idle = [f for f in FUNCTIONS if not metrics[f"{f}.calls_per_item"][0]]
    report.lines += [f"metric {k} {v:.6g} {u}" for k, (v, u) in metrics.items()
                     if k.rsplit(".", 1)[0] not in idle]
    report.lines.append(f"not called (metrics 0): {', '.join(idle) or 'none'}")
    report.lines.append(compare_baseline_counts(report.workload, seed, metrics))


def compare_baseline_counts(workload: str, seed: int, metrics: dict) -> str:
    """Work counts repeat exactly for a seed and commit; compare with the
    counts recorded in baseline.json for the same seed."""
    base = json.loads((BENCH / "baseline.json").read_text()).get("counts", {})
    rec = base.get(workload, {})
    if rec.get("seed") != seed:
        return f"counts: no baseline recorded for seed {seed}"
    diff = [k for k, v in rec["values"].items() if metrics.get(k, (None,))[0] != v]
    return ("counts: identical to the baseline" if not diff
            else f"counts: DIFFER from the baseline in {', '.join(diff)}")


# ---------------------------------------------------------------------------


def run_one(workload: str, seed: int, seconds: float, trace: bool) -> Report:
    report = Report(workload)
    WORK.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="run-", dir=WORK))
    try:
        (run_traced if trace else run_timed)(report, seed, seconds, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if workload != "oracle-sweep":
        report.selfcheck += inputs_selfcheck(workload, seed)
    return report


def run_all(seed: int, seconds: float, trace: bool) -> int:
    """Runs every workload in its own process, so peak RSS is per workload."""
    correct, attempted, failed, metrics = True, 0, 0, {}
    for workload in WORKLOADS:
        rc, out, err, _ = run_child([PY, str(Path(__file__).resolve()), "--workload", workload,
                                     "--seed", str(seed), "--seconds", str(seconds),
                                     "--trace", str(int(trace))], env=dict(os.environ),
                                    timeout=seconds + 600)
        sys.stderr.write(err.decode(errors="replace"))
        lines = out.decode().splitlines()
        if rc != 0 or not lines:
            print(f"{workload}: failed with exit code {rc}", file=sys.stderr)
            return 1
        result = json.loads(lines[-1])
        for line in lines[:-1]:
            print(line)
            parts = line.split()
            if parts[:1] == ["metric"] and not trace:
                metrics[parts[1]] = {"value": float(parts[2]), "unit": parts[3]}
        if trace:
            metrics.update({f"{workload}/{k}": v for k, v in result["metrics"].items()})
        correct &= result["correct"]
        attempted += result["attempted"]
        failed += result["failed"]
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")
    if not (SRC / "castillon" / "cli.py").is_file():
        print(f"error: {SRC / 'castillon'} not found; run from the repository root",
              file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args.seed, args.seconds, bool(args.trace))

    report = run_one(args.workload, args.seed, args.seconds, bool(args.trace))
    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds:g} "
          f"trace {args.trace}")
    for line in report.lines:
        print(line)
    for e in report.errors:
        print(f"FAILED {e}")
    for e in report.selfcheck:
        print(f"SELF-CHECK {e}")
    correct = report.failed == 0 and not report.selfcheck
    print(json.dumps({
        "correct": correct, "attempted": report.attempted, "failed": report.failed,
        # a latency percentile that lands on a failed item is +inf, which JSON cannot carry
        "metrics": {k: {"value": v if math.isfinite(v) else sys.float_info.max, "unit": u}
                    for k, (v, u) in report.metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
