"""Seeded problem documents for the subprocess workloads.

Inputs are made with the standard library's `random.Random`, seeded from the
workload name and the benchmark seed, so the same seed always gives the same
bytes and the program under test receives only the generated documents.
Triangles are written as vertices, so the checkers know the reference
geometry without asking the program for it.
"""

from __future__ import annotations

import json
import math
import random

SCHEMA = "castillon/1"
CIRCLE_TAGS = ("incircle", "excircle-A", "excircle-B", "excircle-C")

# certified range of the acceptance suite: log-uniform sides, aspect R/r <= 1e3
MIN_SIDE, MAX_SIDE, MAX_ASPECT = 0.1, 10.0, 1e3

# One cli-oneshot cycle: (kind, subcommand arguments after the problem path,
# expected exit code).  Every cycle runs every kind once, so the mix is the
# same for every seed and only the geometry changes.
ONESHOT_KINDS = (
    ("solve-incircle", ("solve", "--solver", "all"), 0),
    ("solve-excircle-A", ("solve", "--solver", "all"), 0),
    ("solve-excircle-B", ("solve", "--solver", "all"), 0),
    ("solve-excircle-C", ("solve", "--solver", "all"), 0),
    ("solve-inconic", ("solve",), 0),
    ("solve-points-3", ("solve",), 0),
    ("solve-points-5", ("solve",), 0),
    ("solve-points-none", ("solve",), 3),
    ("render-broc", ("render", "--figure", "broc"), 0),
    ("render-excs", ("render", "--figure", "excs"), 0),
    ("render-inconic", ("render", "--figure", "inconic"), 0),
    ("solve-repeat", ("solve", "--solver", "all"), 0),
)


def make_rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"perfbench/{workload}/{seed}")


def _r12(x: float) -> float:
    return float(f"{x:.12g}")


def random_triangle_vertices(rng: random.Random) -> list[list[float]]:
    """Counter-clockwise vertices A, B, C of a triangle in the certified range,
    randomly rotated and translated."""
    lo, hi = math.log(MIN_SIDE), math.log(MAX_SIDE)
    while True:
        a, b, c = (math.exp(rng.uniform(lo, hi)) for _ in range(3))
        s = 0.5 * (a + b + c)
        area2 = s * (s - a) * (s - b) * (s - c)
        if area2 <= 0.0:
            continue
        area = math.sqrt(area2)
        if area < 1e-12 * s * s or (a * b * c / (4.0 * area)) / (area / s) > MAX_ASPECT:
            continue
        x = (b * b + c * c - a * a) / (2.0 * c)
        y = 2.0 * area / c
        phi = rng.uniform(0.0, 2.0 * math.pi)
        tx, ty = rng.uniform(-5.0, 5.0), rng.uniform(-5.0, 5.0)
        cs, sn = math.cos(phi), math.sin(phi)
        return [[_r12(tx + cs * px - sn * py), _r12(ty + sn * px + cs * py)]
                for px, py in ((0.0, 0.0), (c, 0.0), (x, y))]


def random_perspector(rng: random.Random) -> list[float]:
    """Positive barycentrics bounded away from the sides (interior inconic)."""
    return [_r12(rng.uniform(0.05, 1.0)) for _ in range(3)]


def random_points_problem(rng: random.Random, n: int, inside: bool) -> dict:
    """A circle with n points.  With n odd and every point outside, the
    composed chord map reverses orientation, so there are exactly two
    solutions.  With three points near the centre the composite is close to
    a half turn, so there is none."""
    cx, cy = rng.uniform(-3.0, 3.0), rng.uniform(-3.0, 3.0)
    r = math.exp(rng.uniform(math.log(0.5), math.log(5.0)))
    pts = []
    for _ in range(n):
        rho = r * (rng.uniform(0.0, 0.2) if inside else rng.uniform(1.5, 4.0))
        t = rng.uniform(0.0, 2.0 * math.pi)
        pts.append([_r12(cx + rho * math.cos(t)), _r12(cy + rho * math.sin(t))])
    return {"schema": SCHEMA, "circle": {"center": [_r12(cx), _r12(cy)], "radius": _r12(r)},
            "points": pts}


def oneshot_cycle(rng: random.Random) -> list[dict]:
    """The problem documents of one cli-oneshot cycle, in ONESHOT_KINDS order."""
    docs = []
    for kind, _, _ in ONESHOT_KINDS:
        if kind[len("solve-"):] in CIRCLE_TAGS:
            doc = {"schema": SCHEMA, "triangle": {"vertices": random_triangle_vertices(rng)},
                   "circle": kind[len("solve-"):]}
        elif kind == "solve-repeat":
            doc = docs[0]
        elif kind.startswith("solve-points"):
            suffix = kind.rsplit("-", 1)[1]
            doc = (random_points_problem(rng, 3, inside=True) if suffix == "none"
                   else random_points_problem(rng, int(suffix), inside=False))
        elif kind in ("solve-inconic", "render-inconic"):
            doc = {"schema": SCHEMA, "triangle": {"vertices": random_triangle_vertices(rng)},
                   "inconic_perspector": random_perspector(rng)}
        else:
            doc = {"schema": SCHEMA, "triangle": {"vertices": random_triangle_vertices(rng)}}
        docs.append(doc)
    return docs


def verify_problem(rng: random.Random) -> dict:
    return {"schema": SCHEMA, "triangle": {"vertices": random_triangle_vertices(rng)}}


def encode(doc: dict) -> bytes:
    return (json.dumps(doc, sort_keys=True, indent=1) + "\n").encode()
