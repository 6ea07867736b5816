"""Random triangle generation for verification sweeps.

Sidelengths are log-uniform in [MIN_SIDE, MAX_SIDE]; candidates violating
the triangle inequality or the flatness cutoff, or whose aspect
(circumradius / inradius) exceeds MAX_ASPECT, the range the verifiers'
tolerances are certified for, are rejected and redrawn.

`random_triangle` draws one candidate at a time; `TriangleDraws` draws them
in blocks from the same stream and returns the same triangles, bit for bit.
"""

from __future__ import annotations

import numpy as np

from . import core
from .core import TriangleData
from .errors import DegenerateTriangle

MIN_SIDE = 0.1
MAX_SIDE = 10.0
MAX_ASPECT = 1e3

# Candidates drawn per triangle still wanted; about 5.6 are drawn per
# accepted one, so a block seldom falls short.
DRAW_FACTOR = 8


def _in_range(t: TriangleData):
    """The aspect test, on a triangle or elementwise on a batch."""
    return t.R / t.r <= MAX_ASPECT


def random_triangle(rng: np.random.Generator) -> TriangleData:
    lo, hi = np.log(MIN_SIDE), np.log(MAX_SIDE)
    while True:
        a, b, c = np.exp(rng.uniform(lo, hi, 3))
        try:
            tri = core.triangle_from_sides(a, b, c)
        except DegenerateTriangle:
            continue
        if _in_range(tri):
            return tri


class TriangleDraws:
    """The triangles that calls of `random_triangle(rng)` return, in order,
    taken as batches.

    `rng.uniform(lo, hi, (k, 3))` uses up the doubles of k calls of
    `rng.uniform(lo, hi, 3)` in the same order, and the accept tests run
    elementwise, so each row is bit-identical to its `random_triangle`.
    Triangles drawn beyond a batch are kept for the next one, so the stream
    never skips.
    """

    def __init__(self, rng: np.random.Generator):
        self.rng = rng
        # accepted and not yet taken, in order; an empty batch to start
        self.kept = [core.triangles_from_sides(*np.empty((3, 0)))]
        self.count = 0

    def take(self, n: int) -> TriangleData:
        """The next n triangles as one batch."""
        lo, hi = np.log(MIN_SIDE), np.log(MAX_SIDE)
        while self.count < n:
            a, b, c = np.exp(self.rng.uniform(lo, hi, (DRAW_FACTOR * (n - self.count), 3))).T
            t = core.triangles_from_sides(a, b, c)
            t = core.select_triangles(t, _in_range(t))
            self.kept.append(t)
            self.count += len(t.a)
        batch = core.concat_triangles(self.kept)
        self.kept, self.count = [core.select_triangles(batch, slice(n, None))], self.count - n
        return core.select_triangles(batch, slice(n))
