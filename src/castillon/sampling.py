"""Random triangle generation for verification sweeps.

Sidelengths are log-uniform in [MIN_SIDE, MAX_SIDE]; candidates violating
the triangle inequality or the flatness cutoff, or whose aspect
(circumradius / inradius) exceeds MAX_ASPECT, the range the verifiers'
tolerances are certified for, are rejected and redrawn.
"""

from __future__ import annotations

import numpy as np

from . import core
from .core import TriangleData
from .errors import DegenerateTriangle

MIN_SIDE = 0.1
MAX_SIDE = 10.0
MAX_ASPECT = 1e3


def random_triangle(rng: np.random.Generator) -> TriangleData:
    lo, hi = np.log(MIN_SIDE), np.log(MAX_SIDE)
    while True:
        a, b, c = np.exp(rng.uniform(lo, hi, 3))
        try:
            tri = core.triangle_from_sides(a, b, c)
        except DegenerateTriangle:
            continue
        if tri.R / tri.r <= MAX_ASPECT:
            return tri
