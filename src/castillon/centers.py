"""Triangle-center registry (Kimberling indices) and the solution/reference
correspondence verifier.

Registry entries are barycentric functions of a `TriangleData`'s sides,
tangent lengths u, v, w and area, and `center` evaluates one on a triangle,
or on a batch of them, where those fields are arrays and each center an
N x 3 array; the registry is the one source of center formulas, `brocard`
included.  Provenance notes distinguish entries with an independent
defining-property test in the suite from transcription-trusted ones, whose
acceptance rests on homogeneity, permutation equivariance and the
correspondence check itself.

The full correspondence list ships as a data file (one "i k" pair per line);
pairs whose centers are not in the registry are reported data-only, never
silently dropped.
"""

from __future__ import annotations

import functools
import math
from importlib import resources
from typing import NamedTuple

import numpy as np

from . import brocard, core
from .core import TriangleData
from .errors import UnknownCenter

Array = np.ndarray

SQRT3 = math.sqrt(3.0)


def _sa(a, b, c):
    return 0.5 * (b * b + c * c - a * a)


def _cyclic(f):
    """Expand a first-coordinate rule on the sides into a triangle's barycentrics."""
    return lambda t: np.stack([f(t.a, t.b, t.c), f(t.b, t.c, t.a), f(t.c, t.a, t.b)], axis=-1)


def _normalized(triple):
    return triple / triple.sum(axis=-1, keepdims=True)


# --- individual formulas ---------------------------------------------------

_X1 = _cyclic(lambda a, b, c: a)
_X2 = _cyclic(lambda a, b, c: a / a)  # 1, shaped like the sides
_X3 = _cyclic(lambda a, b, c: a * a * _sa(a, b, c))
_X4 = _cyclic(lambda a, b, c: _sa(b, c, a) * _sa(c, a, b))
_X6 = _cyclic(lambda a, b, c: a * a)
_X7 = _cyclic(lambda a, b, c: (0.5 * (a + b + c) - b) * (0.5 * (a + b + c) - c))


def _X15(t):
    S = 2.0 * t.area
    return _cyclic(lambda x, y, z: x * x * (SQRT3 * _sa(x, y, z) + S))(t)


def _X16(t):
    S = 2.0 * t.area
    return _cyclic(lambda x, y, z: x * x * (SQRT3 * _sa(x, y, z) - S))(t)


def _X20(t):
    # reflection of the orthocenter in the circumcenter
    return 2.0 * _normalized(_X3(t)) - _normalized(_X4(t))


def _soddy_pencil(mu):
    """Points [a + mu * area / (s-a) : ...] on the line through X1 and X7."""
    def f(t):
        return np.stack([t.a + mu * t.area / t.u,
                         t.b + mu * t.area / t.v,
                         t.c + mu * t.area / t.w], axis=-1)
    return f


_X175 = _soddy_pencil(-1.0)   # isoperimetric point (outer Soddy center)
_X176 = _soddy_pencil(+1.0)   # equal detour point (inner Soddy center)
_X481 = _soddy_pencil(-2.0)   # first Eppstein point
_X482 = _soddy_pencil(+2.0)   # second Eppstein point

_X187 = _cyclic(lambda a, b, c: a * a * (2 * a * a - b * b - c * c))


def _brocard_pencil(factor_s, factor_q):
    """Points [a^2 (S_A + k)] on the Brocard axis, k = factor_s*2*area + factor_q*(a^2+b^2+c^2)."""
    def f(t):
        k = factor_s * 2.0 * t.area + factor_q * (t.a * t.a + t.b * t.b + t.c * t.c)
        return _cyclic(lambda x, y, z: x * x * (_sa(x, y, z) + k))(t)
    return f


_X371 = _brocard_pencil(+1.0, 0.0)    # Kenmotu (congruent squares) point
_X372 = _brocard_pencil(-1.0, 0.0)    # second Kenmotu point
_X1151 = _brocard_pencil(+0.5, 0.0)
_X1152 = _brocard_pencil(-0.5, 0.0)
_X3053 = _brocard_pencil(0.0, -0.25)  # = [a^2 (3a^2 - b^2 - c^2)] up to sign


def _X279(t):
    u, v, w = t.u, t.v, t.w
    return np.stack([core.mathmap(pow, x, 2) for x in (v * w, w * u, u * v)], axis=-1)


def _X390(t):
    # reflection of X1 in X7
    return 2.0 * _normalized(_X7(t)) - _normalized(_X1(t))


def _X511(t):
    # infinite point of the Brocard axis
    return _normalized(_X3(t)) - _normalized(_X6(t))


_X512 = _cyclic(lambda a, b, c: a * a * (b * b - c * c))
_X514 = _cyclic(lambda a, b, c: b - c)


def _X516(t):
    # infinite point of the Soddy line (through X1 and X7)
    return _normalized(_X7(t)) - _normalized(_X1(t))


def _X1323(t):
    # Fletcher point: Soddy line meets the Gergonne line (trilinear polar of X7)
    soddy = np.cross(_X1(t), _X7(t))
    return np.cross(soddy, np.stack([t.u, t.v, t.w], axis=-1))


def _X1350(t):
    # reflection of X3 in X6
    return 2.0 * _normalized(_X6(t)) - _normalized(_X3(t))


# --- registry ---------------------------------------------------------------

PROPERTY_TESTED = "property-tested"
CONSTRUCTED = "constructed"
TRANSCRIBED = "transcription-trusted"


class CenterDef(NamedTuple):
    index: int
    fn: object
    name: str
    provenance: str
    equilateral_undefined: bool  # the zero triple on an equilateral triangle


_REGISTRY: dict[int, CenterDef] = {}


def _register(index, fn, name, provenance, equilateral_undefined=False):
    _REGISTRY[index] = CenterDef(index, fn, name, provenance, equilateral_undefined)


_register(1, _X1, "incenter", PROPERTY_TESTED)
_register(2, _X2, "centroid", PROPERTY_TESTED)
_register(3, _X3, "circumcenter", PROPERTY_TESTED)
_register(4, _X4, "orthocenter", PROPERTY_TESTED)
_register(6, _X6, "symmedian point", PROPERTY_TESTED)
_register(7, _X7, "Gergonne point", PROPERTY_TESTED)
_register(15, _X15, "first isodynamic point", PROPERTY_TESTED)
_register(16, _X16, "second isodynamic point", PROPERTY_TESTED, equilateral_undefined=True)
_register(20, _X20, "de Longchamps point", CONSTRUCTED)
_register(175, _X175, "isoperimetric point", PROPERTY_TESTED)
_register(176, _X176, "equal detour point", PROPERTY_TESTED)
_register(187, _X187, "Schoute center", PROPERTY_TESTED, equilateral_undefined=True)
_register(279, _X279, "Gergonne-square point", TRANSCRIBED)
_register(371, _X371, "Kenmotu point", TRANSCRIBED)
_register(372, _X372, "second Kenmotu point", TRANSCRIBED)
_register(390, _X390, "X7-reflection of X1", CONSTRUCTED)
_register(481, _X481, "first Eppstein point", TRANSCRIBED)
_register(482, _X482, "second Eppstein point", TRANSCRIBED)
_register(511, _X511, "Brocard axis infinity", CONSTRUCTED, equilateral_undefined=True)
_register(512, _X512, "Lemoine axis infinity", PROPERTY_TESTED, equilateral_undefined=True)
_register(514, _X514, "Gergonne-line infinity", PROPERTY_TESTED, equilateral_undefined=True)
_register(516, _X516, "Soddy line infinity", CONSTRUCTED, equilateral_undefined=True)
_register(1151, _X1151, "Brocard-axis half-Kenmotu", TRANSCRIBED)
_register(1152, _X1152, "Brocard-axis half-Kenmotu mate", TRANSCRIBED)
_register(1323, _X1323, "Fletcher point", CONSTRUCTED, equilateral_undefined=True)
_register(1350, _X1350, "X6-reflection of X3", CONSTRUCTED)
_register(3053, _X3053, "Brocard-axis quarter point", TRANSCRIBED)


def registry_indices() -> tuple[int, ...]:
    return tuple(sorted(_REGISTRY))


def center_definition(idx: int) -> CenterDef:
    if idx not in _REGISTRY:
        raise UnknownCenter(f"X{idx} is not in the registry")
    return _REGISTRY[idx]


def center(idx: int, t: TriangleData) -> Array:
    """Barycentrics of center X_idx w.r.t. the triangle."""
    return center_definition(idx).fn(t)


# --- correspondence data and verification ----------------------------------


@functools.cache
def correspondence_pairs() -> tuple[tuple[int, int], ...]:
    """Solution/reference index pairs from the shipped data file."""
    text = resources.files("castillon.data").joinpath("correspondences.txt").read_text()
    pairs = []
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        i, k = line.split()
        pairs.append((int(i), int(k)))
    return tuple(pairs)


@functools.cache
def _data_only(name: str) -> brocard.Check:
    """The skipped check of a pair with an index outside the registry; it
    is the same for every batch, so it is built once."""
    return brocard.check(name, 0.0, 0.0, skipped=True, note="data-only")


def verify_correspondences(t: TriangleData) -> brocard.Report:
    """For every pair [i, k] with both indices in the registry, check that
    X_i of either incircle solution coincides with X_k of the reference.

    Points at infinity are compared as directions (the angular residual is
    already direction-based).  Pairs with a missing index are skipped
    checks noted data-only, so they never fail.  A pair with a center that
    vanishes on an equilateral triangle skips the triangles whose incircle
    solutions are equilateral.
    """
    f1, f2 = (brocard.solution_frame(t, core.INCIRCLE, k) for k in (0, 1))
    tri1, tri2 = f1.triangle, f2.triangle
    flat = f1.degenerate | f2.degenerate
    checks = []
    for i, k in correspondence_pairs():
        name = f"pair [{i},{k}]"
        if i not in _REGISTRY or k not in _REGISTRY:
            checks.append(_data_only(name))
            continue
        p1 = core.convert_bary(center(i, tri1), tri1, t)
        p2 = core.convert_bary(center(i, tri2), tri2, t)
        ref = center(k, t)
        residual = np.maximum.reduce([
            core.sin_angles(p1, p2),
            core.sin_angles(p1, ref),
            core.sin_angles(p2, ref),
        ])
        if _REGISTRY[i].equilateral_undefined or _REGISTRY[k].equilateral_undefined:
            checks.append(brocard.check(name, residual, 1e-9, flat, brocard.EQUILATERAL))
        else:
            checks.append(brocard.check(name, residual, 1e-9))
    n_data = sum(i not in _REGISTRY or k not in _REGISTRY for i, k in correspondence_pairs())
    return brocard.Report(name="center-correspondences", checks=tuple(checks),
                          note=f"{len(checks) - n_data} verified, {n_data} data-only")
