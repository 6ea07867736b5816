"""Closed-form solutions of the inscribed-triangle problem on the incircle
and excircles, golden-ratio vertex matrices, and the substitution machinery
(cyclic relabeling, bicentric swap, exversion) that derives all 24 solution
vertices from a single one.

The golden-ratio matrices are written out once, for the incircle.  Every
excircle matrix is an incircle matrix evaluated with one sidelength negated
(exversion, `SignedSides.exverted`: a -> -a for the A-excircle), with the
two solutions' labels swapped and the rows put in the excircle's letter
order (`_LETTER_ROW`).  Each circle's two coefficient matrices are built
once, as one 2 x 3 x 3 array, and both solutions are evaluated together.

Vertex matrices are stored with per-row denominators cleared (each row is a
polynomial triple in the sidelengths), which keeps entries finite for
near-degenerate triangles; rows are homogeneous so the clearing factor is
immaterial.
"""

from __future__ import annotations

import functools
import math
import operator
from typing import NamedTuple

import numpy as np

from . import core
from .core import TriangleData, VertexMatrix
from .errors import SeedMismatch

Array = np.ndarray

PHI = (1.0 + math.sqrt(5.0)) / 2.0


class GoldenConstants(NamedTuple):
    """The golden ratio and the squared golden coefficients appearing in the
    vertex matrices."""

    phi: float
    sq_phi: float        # phi^2        = phi + 1
    sq_phi_m1: float     # (phi - 1)^2  = 2 - phi
    sq_phi_m2: float     # (phi - 2)^2
    sq_2phi_m3: float    # (2 phi - 3)^2
    sq_phi_p1: float     # (phi + 1)^2
    sq_2phi_p1: float    # (2 phi + 1)^2
    sq_3phi_p2: float    # (3 phi + 2)^2


def golden_constants(phi: float = PHI) -> GoldenConstants:
    return GoldenConstants(
        phi=phi,
        sq_phi=phi * phi,
        sq_phi_m1=(phi - 1.0) ** 2,
        sq_phi_m2=(phi - 2.0) ** 2,
        sq_2phi_m3=(2.0 * phi - 3.0) ** 2,
        sq_phi_p1=(phi + 1.0) ** 2,
        sq_2phi_p1=(2.0 * phi + 1.0) ** 2,
        sq_3phi_p2=(3.0 * phi + 2.0) ** 2,
    )


# ---------------------------------------------------------------------------
# signed evaluation context


class SignedSides(NamedTuple):
    """Formal sidelength triple for evaluating closed-form expressions.

    Components may be negative: negating one side ("exversion") turns every
    incircle formula into the matching excircle formula.  Every expression
    is elementwise, so the components may be arrays of a batch of triangles.
    """

    a: float
    b: float
    c: float

    @classmethod
    def from_triangle(cls, tri: TriangleData) -> "SignedSides":
        return cls(tri.a, tri.b, tri.c)

    @property
    def s(self) -> float:
        return 0.5 * (self.a + self.b + self.c)

    @property
    def u(self) -> float:
        return self.s - self.a

    @property
    def v(self) -> float:
        return self.s - self.b

    @property
    def w(self) -> float:
        return self.s - self.c

    def exverted(self, vertex: str) -> "SignedSides":
        key = vertex.lower()
        if key not in self._fields:
            raise ValueError(f"vertex must be A, B or C, got {vertex!r}")
        return self._replace(**{key: -getattr(self, key)})

    def rotated(self) -> "SignedSides":
        return SignedSides(self.b, self.c, self.a)

    def swapped_bc(self) -> "SignedSides":
        return SignedSides(self.a, self.c, self.b)


# ---------------------------------------------------------------------------
# vertex matrices


# Row index holding the A-, B-, C-lettered vertex of each circle's matrices
# (a vertex's letter is the reference vertex its opposite side crosses).
# Determined once numerically from the side-incidence patterns.  The table is
# the one source of row order: `_coefficient_pair` builds its rows in it and
# `twenty_three_from_one` reports rows by it.
_LETTER_ROW = {
    core.INCIRCLE: {"A": 2, "B": 0, "C": 1},
    core.EXCIRCLE_A: {"A": 0, "B": 1, "C": 2},
    core.EXCIRCLE_B: {"A": 2, "B": 0, "C": 1},
    core.EXCIRCLE_C: {"A": 1, "B": 2, "C": 0},
}


@functools.cache
def _golden_coefficients(phi: float) -> tuple[Array, Array]:
    """Coefficients of the column products (vw, uw, uv) in the rows of the
    two incircle solutions."""
    g = golden_constants(phi)
    t1 = np.array([
        [g.sq_phi, 1.0, g.sq_phi_m1],
        [g.sq_phi_m2, 1.0, g.sq_phi_m1],
        [g.sq_phi_m2, g.sq_2phi_m3, g.sq_phi_m1],
    ])
    t2 = np.array([
        [1.0, g.sq_phi, g.sq_phi_p1],
        [g.sq_2phi_p1, g.sq_phi, g.sq_phi_p1],
        [g.sq_2phi_p1, g.sq_3phi_p2, g.sq_phi_p1],
    ])
    return t1, t2


@functools.cache
def _coefficient_pair(tag: str, phi: float) -> Array:
    """A circle's two coefficient matrices, T1 then T2, as one 2 x 3 x 3
    array.  An excircle's are the incircle's with the labels swapped (its T1
    is the incircle's T2) and the rows in the excircle's letter order."""
    t1, t2 = _golden_coefficients(phi)
    if tag == core.INCIRCLE:
        return np.array([t1, t2])
    rows = _LETTER_ROW[tag]
    order = [_LETTER_ROW[core.INCIRCLE][letter] for letter in sorted(rows, key=rows.get)]
    return np.array([t2[order], t1[order]])


def pair_rows(sd: SignedSides, tag: str, phi: float = PHI) -> Array:
    """Cleared vertex-matrix rows of a circle's two solutions, stacked as
    (..., 2, 3, 3): its coefficient pair times the column products
    (vw, uw, uv) of `sd`, which is exverted for an excircle."""
    u, v, w = sd.u, sd.v, sd.w
    products = np.array([v * w, u * w, u * v]).T[..., None, None, :]
    # C order, so a batch's matmuls round each matrix as one triangle's
    return np.ascontiguousarray(_coefficient_pair(tag, phi) * products)


def solution_pair(sd: SignedSides, tri: TriangleData, tag: str,
                  phi: float = PHI) -> tuple[VertexMatrix, VertexMatrix]:
    """Both solutions of a circle in one pass: the rows of `pair_rows` and
    their cartesian vertices from one stacked matmul and one division."""
    rows = pair_rows(sd, tag, phi)
    vertices = core.rows_to_cartesian(rows, tri.vertices[..., None, :, :])
    return (VertexMatrix(rows[..., 0, :, :], "T1", vertices[..., 0, :, :]),
            VertexMatrix(rows[..., 1, :, :], "T2", vertices[..., 1, :, :]))


def incircle_solutions(tri: TriangleData, phi: float = PHI) -> tuple[VertexMatrix, VertexMatrix]:
    """The two inscribed solution triangles on the incircle.

    Row order is fixed: rows are the B-, C- and A-labeled vertices (a row's
    label is the reference vertex its opposite side passes through); side
    row1-row2 passes through A, row2-row3 through B, row3-row1 through C.
    """
    return solution_pair(SignedSides.from_triangle(tri), tri, core.INCIRCLE, phi)


def excircle_solutions(tri: TriangleData, which: str) -> tuple[VertexMatrix, VertexMatrix]:
    """The two inscribed solution triangles on the chosen excircle, by
    exversion: its coefficient pair (`_coefficient_pair`) evaluated with the
    chosen side negated."""
    which = which.upper()
    tag = f"excircle-{which}"
    if tag not in _LETTER_ROW:
        raise ValueError(f"which must be A, B or C, got {which!r}")
    return solution_pair(SignedSides.from_triangle(tri).exverted(which), tri, tag)


def solutions_for(tri: TriangleData, tag: str) -> tuple[VertexMatrix, VertexMatrix]:
    """Closed-form solutions for any circle tag."""
    if tag == core.INCIRCLE:
        return incircle_solutions(tri)
    return excircle_solutions(tri, tag[-1])


# ---------------------------------------------------------------------------
# shared symmedian point


def solution_symmedian(vm: VertexMatrix, tri: TriangleData) -> Array:
    """Symmedian point of a solution triangle, in reference barycentrics.

    Embeds the solution, forms its own symmedian (squared sidelengths as
    weights) and converts back.  For incircle solutions this lands on the
    reference point [1/(s-a) : 1/(s-b) : 1/(s-c)].
    """
    verts = vm.cartesian(tri)
    a2 = float(np.sum((verts[1] - verts[2]) ** 2))
    b2 = float(np.sum((verts[2] - verts[0]) ** 2))
    c2 = float(np.sum((verts[0] - verts[1]) ** 2))
    point = (a2 * verts[0] + b2 * verts[1] + c2 * verts[2]) / (a2 + b2 + c2)
    return core.cartesian_to_bary(point, tri)


# ---------------------------------------------------------------------------
# twenty-three vertices from one


class GeneratedVertex(NamedTuple):
    circle: str
    label: str    # "T1" | "T2"
    row: int      # row index in the matching vertex matrix
    vertex: str   # "A" | "B" | "C": reference vertex the opposite side crosses
    coords: tuple[float, float, float]


def _generator_row(sd: SignedSides) -> tuple[float, float, float]:
    """Row 3 of the incircle's T2 in `pair_rows` of `sd` on plain floats (or on
    arrays of a batch), from the same coefficients and products, so
    bit-identical to it."""
    u, v, w = sd.u, sd.v, sd.w
    k1, k2, k3 = _golden_coefficients(PHI)[1][2].tolist()
    return (k1 * (v * w), k2 * (u * w), k3 * (u * v))


_ROLL = operator.itemgetter(2, 0, 1)     # np.roll(v, 1) on a tuple
_SWAP_BC = operator.itemgetter(0, 2, 1)


def _cyc(formula):
    """Cyclic substitution a->b->c->a with the matching coordinate rotation."""
    return lambda sd: _ROLL(formula(sd.rotated()))


def _bic(formula):
    """Bicentric swap: b <-> c with coordinate positions 2 and 3 swapped."""
    return lambda sd: _SWAP_BC(formula(sd.swapped_bc()))


def _exv(formula, vertex):
    return lambda sd: formula(sd.exverted(vertex))


def generator_seed(tri: TriangleData) -> tuple[float, float, float]:
    """The single vertex all others derive from: the A-labeled vertex of the
    second incircle solution (row 3 of its matrix)."""
    return _generator_row(SignedSides.from_triangle(tri))


def twenty_three_from_one(seed, tri: TriangleData) -> list[GeneratedVertex]:
    """Derive all 24 solution vertices (4 circles x 2 solutions x 3 vertices)
    from the single seed vertex.

    The pipeline: a bicentric swap crosses to the other solution of the same
    circle; cyclic substitutions walk the vertex letter A -> B -> C within a
    solution; an exversion (applied last) moves from the incircle to an
    excircle, crossing solutions (T2 <-> T1) with the vertex letter kept.

    The seed must match `generator_seed(tri)` up to scale (1e-10 angular),
    otherwise SeedMismatch is raised.  On a batch of triangles each
    coordinate is an array with one entry per triangle.
    """
    sd = SignedSides.from_triangle(tri)
    if np.any(core.sin_angles(np.stack(seed, axis=-1),
                              np.stack(_generator_row(sd), axis=-1)) > 1e-10):
        raise SeedMismatch("seed is not the generator vertex of this triangle")

    out: list[GeneratedVertex] = []
    for swapped in (False, True):
        in_label = "T1" if swapped else "T2"
        exc_label = "T2" if swapped else "T1"
        formula = _bic(_generator_row) if swapped else _generator_row
        for letter in "ABC":
            out.append(GeneratedVertex(
                core.INCIRCLE, in_label, _LETTER_ROW[core.INCIRCLE][letter],
                letter, formula(sd)))
            for exc in "ABC":
                tag = f"excircle-{exc}"
                out.append(GeneratedVertex(
                    tag, exc_label, _LETTER_ROW[tag][letter], letter,
                    _exv(formula, exc)(sd)))
            formula = _cyc(formula)
    return out
