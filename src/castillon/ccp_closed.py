"""Closed-form solutions of the inscribed-triangle problem on the incircle
and excircles, golden-ratio vertex matrices, and the substitution machinery
(cyclic relabeling, bicentric swap, exversion) that derives all 24 solution
vertices from a single one.

The golden-ratio matrices are written out once, for the incircle (`T1`,
`T2`).  Every excircle matrix is an incircle matrix evaluated with one
sidelength negated (exversion, `SignedSides.exverted`: a -> -a for the
A-excircle), with the two solutions' labels swapped and the rows put in the
excircle's letter order (`_LETTER_ROW`).  The four circles' coefficient
pairs are built at import; a triangle's four circles, centres and
solutions, are evaluated together, once per triangle (`core.four_circles`).

Vertex matrices are stored with per-row denominators cleared (each row is a
polynomial triple in the sidelengths), which keeps entries finite for
near-degenerate triangles; rows are homogeneous so the clearing factor is
immaterial.
"""

from __future__ import annotations

import math
import operator
from typing import NamedTuple

import numpy as np

from . import core
from .core import TriangleData, VertexMatrix
from .errors import InfinitePoint, SeedMismatch

Array = np.ndarray

PHI = (1.0 + math.sqrt(5.0)) / 2.0


# Coefficients of the column products (vw, uw, uv) in the rows of the two
# incircle solutions.
T1 = np.array([
    [PHI * PHI, 1.0, (PHI - 1.0) ** 2],
    [(PHI - 2.0) ** 2, 1.0, (PHI - 1.0) ** 2],
    [(PHI - 2.0) ** 2, (2.0 * PHI - 3.0) ** 2, (PHI - 1.0) ** 2],
])
T2 = np.array([
    [1.0, PHI * PHI, (PHI + 1.0) ** 2],
    [(2.0 * PHI + 1.0) ** 2, PHI * PHI, (PHI + 1.0) ** 2],
    [(2.0 * PHI + 1.0) ** 2, (3.0 * PHI + 2.0) ** 2, (PHI + 1.0) ** 2],
])


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

    def exverted(self, vertex: str) -> "SignedSides":
        sides, i = list(self), ("A", "B", "C").index(vertex.upper())
        sides[i] = -sides[i]
        return SignedSides(*sides)

    def rotated(self) -> "SignedSides":
        return SignedSides(self.b, self.c, self.a)

    def swapped_bc(self) -> "SignedSides":
        return SignedSides(self.a, self.c, self.b)


# ---------------------------------------------------------------------------
# vertex matrices


# Row index holding the A-, B-, C-lettered vertex of each circle's matrices
# (a vertex's letter is the reference vertex its opposite side crosses).
# Determined once numerically from the side-incidence patterns.  The table is
# the one source of row order: `_COEFFICIENTS` holds its rows in it and
# `twenty_three_from_one` reports rows by it.
_LETTER_ROW = {
    core.INCIRCLE: {"A": 2, "B": 0, "C": 1},
    core.EXCIRCLE_A: {"A": 0, "B": 1, "C": 2},
    core.EXCIRCLE_B: {"A": 2, "B": 0, "C": 1},
    core.EXCIRCLE_C: {"A": 1, "B": 2, "C": 0},
}


def _coefficient_pair(tag: str) -> Array:
    """A circle's two coefficient matrices, T1 then T2, as one 2 x 3 x 3
    array.  An excircle's are the incircle's with the labels swapped (its T1
    is the incircle's T2) and the rows in the excircle's letter order."""
    if tag == core.INCIRCLE:
        return np.array([T1, T2])
    rows = _LETTER_ROW[tag]
    order = [_LETTER_ROW[core.INCIRCLE][letter] for letter in sorted(rows, key=rows.get)]
    return np.array([T2[order], T1[order]])


# Each circle's coefficient pair as 18 floats, rows T1 then T2, by tag.
_COEFFICIENTS = {tag: _coefficient_pair(tag).ravel().tolist() for tag in core.CIRCLE_TAGS}


def circle_rows(a, b, c, tag: str) -> list:
    """The cleared rows of the circle `tag`'s T1 and T2, of formal sides a,
    b, c (one negated for an excircle), as 18 numbers: its coefficient pair
    times the products (vw, uw, uv) of u = s - a, v = s - b, w = s - c;
    floats for one triangle, arrays for a batch."""
    s = 0.5 * (a + b + c)
    u, v, w = s - a, s - b, s - c
    return list(map(operator.mul, _COEFFICIENTS[tag], (v * w, u * w, u * v) * 6))


class FourCircles(NamedTuple):
    """The four circles of a triangle (or batch), `core.CIRCLE_TAGS` order."""

    centers: Array  # (4,) + batch + (2,), `core.bary_to_cartesian` of their weights
    centers_infinite: list[bool]  # per circle: `core.tagged_circle` raises
    rows: Array  # (4, 3) + batch + (3, 3), read-only: centre weights, T1, T2
    points: Array  # (4, 3) + batch + (3, 2), read-only, their points
    infinite: list[bool]  # per circle, its centre or a row: `solutions_for` raises


def circles_to_cartesian(stack: Array, vertices: Array) -> tuple[Array, list[bool], list[bool]]:
    """`core.rows_to_cartesian` of `build_four_circles`' stack, without
    raising: the points, read-only, and per circle whether its centre (block
    0), and whether its centre or any row, lies at infinity (`core.row_totals`)."""
    totals, infinite = core.row_totals(stack)
    centers = rows = [False] * 4
    if infinite.any():  # a flagged circle divides by 1: its points are never read
        blocks = infinite.reshape(-1, 4, 3, 3)  # batch, circle, block, row
        centers = blocks[:, :, 0].any(axis=(0, 2)).tolist()
        rows = blocks.any(axis=(0, 2, 3)).tolist()
        totals = np.where(infinite, 1.0, totals)
    points = (stack @ vertices) / totals
    points.flags.writeable = False
    return points, centers, rows


def build_four_circles(tri: TriangleData) -> FourCircles:
    """The four circles of a triangle (or batch) from one stack, batch +
    (36, 3), of three blocks of three rows per circle, its centre's weights
    (its formal sides) thrice, then its `circle_rows`: one matmul a triangle."""
    a, b, c = tri.a, tri.b, tri.c
    entries = []
    # an excircle's formal sides negate the one opposite its vertex (exversion)
    for tag, sides in zip(core.CIRCLE_TAGS, ((a, b, c), (-a, b, c), (a, -b, c), (a, b, -c))):
        entries += [*sides * 3, *circle_rows(*sides, tag)]
    stack = np.array(entries)
    batch = stack.shape[1:]
    if batch:  # the batch axis goes first, ahead of the rows
        stack = np.ascontiguousarray(stack.T)
    stack = stack.reshape(batch + (36, 3))
    stack.flags.writeable = False
    points, center_flags, flags = circles_to_cartesian(stack, tri.vertices)
    rows, points = stack.reshape(batch + (4, 3, 3, 3)), points.reshape(batch + (4, 3, 3, 2))
    if batch:  # and the readers' views put it after the circle and block axes
        rows, points = np.moveaxis(rows, 0, 2), np.moveaxis(points, 0, 2)
    return FourCircles(points[:, 0, ..., 0, :], center_flags, rows, points, flags)


def solutions_for(tri: TriangleData, tag: str) -> tuple[VertexMatrix, VertexMatrix]:
    """The two inscribed solution triangles on a circle, by tag, read from the
    triangle's `core.four_circles`; InfinitePoint where the circle's centre or
    a row lies at infinity, so a circle `core.tagged_circle` cannot build has none."""
    k = core.circle_index(tag)
    circles = tri.derived(core.four_circles)
    if circles.infinite[k]:
        raise InfinitePoint(core.AT_INFINITY)
    rows, points = circles.rows[k], circles.points[k]
    return VertexMatrix(rows[1], "T1", points[1]), VertexMatrix(rows[2], "T2", points[2])


def require_closed_form(tri: TriangleData) -> None:
    """InfinitePoint unless `solutions_for` solves every circle of the
    triangle, or of each triangle of a batch."""
    if any(tri.derived(core.four_circles).infinite):
        raise InfinitePoint(core.AT_INFINITY)


def incircle_solutions(tri: TriangleData) -> tuple[VertexMatrix, VertexMatrix]:
    """The two inscribed solution triangles on the incircle.

    Row order is fixed: rows are the B-, C- and A-labeled vertices (a row's
    label is the reference vertex its opposite side passes through); side
    row1-row2 passes through A, row2-row3 through B, row3-row1 through C.
    """
    return solutions_for(tri, core.INCIRCLE)


def excircle_solutions(tri: TriangleData, which: str) -> tuple[VertexMatrix, VertexMatrix]:
    """The two inscribed solution triangles on the chosen excircle, by
    exversion: its coefficient pair evaluated with the chosen side negated."""
    which = which.upper()
    tag = f"excircle-{which}"
    if tag not in _LETTER_ROW:
        raise ValueError(f"which must be A, B or C, got {which!r}")
    return solutions_for(tri, tag)


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
    """Row 3 of the incircle's T2 in `circle_rows` of the sides of `sd`."""
    return tuple(circle_rows(*sd, core.INCIRCLE)[15:])


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
