"""Closed-form solutions of the inscribed-triangle problem on the incircle
and excircles, golden-ratio vertex matrices, and the substitutions (cyclic
relabeling, bicentric swap, exversion) that derive all 24 solution vertices
from a single one.

The golden-ratio matrices are written out once, for the incircle (`T1`,
`T2`).  Every excircle matrix is an incircle matrix evaluated with one
sidelength negated (exversion, `signed_sides`: a -> -a for the A-excircle),
with the two solutions' labels swapped and the rows put in the excircle's
letter order (`_LETTER_ROW`).  The four circles' coefficient pairs are built
at import; a triangle's four circles, centres and solutions, are evaluated
together, once per triangle (`core.four_circles`).

Vertex matrices are stored with per-row denominators cleared (each row is a
polynomial triple in the sidelengths), which keeps entries finite for
near-degenerate triangles; rows are homogeneous so the clearing factor is
immaterial.  `twenty_three_from_one` evaluates the 24 vertices a second way,
each one vertex's formula at permuted, signed sides (`_SUBSTITUTIONS`), for
`castillon verify` to compare with those rows.
"""

from __future__ import annotations

import math
import operator
from typing import NamedTuple

import numpy as np

from . import core
from .core import CcpSolution, TriangleData
from .errors import InfinitePoint

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
# vertex matrices


# Row index holding the A-, B-, C-lettered vertex of each circle's matrices
# (a vertex's letter is the reference vertex its opposite side crosses).
# Determined once numerically from the side-incidence patterns.  The table is
# the one source of row order: `_COEFFICIENTS` holds its rows in it and
# `_SUBSTITUTIONS` places the 24 vertices by it.
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


def signed_sides(a, b, c) -> tuple:
    """Each circle's formal sides, `core.CIRCLE_TAGS` order: an excircle's
    negate the one opposite its vertex (exversion)."""
    return (a, b, c), (-a, b, c), (a, -b, c), (a, b, -c)


def circle_rows(a, b, c, tag: str) -> list:
    """The cleared rows of the circle `tag`'s T1 and T2, of formal sides a,
    b, c (one negated for an excircle), as 18 numbers: its coefficient pair
    times the products (vw, uw, uv) of u = s - a, v = s - b, w = s - c
    (`core.tangents`); floats for one triangle, arrays for a batch."""
    _, u, v, w = core.tangents(a, b, c)
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
    entries = []
    for tag, sides in zip(core.CIRCLE_TAGS, signed_sides(tri.a, tri.b, tri.c)):
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


def solutions_for(tri: TriangleData, tag: str) -> tuple[CcpSolution, CcpSolution]:
    """The two inscribed solution triangles on a circle, by tag, T1 then T2,
    read from the triangle's `core.four_circles`; InfinitePoint where the
    circle's centre or a row lies at infinity, so a circle
    `core.tagged_circle` cannot build has none."""
    k = core.circle_index(tag)
    circles = tri.derived(core.four_circles)
    if circles.infinite[k]:
        raise InfinitePoint(core.AT_INFINITY)
    return CcpSolution(circles.points[k, 1]), CcpSolution(circles.points[k, 2])


def require_closed_form(tri: TriangleData) -> None:
    """InfinitePoint unless `solutions_for` solves every circle of the
    triangle, or of each triangle of a batch."""
    if any(tri.derived(core.four_circles).infinite):
        raise InfinitePoint(core.AT_INFINITY)


def incircle_solutions(tri: TriangleData) -> tuple[CcpSolution, CcpSolution]:
    """The two inscribed solution triangles on the incircle.

    Row order is fixed: rows are the B-, C- and A-labeled vertices (a row's
    label is the reference vertex its opposite side passes through); side
    row1-row2 passes through A, row2-row3 through B, row3-row1 through C.
    """
    return solutions_for(tri, core.INCIRCLE)


def excircle_solutions(tri: TriangleData, which: str) -> tuple[CcpSolution, CcpSolution]:
    """The two inscribed solution triangles on the chosen excircle, by
    exversion: its coefficient pair evaluated with the chosen side negated."""
    which = which.upper()
    tag = f"excircle-{which}"
    if tag not in _LETTER_ROW:
        raise ValueError(f"which must be A, B or C, got {which!r}")
    return solutions_for(tri, tag)


# ---------------------------------------------------------------------------
# shared symmedian point


def solution_symmedian(sol: CcpSolution, tri: TriangleData) -> Array:
    """Symmedian point of a solution triangle, in reference barycentrics.

    Embeds the solution, forms its own symmedian (squared sidelengths as
    weights) and converts back.  For incircle solutions this lands on the
    reference point [1/(s-a) : 1/(s-b) : 1/(s-c)].
    """
    verts = sol.cartesian(tri)
    a2 = float(np.sum((verts[1] - verts[2]) ** 2))
    b2 = float(np.sum((verts[2] - verts[0]) ** 2))
    c2 = float(np.sum((verts[0] - verts[1]) ** 2))
    point = (a2 * verts[0] + b2 * verts[1] + c2 * verts[2]) / (a2 + b2 + c2)
    return core.cartesian_to_bary(point, tri)


# ---------------------------------------------------------------------------
# twenty-three vertices from one


def _generator_row(a, b, c) -> list:
    """Row 3 of the incircle's T2 in `circle_rows` of formal sides a, b, c:
    the A-lettered vertex of the second incircle solution."""
    return circle_rows(a, b, c, core.INCIRCLE)[15:]


def _substitutions() -> list:
    """Per circle, a (solution, row, side order, coordinate order) for each of
    its six vertices: `_generator_row` of the circle's formal sides in that
    order, its coordinates read in that order, lands on that row.  k cyclic
    substitutions (a -> b -> c -> a, coordinates rotated back) walk the
    vertex letter A -> B -> C; a bicentric swap (b <-> c, coordinates 2 and 3
    swapped) crosses to the incircle's other solution; exversion (an
    excircle's formal sides) crosses solutions too, the letter kept."""
    table = [[] for _ in core.CIRCLE_TAGS]
    for swapped in (False, True):
        for k, letter in enumerate("ABC"):
            order, coords = [(k + i) % 3 for i in range(3)], [(i - k) % 3 for i in range(3)]
            if swapped:
                order, coords = [order[i] for i in (0, 2, 1)], [(0, 2, 1)[i] for i in coords]
            for circle, tag in enumerate(core.CIRCLE_TAGS):
                solution = int((circle == 0) != swapped)  # the generator row is on T2
                table[circle].append((solution, _LETTER_ROW[tag][letter], order, coords))
    return table


_SUBSTITUTIONS = _substitutions()


def twenty_three_from_one(tri: TriangleData) -> Array:
    """All 24 solution vertices (4 circles x 2 solutions x 3 vertices) of a
    triangle (or batch) by `_SUBSTITUTIONS`, laid out like
    `FourCircles.rows[:, 1:]`, (4, 2) + batch + (3, 3), so that each should
    be proportional to the row it lands on."""
    out = [[[None] * 3 for _ in range(2)] for _ in core.CIRCLE_TAGS]
    for circle, sides in enumerate(signed_sides(tri.a, tri.b, tri.c)):
        for solution, row, order, coords in _SUBSTITUTIONS[circle]:
            vertex = _generator_row(*(sides[i] for i in order))
            out[circle][solution][row] = [vertex[i] for i in coords]
    rows = np.array(out)
    return np.moveaxis(rows, -1, 2) if rows.ndim > 4 else rows  # batch after (4, 2)
