"""Independent oracles for the closed-form vertex matrices.

`ccp_closed` writes the golden-ratio matrices out once, for the incircle, and
derives every excircle matrix from them by exversion.  Criterion 07 and
`test_all_24_vertices_match_matrix_rows` compare the 24 exverted vertices of
`twenty_three_from_one` with the matrix rows, so with both sides built by the
same exversion they no longer check the excircle rows independently.  The
tests here and criterion 01 (closed form against the mobius solver) do: they
compare with the paper's displayed A-excircle matrices, carried to the B- and
C-excircles by rotating the sidelengths and the coordinates, in floats and
at 50 digits.
"""

import mpmath
import numpy as np
import pytest

from castillon import ccp_closed, core
from castillon.ccp_closed import PHI


def displayed_incircle(a, b, c, phi):
    """The paper's displayed incircle matrices (T1, T2), cleared rows."""
    s = (a + b + c) / 2
    vw, uw, uv = (s - b) * (s - c), (s - a) * (s - c), (s - a) * (s - b)
    p2, q2, r2 = phi ** 2, (phi - 1) ** 2, (phi - 2) ** 2
    t1 = [[p2 * vw, uw, q2 * uv],
          [r2 * vw, uw, q2 * uv],
          [r2 * vw, (2 * phi - 3) ** 2 * uw, q2 * uv]]
    t2 = [[vw, p2 * uw, (phi + 1) ** 2 * uv],
          [(2 * phi + 1) ** 2 * vw, p2 * uw, (phi + 1) ** 2 * uv],
          [(2 * phi + 1) ** 2 * vw, (3 * phi + 2) ** 2 * uw, (phi + 1) ** 2 * uv]]
    return t1, t2


def displayed_a_excircle(a, b, c, phi):
    """The paper's displayed A-excircle matrices (T1, T2), cleared rows."""
    s = (a + b + c) / 2
    sb, sc, cs, bs = s - b, s - c, c - s, b - s
    q2, r2 = (phi - 1) ** 2, (phi - 2) ** 2
    t1 = [[cs * sb * q2, s * sb, sc * s * r2],
          [cs * sb * r2, s * sb * q2, s * sc],
          [bs * sc, s * sb * r2, sc * s * q2]]
    t2 = [[bs * sc * q2, sb * s * r2, s * sc],
          [cs * sb, sb * s * q2, s * sc * r2],
          [bs * sc * r2, s * sb, s * sc * q2]]
    return t1, t2


def displayed(tag, a, b, c, phi):
    """Displayed matrices for any circle.  The B- and C-excircle ones are the
    A-excircle ones at rotated sidelengths, with the coordinates rotated back
    (np.roll by +1 and -1)."""
    if tag == core.INCIRCLE:
        return displayed_incircle(a, b, c, phi)
    if tag == core.EXCIRCLE_A:
        return displayed_a_excircle(a, b, c, phi)
    if tag == core.EXCIRCLE_B:
        t1, t2 = displayed_a_excircle(b, c, a, phi)
        return tuple([[r[2], r[0], r[1]] for r in t] for t in (t1, t2))
    t1, t2 = displayed_a_excircle(c, a, b, phi)
    return tuple([[r[1], r[2], r[0]] for r in t] for t in (t1, t2))


# Largest row deviation measured against the float displayed matrices: 5.1e-14
# over 30,600 excircle matrices (5,100 random triangles).
ROW_SINE_TOL = 1e-13


def test_excircle_rows_match_displayed_matrices(triangles_100):
    for t in triangles_100:
        for tag in core.CIRCLE_TAGS[1:]:
            refs = displayed(tag, t.a, t.b, t.c, PHI)
            for vm, ref in zip(ccp_closed.excircle_solutions(t, tag[-1]), refs):
                for row, ref_row in zip(vm.rows, ref):
                    assert core.sin_angle(row, np.array(ref_row)) < ROW_SINE_TOL, \
                        (t.sides, tag, vm.label)


def test_excircle_rejects_unknown_vertex(tri345):
    with pytest.raises(ValueError):
        ccp_closed.excircle_solutions(tri345, "D")


# Largest vertex error against the 50-digit oracle, per circle radius:
# 1.5e-13 over 3,000 random triangles (18,000 excircle and 6,000 incircle
# solution triangles).
VERTEX_TOL = 1e-12


def test_vertices_match_50_digit_oracle(triangles_100):
    with mpmath.workdps(50):
        phi = (1 + mpmath.sqrt(5)) / 2
        for t in triangles_100[:50]:
            a, b, c = (mpmath.mpf(x) for x in t.sides)
            verts = mpmath.matrix(t.vertices.tolist())
            for tag in core.CIRCLE_TAGS:
                radius = core.tagged_circle(t, tag).radius
                refs = displayed(tag, a, b, c, phi)
                for vm, ref in zip(ccp_closed.solutions_for(t, tag), refs):
                    for P, row in zip(vm.cartesian(t), ref):
                        exact = mpmath.matrix([row]) * verts / sum(row)
                        err = max(abs(P[k] - exact[k]) for k in range(2))
                        assert err < VERTEX_TOL * radius, (t.sides, tag, vm.label)
