"""Inscribed-triangle problem on an arbitrary inconic, by transport.

An inconic with an interior perspector is a real ellipse, so an affine map
(inverse square root of its quadratic form, about its center) already sends
it to the unit circle; the image triangle has that circle as incircle (or,
in principle, an excircle - the construction tags which).  Solving there
with the closed forms and pulling back yields the two solutions, and the
pullback of their shared Brocard inellipse is the single conic all six
solution sides touch.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import brocard, ccp_closed, core
from .core import ConicMatrix, TriangleData
from .errors import GeometryError, NonEllipse

Array = np.ndarray


@dataclass(frozen=True)
class Projectivity:
    """Invertible 3x3 map on homogeneous cartesian coordinates, inverse cached."""

    H: Array
    Hinv: Array

    @classmethod
    def from_matrix(cls, H) -> "Projectivity":
        H = np.asarray(H, dtype=float)
        det = np.linalg.det(H)
        if abs(det) <= 1e-12 * np.linalg.norm(H) ** 3:
            raise GeometryError("projectivity matrix is singular")
        return cls(H=H, Hinv=np.linalg.inv(H))

    def point(self, P) -> Array:
        return core.dehomog(self.H @ core.homog(P))

    def point_back(self, P) -> Array:
        return core.dehomog(self.Hinv @ core.homog(P))

    def conic_back(self, conic: ConicMatrix) -> ConicMatrix:
        """Preimage of a point-conic under this map."""
        if conic.kind != core.POINT_CONIC:
            raise GeometryError("conic_back expects a point-conic")
        return ConicMatrix(self.H.T @ conic.m @ self.H, core.POINT_CONIC)


@dataclass(frozen=True)
class InconicSpec:
    perspector: Array            # positive barycentric triple
    conic: ConicMatrix           # point-conic, cartesian frame


def inconic_from_perspector(p, tri: TriangleData) -> InconicSpec:
    """Inconic with Brianchon point p; touches side BC at [0 : q : r] etc.

    Requires an interior perspector (all components one sign), which makes
    the inconic a real ellipse.
    """
    p = np.asarray(p, dtype=float)
    if np.all(p < 0):
        p = -p
    if not np.all(p > 0):
        raise NonEllipse("perspector must be interior (all components positive)")
    x, y, z = p
    m = np.array([
        [y * y * z * z, -x * y * z * z, -x * y * y * z],
        [-x * y * z * z, x * x * z * z, -x * x * y * z],
        [-x * y * y * z, -x * x * y * z, x * x * y * y],
    ])
    conic_bary = ConicMatrix(m, core.POINT_CONIC)
    return InconicSpec(perspector=p, conic=core.conic_bary_to_cart(conic_bary, tri))


@dataclass(frozen=True)
class Circularization:
    map: Projectivity
    image_triangle: TriangleData
    circle_tag: str              # which circle of the image triangle the conic became


def circularizing_projectivity(spec: InconicSpec, tri: TriangleData) -> Circularization:
    """Affine map sending the inconic to the unit circle at the origin.

    The image triangle then has the unit circle as its incircle or an
    excircle; the tag is decided by the barycentric signs of the origin.
    """
    M = spec.conic.m
    Q0 = M[:2, :2]
    center = np.linalg.solve(Q0, -M[:2, 2])
    val = float(M[2, 2] + M[:2, 2] @ center)
    if val == 0.0:
        raise NonEllipse("inconic is degenerate")
    Q = -Q0 / val
    eigvals, eigvecs = np.linalg.eigh(Q)
    if np.any(eigvals <= 0.0):
        raise NonEllipse("inconic is not a real ellipse")
    W = eigvecs @ np.diag(np.sqrt(eigvals)) @ eigvecs.T
    H = np.eye(3)
    H[:2, :2] = W
    H[:2, 2] = -W @ center
    proj = Projectivity.from_matrix(H)

    image = core.triangle_from_vertices(np.array([proj.point(V) for V in tri.vertices]))
    origin_bary = core.cartesian_to_bary(np.zeros(2), image)
    signs = origin_bary > 0
    if np.all(signs):
        tag = core.INCIRCLE
    elif np.sum(~signs) == 1:
        tag = f"excircle-{'ABC'[int(np.flatnonzero(~signs)[0])]}"
    else:
        raise GeometryError("circle center has impossible barycentric signs")
    return Circularization(map=proj, image_triangle=image, circle_tag=tag)


@dataclass(frozen=True)
class InconicSolutions:
    triangles: tuple[Array, Array]     # two 3x2 cartesian vertex arrays
    rows: tuple[Array, Array]          # the same as reference barycentrics
    conic: ConicMatrix                 # the common circumscribed conic (point kind)
    tangency_residual: float
    incidence_residual: float
    circle_tag: str


def solve_ccp_inconic(spec: InconicSpec, tri: TriangleData) -> InconicSolutions:
    """Two solution triangles through A, B, C inscribed in the inconic, plus
    the single conic all six of their sides touch."""
    circ = circularizing_projectivity(spec, tri)
    proj = circ.map
    image = circ.image_triangle

    vms = ccp_closed.solutions_for(image, circ.circle_tag)
    triangles = []
    rows = []
    for vm in vms:
        verts = np.array([proj.point_back(V) for V in vm.cartesian(image)])
        triangles.append(verts)
        rows.append(np.array([core.cartesian_to_bary(V, tri) for V in verts]))

    shared = brocard.brocard_inellipse(core.triangle_from_vertices(vms[0].cartesian(image)))
    pulled = proj.conic_back(shared.conic)

    tangency = 0.0
    for verts in triangles:
        for i in range(3):
            side = core.cart_line(verts[i], verts[(i + 1) % 3])
            tangency = max(tangency, core.conic_line_residual(pulled, side))
    if tangency > 1e-8:
        raise GeometryError(f"pulled-back conic misses a solution side ({tangency:.2e})")

    incidence = 0.0
    scale = float(np.max(np.abs(tri.vertices))) or 1.0
    for verts in triangles:
        hit = set()
        for i in range(3):
            side = core.cart_line(verts[i], verts[(i + 1) % 3])
            dists = [core.point_line_distance(V, side) / scale for V in tri.vertices]
            k = int(np.argmin(dists))
            hit.add(k)
            incidence = max(incidence, dists[k])
        if hit != {0, 1, 2} or incidence > 1e-9:
            raise GeometryError("solution sides do not pass cyclically through A, B, C")

    return InconicSolutions(
        triangles=(triangles[0], triangles[1]),
        rows=(rows[0], rows[1]),
        conic=pulled,
        tangency_residual=tangency,
        incidence_residual=incidence,
        circle_tag=circ.circle_tag,
    )
