"""Deterministic SVG figures of the configurations.

Figures of one triangle share a frame computed from the bounding box of the
incircle and all three excircles (the widest configuration).  Output is
plain SVG 1.1 emitted as text, coordinates rounded to six decimals, byte
stable for identical input.  The math y-axis points up, so points are
emitted with y negated.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from . import brocard, centers, core, inconic
from .core import TriangleData

MARGIN = 0.06  # padding around a figure's contents, a fraction of their larger extent
STYLE = (
    "polygon, line, ellipse, circle, path { fill: none; vector-effect: non-scaling-stroke; }\n"
    "  .reference { stroke: #222222; stroke-width: 1.6; }\n"
    "  .solution-1 { stroke: #d95f02; stroke-width: 1.1; }\n"
    "  .solution-2 { stroke: #7570b3; stroke-width: 1.1; }\n"
    "  .circle { stroke: #1b9e77; stroke-width: 1.1; }\n"
    "  .conic { stroke: #66a61e; stroke-width: 1.1; }\n"
    "  .axis { stroke: #e7298a; stroke-width: 0.9; stroke-dasharray: 6 3; }\n"
    "  .marker { stroke: #000000; stroke-width: 1.2; }\n"
)


def _fmt(x: float) -> str:
    v = float(x)
    if v == 0.0:
        v = 0.0
    out = f"{v:.6f}"
    return "0.000000" if out == "-0.000000" else out


def _pt(P) -> str:
    return f"{_fmt(P[0])},{_fmt(-P[1])}"


class Frame(NamedTuple):
    x0: float
    y0: float
    width: float
    height: float

    def viewbox(self) -> str:
        return f"{_fmt(self.x0)} {_fmt(self.y0)} {_fmt(self.width)} {_fmt(self.height)}"

    def svg_corners(self):
        return self.x0, self.y0, self.x0 + self.width, self.y0 + self.height


def shared_frame(tri: TriangleData) -> Frame:
    """Frame holding the triangle plus incircle and all three excircles."""
    xs, ys = list(tri.vertices[:, 0]), list(tri.vertices[:, 1])
    for tag in core.CIRCLE_TAGS:
        circ = core.tagged_circle(tri, tag)
        xs += [circ.center[0] - circ.radius, circ.center[0] + circ.radius]
        ys += [circ.center[1] - circ.radius, circ.center[1] + circ.radius]
    x0, x1 = min(xs), max(xs)
    y0, y1 = min(ys), max(ys)
    pad = MARGIN * max(x1 - x0, y1 - y0)
    return Frame(x0=x0 - pad, y0=-(y1 + pad),
                 width=(x1 - x0) + 2 * pad, height=(y1 - y0) + 2 * pad)


def _polygon(verts, cls: str) -> str:
    pts = " ".join(_pt(V) for V in verts)
    return f'<polygon class="{cls}" points="{pts}"/>'


def _circle(circ, cls: str) -> str:
    return (f'<circle class="{cls}" cx="{_fmt(circ.center[0])}" cy="{_fmt(-circ.center[1])}" '
            f'r="{_fmt(circ.radius)}"/>')


def _marker(P, name: str, size: float) -> str:
    x, y = P[0], -P[1]
    d = (f"M {_fmt(x - size)} {_fmt(y)} L {_fmt(x + size)} {_fmt(y)} "
         f"M {_fmt(x)} {_fmt(y - size)} L {_fmt(x)} {_fmt(y + size)}")
    return (f'<path class="marker marker-{name}" data-cx="{_fmt(x)}" data-cy="{_fmt(y)}" '
            f'd="{d}"/>')


def _clipped_line(line, frame: Frame, cls: str) -> str:
    """Draw a homogeneous cartesian line clipped to the frame rectangle."""
    l, m, n = line
    x0, y0s, x1, y1s = frame.svg_corners()
    ylo, yhi = -(y1s), -(y0s)  # math-coordinate bounds
    pts = []
    for x in (x0, x1):
        if abs(m) > 1e-14:
            y = -(l * x + n) / m
            if ylo - 1e-9 <= y <= yhi + 1e-9:
                pts.append((x, y))
    for y in (ylo, yhi):
        if abs(l) > 1e-14:
            x = -(m * y + n) / l
            if x0 - 1e-9 <= x <= x1 + 1e-9:
                pts.append((x, y))
    if len(pts) < 2:
        return ""
    pts.sort()
    P, Q = pts[0], pts[-1]
    return (f'<line class="{cls}" x1="{_fmt(P[0])}" y1="{_fmt(-P[1])}" '
            f'x2="{_fmt(Q[0])}" y2="{_fmt(-Q[1])}"/>')


def _ellipse_element(conic, cls: str) -> str:
    """Point-conic (real ellipse) as an SVG ellipse with a rotate transform."""
    ellipse = core.ellipse_axes(conic)
    rx, ry = map(_fmt, ellipse.semi_axes)
    # a printed circle has no axis direction: the eigenvectors of a double
    # eigenvalue are rounding noise, so it is drawn unrotated
    major = ellipse.axes[:, 0]
    angle = 0.0 if rx == ry else math.degrees(math.atan2(major[1], major[0])) % 180.0
    cx, cy = ellipse.center[0], -ellipse.center[1]
    return (f'<ellipse class="{cls}" cx="{_fmt(cx)}" cy="{_fmt(cy)}" '
            f'rx="{rx}" ry="{ry}" '
            f'transform="rotate({_fmt(-angle)} {_fmt(cx)} {_fmt(cy)})"/>')


def _document(frame: Frame, body: list[str]) -> str:
    lines = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'viewBox="{frame.viewbox()}" width="720" height="720" '
        f'preserveAspectRatio="xMidYMid meet">',
        f"<style>{STYLE}</style>",
    ]
    lines += body
    lines.append("</svg>")
    return "\n".join(lines) + "\n"


def _incircle_body(st: brocard.SolvedTriangle) -> list[str]:
    V1, V2 = (vm.vertices for vm in st.solutions(core.INCIRCLE))
    return [_circle(core.tagged_circle(st.triangle, core.INCIRCLE), "circle"),
            _polygon(st.triangle.vertices, "reference"),
            _polygon(V1, "solution-1"), _polygon(V2, "solution-2")]


def render_incircle(tri: TriangleData) -> str:
    """Reference triangle, incircle, and the two solutions: 3 polygons, 1 circle."""
    return _document(shared_frame(tri), _incircle_body(brocard.SolvedTriangle(tri)))


def render_brocard(tri: TriangleData) -> str:
    """Incircle figure plus the shared Brocard objects of the solutions."""
    frame = shared_frame(tri)
    st = brocard.SolvedTriangle(tri)
    f = st.frame(core.INCIRCLE)
    body = _incircle_body(st) + [_ellipse_element(brocard.brocard_inellipse(f).conic, "conic")]
    if f.circle.radius > 1e-9 * f.R:
        body.append(_circle(f.circle, "circle"))
    if not f.degenerate:
        body.append(_clipped_line(f.axis_cart, frame, "axis"))
        body.append(_clipped_line(f.lemoine_cart, frame, "axis"))
    body.append(_marker(f.Omega1_cart, "omega1", 0.012 * frame.width))
    body.append(_marker(f.Omega2_cart, "omega2", 0.012 * frame.width))
    return _document(frame, body)


def render_excircles(tri: TriangleData) -> str:
    """All four circles with their solution pairs, the four shared axes and
    the de Longchamps point they concur on."""
    frame = shared_frame(tri)
    st = brocard.SolvedTriangle(tri)
    body = [_polygon(tri.vertices, "reference")]
    axes = []
    for tag in core.CIRCLE_TAGS:
        V1, V2 = (vm.vertices for vm in st.solutions(tag))
        body += [_circle(core.tagged_circle(tri, tag), "circle"),
                 _polygon(V1, "solution-1"), _polygon(V2, "solution-2")]
        f = st.frame(tag)
        if not f.degenerate:
            axes.append(_clipped_line(f.axis_cart, frame, "axis"))
    body += axes
    X20 = core.bary_to_cartesian(centers.center(20, tri), tri)
    body.append(_marker(X20, "x20", 0.012 * frame.width))
    return _document(frame, body)


def render_inconic(tri: TriangleData, perspector) -> str:
    """Two panels: the inconic problem (top) and its affine image (bottom),
    in which the inconic is the unit circle and the solutions are the
    closed-form incircle solutions of the image triangle."""
    spec = inconic.inconic_from_perspector(perspector, tri)
    W, center = inconic.circularizing_map(spec)
    sols = inconic.solve_ccp_inconic(spec, tri)

    top = shared_frame(tri)
    image = core.triangle_from_vertices(np.array([W @ V - W @ center for V in tri.vertices]))
    img_xs = list(image.vertices[:, 0]) + [-1.0, 1.0]
    img_ys = list(image.vertices[:, 1]) + [-1.0, 1.0]
    pad = MARGIN * max(max(img_xs) - min(img_xs), max(img_ys) - min(img_ys))
    scale = top.width / (max(img_xs) - min(img_xs) + 2 * pad)
    offset_y = top.y0 + top.height + 0.05 * top.height

    body = [
        f'<g id="panel-problem">',
        _polygon(tri.vertices, "reference"),
        _ellipse_element(spec.conic, "circle"),
        _polygon(sols.triangles[0], "solution-1"),
        _polygon(sols.triangles[1], "solution-2"),
        _ellipse_element(sols.conic, "conic"),
        "</g>",
    ]
    tx = top.x0 - scale * (min(img_xs) - pad)
    ty = offset_y + scale * (max(img_ys) + pad)
    solved = brocard.SolvedTriangle(image)
    V1, V2 = (vm.vertices for vm in solved.solutions(core.INCIRCLE))
    img_ell = brocard.brocard_inellipse(solved.frame(core.INCIRCLE))
    body += [f'<g id="panel-image" '
             f'transform="translate({_fmt(tx)} {_fmt(ty)}) scale({_fmt(scale)})">',
             _polygon(image.vertices, "reference"),
             _circle(core.CircleData(np.zeros(2), 1.0), "circle"),
             _polygon(V1, "solution-1"), _polygon(V2, "solution-2"),
             _ellipse_element(img_ell.conic, "conic"), "</g>"]

    img_height = scale * (max(img_ys) - min(img_ys) + 2 * pad)
    full = Frame(x0=top.x0, y0=top.y0,
                 width=top.width,
                 height=top.height + 0.05 * top.height + img_height)
    return _document(full, body)
