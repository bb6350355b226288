"""Deterministic SVG pictures of symmetric frameworks.

Vertices are discs, edges are segments, and every loop is drawn as a short
tick through its vertex along the constraint line (perpendicular to the
loop normal); several loops at one vertex are offset along the normal.
Mirror lines are dashed, the origin is marked with a cross when a rotation
is present, and symmetry-fixed vertices, edges, and loops are highlighted.
Output bytes depend only on the framework: elements are emitted in a fixed
order and coordinates are rounded to two decimals.
"""

from __future__ import annotations

import math

from .errors import DegenerateInputError, RangeError
from .realize import Framework
from .symgraph import stabilizers

_EDGE_COLOR = "#444444"
_FIXED_COLOR = "#d62728"
_LOOP_COLOR = "#2ca02c"
_MIRROR_COLOR = "#9467bd"
_VERTEX_COLOR = "#1f1f1f"


def _fmt(v: float) -> str:
    out = f"{v:.2f}"
    return "0.00" if out == "-0.00" else out


def render_svg(fw: Framework, size: int = 480) -> str:
    """Render the framework as a standalone SVG 1.1 document ``size``
    pixels square; raises RangeError for a size below 1 and
    DegenerateInputError for a placement whose span is not finite."""
    if size < 1:
        raise RangeError(f"size must be positive, not {size}")
    graph, group = fw.graph, fw.graph.group
    try:
        pts = [(float(x), float(y)) for (x, y) in fw.p]
        qs = [(float(x), float(y)) for (x, y) in fw.q]
    except OverflowError:  # an exact coordinate past the float range
        raise DegenerateInputError("the placement's span is not finite") from None
    xs = [p[0] for p in pts] + [0.0]
    ys = [p[1] for p in pts] + [0.0]
    cx, cy = (min(xs) + max(xs)) / 2, (min(ys) + max(ys)) / 2
    span = max(max(xs) - min(xs), max(ys) - min(ys), 1e-9)
    if not math.isfinite(span):
        raise DegenerateInputError("the placement's span is not finite")
    margin = 0.1 * size
    scale = (size - 2 * margin) / span

    def sx(x: float) -> float:
        return size / 2 + (x - cx) * scale

    def sy(y: float) -> float:
        return size / 2 - (y - cy) * scale

    def line(x1, y1, x2, y2, color, width, dash=None, cap="round") -> str:
        d = f' stroke-dasharray="{dash}"' if dash else ""
        return (
            f'<line x1="{_fmt(sx(x1))}" y1="{_fmt(sy(y1))}"'
            f' x2="{_fmt(sx(x2))}" y2="{_fmt(sy(y2))}"'
            f' stroke="{color}" stroke-width="{width}"'
            f' stroke-linecap="{cap}"{d} />'
        )

    fixed_vertices = {v for v, stab in enumerate(stabilizers(graph, "vertex")) if stab}
    fixed_edges = {e for e, stab in zip(graph.edges, stabilizers(graph, "edge")) if stab}
    fixed_loops = {l.id for l, stab in zip(graph.loops, stabilizers(graph, "loop")) if stab}

    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1"'
        f' width="{size}" height="{size}" viewBox="0 0 {size} {size}">',
        f"<title>{group.name} framework: {graph.num_vertices} vertices,"
        f" {len(graph.edges)} edges, {len(graph.loops)} loops</title>",
    ]

    # mirror lines through the origin
    half = span * 0.75
    for e in group.elements():
        if not e.ref:
            continue
        dx, dy = group.mirror_direction(e)
        parts.append(
            line(-dx * half, -dy * half, dx * half, dy * half, _MIRROR_COLOR, 1, dash="6 4")
        )

    # origin cross for rotations
    if group.rotation_order > 1:
        arm = span * 0.03
        parts.append(line(-arm, 0.0, arm, 0.0, _MIRROR_COLOR, 1, cap="butt"))
        parts.append(line(0.0, -arm, 0.0, arm, _MIRROR_COLOR, 1, cap="butt"))

    for (u, v) in graph.edges:
        color = _FIXED_COLOR if (u, v) in fixed_edges else _EDGE_COLOR
        parts.append(line(pts[u][0], pts[u][1], pts[v][0], pts[v][1], color, 2))

    # loop ticks: constraint line direction is perpendicular to the normal
    at_vertex: dict[int, list[int]] = {}
    for k, l in enumerate(graph.loops):
        at_vertex.setdefault(l.vertex, []).append(k)
    tick = span * 0.06
    shift = span * 0.02
    for k, (l, (qx, qy)) in enumerate(zip(graph.loops, qs)):
        norm = math.hypot(qx, qy)
        if norm == 0.0:
            continue
        ux, uy = qx / norm, qy / norm
        dx, dy = -uy, ux
        siblings = at_vertex[l.vertex]
        off = (siblings.index(k) - (len(siblings) - 1) / 2) * shift
        px = pts[l.vertex][0] + ux * off
        py = pts[l.vertex][1] + uy * off
        color = _FIXED_COLOR if l.id in fixed_loops else _LOOP_COLOR
        parts.append(
            line(px - dx * tick, py - dy * tick, px + dx * tick, py + dy * tick, color, 2)
        )

    for v, (x, y) in enumerate(pts):
        color = _FIXED_COLOR if v in fixed_vertices else _VERTEX_COLOR
        r = 5 if v in fixed_vertices else 4
        parts.append(
            f'<circle cx="{_fmt(sx(x))}" cy="{_fmt(sy(y))}" r="{r}" fill="{color}" />'
        )
        parts.append(
            f'<text x="{_fmt(sx(x) + 7)}" y="{_fmt(sy(y) - 7)}"'
            f' font-family="monospace" font-size="11" fill="#333333">{v}</text>'
        )

    parts.append("</svg>")
    return "\n".join(parts) + "\n"


__all__ = ["render_svg"]
