"""Deterministic SVG rendering of coloured graphs.

Class-0 edges are drawn solid, class 1 dashed, class 2 dotted; higher
classes cycle through dash patterns with distinct hues.  When the graph
carries no 2-d coordinates a small seeded spring layout is used; the seed
comes from a hash of the canonical serialization, so the picture is a pure
function of the graph.  Layout is cosmetic, not contractual.
"""

from __future__ import annotations

import math
import random
import zlib

from .cgraph import ColouredGraph, serialize

_DASHES = ["8,6", "2,5", "10,4,2,4", "6,3,1,3"]
_LAYOUT_STEPS = 120
_SIZE = 480
_MARGIN = 30


def edge_style(colour: int) -> tuple[str, str | None]:
    """(stroke colour, dash pattern or None) for a colour class."""
    if colour == 0:
        return "#000000", None
    dash = _DASHES[(colour - 1) % len(_DASHES)]
    if colour <= 2:
        return "#000000", dash
    hue = (137 * (colour - 3)) % 360
    return f"hsl({hue},70%,40%)", dash


def spring_layout(g: ColouredGraph) -> list[tuple[float, float]]:
    rng = random.Random(zlib.crc32(serialize(g).encode()))
    pos = [(rng.random(), rng.random()) for _ in range(g.n)]
    if g.n == 1:
        return pos
    ideal = 1.0 / math.sqrt(g.n)
    for step in range(_LAYOUT_STEPS):
        force = [[0.0, 0.0] for _ in range(g.n)]
        for i in range(g.n):
            for j in range(i + 1, g.n):
                dx = pos[i][0] - pos[j][0]
                dy = pos[i][1] - pos[j][1]
                dist = math.hypot(dx, dy) or 1e-9
                rep = ideal * ideal / dist
                force[i][0] += dx / dist * rep
                force[i][1] += dy / dist * rep
                force[j][0] -= dx / dist * rep
                force[j][1] -= dy / dist * rep
        for u, v in g.edges:
            dx = pos[u][0] - pos[v][0]
            dy = pos[u][1] - pos[v][1]
            dist = math.hypot(dx, dy) or 1e-9
            att = dist * dist / ideal
            force[u][0] -= dx / dist * att
            force[u][1] -= dy / dist * att
            force[v][0] += dx / dist * att
            force[v][1] += dy / dist * att
        temp = 0.1 * (1.0 - step / _LAYOUT_STEPS)
        new = []
        for i in range(g.n):
            fx, fy = force[i]
            norm = math.hypot(fx, fy) or 1e-9
            scale = min(norm, temp) / norm
            new.append((pos[i][0] + fx * scale, pos[i][1] + fy * scale))
        pos = new
    return pos


def render_svg(g: ColouredGraph) -> str:
    """SVG document for the graph, using its own coords when 2-dimensional."""
    if g.coords is not None and len(g.coords[0]) == 2:
        pos = [tuple(p) for p in g.coords]
    else:
        pos = spring_layout(g)
    xs = [p[0] for p in pos]
    ys = [p[1] for p in pos]
    span_x = (max(xs) - min(xs)) or 1.0
    span_y = (max(ys) - min(ys)) or 1.0
    span = max(span_x, span_y)

    def to_px(p):
        x = _MARGIN + (p[0] - min(xs)) / span * (_SIZE - 2 * _MARGIN)
        y = _SIZE - _MARGIN - (p[1] - min(ys)) / span * (_SIZE - 2 * _MARGIN)
        return round(x, 2), round(y, 2)

    lines = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_SIZE}" height="{_SIZE}" '
        f'viewBox="0 0 {_SIZE} {_SIZE}">',
    ]
    for (u, v), c in zip(g.edges, g.colours):
        (x1, y1), (x2, y2) = to_px(pos[u]), to_px(pos[v])
        colour, dash = edge_style(c)
        dash_attr = f' stroke-dasharray="{dash}"' if dash else ""
        lines.append(
            f'<line x1="{x1}" y1="{y1}" x2="{x2}" y2="{y2}" '
            f'stroke="{colour}" stroke-width="2.5"{dash_attr}/>'
        )
    for i, p in enumerate(pos):
        x, y = to_px(p)
        lines.append(
            f'<circle cx="{x}" cy="{y}" r="5" fill="white" stroke="black" stroke-width="1.5"/>'
        )
        lines.append(
            f'<text x="{x + 8}" y="{y - 8}" font-size="13" font-family="sans-serif">{i}</text>'
        )
    lines.append("</svg>")
    return "\n".join(lines) + "\n"
