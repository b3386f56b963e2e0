"""SVG rendering of hosts and embeddings.

Both modes place universal-host vertices at x = index, y = height rank.
Schematic mode draws tree edges straight and the remaining host edges as
arcs.  Exact mode draws every edge straight, as on the exact coordinates of
`geometry.realize_coordinates`, where log2(y + 1) is the rank from the bottom
times log2(n + 1): a log-compressed picture, for display only.
Convex hosts go on a circle.  An embedding highlights its image vertices.
"""

from __future__ import annotations

import math

from .. import btree
from ..errors import IndexOutOfRange, SizeTooLarge

DRAW_CAP = 100_000  # most vertices, and most edges, that one picture draws

_V_STYLE = 'fill="#f8f8f8" stroke="#333" stroke-width="1"'
_E_STYLE = 'stroke="#888" stroke-width="1" fill="none"'
_T_STYLE = 'font-size="9" text-anchor="middle" dominant-baseline="middle"'
_M_STYLE = 'fill="none" stroke="#c22" stroke-width="2"'


def _svg(width: float, height: float, body: list[str]) -> str:
    head = (f'<svg xmlns="http://www.w3.org/2000/svg" width="{width:.0f}" '
            f'height="{height:.0f}" viewBox="0 0 {width:.0f} {height:.0f}">')
    return "\n".join([head, *body, "</svg>"])


def _vertex(x: float, y: float, label: int) -> list[str]:
    return [f'<circle class="vertex" cx="{x:.1f}" cy="{y:.1f}" r="8" {_V_STYLE}/>',
            f'<text class="label" x="{x:.1f}" y="{y:.1f}" {_T_STYLE}>{label}</text>']


def _tree_layout(G, layout: str):
    """Positions, canvas size and the curved-edge test on the universal host:
    vertex i at x = i and y = its height rank, the highest on top."""
    n, h = G.n, G.h
    order = sorted(range(n), key=btree.height_keys(h, n).__getitem__)
    rank = {v: i for i, v in enumerate(order)}
    pos = {i: (30.0 + 34 * i, 40.0 + 18 * rank[i]) for i in range(n)}

    def curved(u: int, v: int) -> bool:
        return layout != "exact" and btree._locate(h, v)[2] != u

    return pos, 60 + 34 * (n - 1), 80 + 18 * (n - 1), curved


def _circle_layout(n: int):
    """Positions and canvas size of a convex host; its edges are straight."""
    radius = max(80.0, 14.0 * n / math.pi)
    cx = cy = radius + 30
    pos = {}
    for i in range(n):
        ang = -math.pi / 2 + 2 * math.pi * i / max(n, 1)
        pos[i] = (cx + radius * math.cos(ang), cy + radius * math.sin(ang))
    return pos, 2 * (radius + 30), 2 * (radius + 30), lambda u, v: False


def render_svg(host, embedding=None, layout: str = "schematic") -> str:
    """The universal host on its tree layout, any other host on a circle."""
    if host.n > DRAW_CAP or host.edge_count() > DRAW_CAP:  # n first: a cheap bound
        raise SizeTooLarge(f"render draws at most {DRAW_CAP} vertices and edges each")
    if host.kind == "universal":
        pos, width, height, curved = _tree_layout(host, layout)
    else:
        pos, width, height, curved = _circle_layout(host.n)
    body = ['<g class="edges">']
    for u, v in host.edges():
        (x1, y1), (x2, y2) = pos[u], pos[v]
        if curved(u, v):
            mx, my = (x1 + x2) / 2, min(y1, y2) - 6 - 0.35 * abs(x2 - x1)
            body.append(f'<path class="edge" d="M {x1:.1f} {y1:.1f} '
                        f'Q {mx:.1f} {my:.1f} {x2:.1f} {y2:.1f}" {_E_STYLE}/>')
        else:
            body.append(f'<line class="edge" x1="{x1:.1f}" y1="{y1:.1f}" '
                        f'x2="{x2:.1f}" y2="{y2:.1f}" {_E_STYLE}/>')
    body.append("</g>")
    body.append('<g class="vertices">')
    for i in range(host.n):
        body.extend(_vertex(*pos[i], i))
    body.append("</g>")
    if embedding is not None:
        body.append('<g class="overlay">')
        for g in sorted(set(embedding.mapping.values())):
            if g not in pos:
                raise IndexOutOfRange(f"embedding image {g} not a host vertex in [0, {host.n})")
            x, y = pos[g]
            body.append(f'<circle class="mapped" cx="{x:.1f}" cy="{y:.1f}" r="11" {_M_STYLE}/>')
        body.append("</g>")
    return _svg(width, height, body)
