"""Deterministic SVG rendering of instances and solutions."""

from __future__ import annotations

from typing import Optional

import numpy as np

from .model import Color, EdgeSet, Instance, Solution

_COLOR = {Color.RED: "#cc2222", Color.BLUE: "#2244cc", Color.PURPLE: "#882288"}

_MARGIN_FRAC = 0.05


def render_svg(instance: Instance, edge_set: Optional[EdgeSet] = None,
               size: int = 640, point_radius: float = 4.0) -> str:
    """SVG document with edges under points; purple strokes are drawn wider."""
    if isinstance(edge_set, Solution):
        edge_set = edge_set.edge_set
    xs, ys = instance.xs.tolist(), instance.ys.tolist()
    min_x, max_x = min(xs), max(xs)
    min_y, max_y = min(ys), max(ys)
    span = max(max_x - min_x, max_y - min_y, 1e-12)
    margin = _MARGIN_FRAC * span
    scale = size / (span + 2.0 * margin)
    with np.errstate(all="ignore"):  # inf and nan at extreme spans, as Python floats give
        px = ((instance.xs - min_x + margin) * scale).tolist()
        # Flip y so the drawing matches the usual mathematical orientation.
        py = (size - (instance.ys - min_y + margin) * scale).tolist()

    lines = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{size}" height="{size}" '
        f'viewBox="0 0 {size} {size}">',
        f'<rect width="{size}" height="{size}" fill="white"/>',
    ]
    base_width = max(1.0, size / 640.0)
    if edge_set is not None:
        for u, v, cls in zip(edge_set.u.tolist(), edge_set.v.tolist(),
                             edge_set.color_class.tolist()):
            width = base_width * (1.5 if cls == Color.PURPLE else 1.0)
            lines.append('<line x1="%.3f" y1="%.3f" x2="%.3f" y2="%.3f" stroke="%s" '
                         'stroke-width="%.3f"/>' % (px[u], py[u], px[v], py[v], _COLOR[cls], width))
    for x, y, color in zip(px, py, instance.colors.tolist()):
        lines.append('<circle cx="%.3f" cy="%.3f" r="%.3f" fill="%s"/>'
                     % (x, y, point_radius, _COLOR[color]))
    lines.append("</svg>")
    return "\n".join(lines) + "\n"
