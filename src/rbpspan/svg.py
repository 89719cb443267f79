"""Deterministic SVG rendering of instances and solutions."""

from __future__ import annotations

from typing import Optional

from .model import Color, EdgeSet, Instance, Solution

_COLOR = {Color.RED: "#cc2222", Color.BLUE: "#2244cc", Color.PURPLE: "#882288"}

_MARGIN_FRAC = 0.05


def render_svg(instance: Instance, edge_set: Optional[EdgeSet] = None,
               size: int = 640, point_radius: float = 4.0) -> str:
    """SVG document with edges under points; purple strokes are drawn wider."""
    if isinstance(edge_set, Solution):
        edge_set = edge_set.edge_set
    xs = [p.x for p in instance.points]
    ys = [p.y for p in instance.points]
    min_x, max_x = min(xs), max(xs)
    min_y, max_y = min(ys), max(ys)
    span = max(max_x - min_x, max_y - min_y, 1e-12)
    margin = _MARGIN_FRAC * span
    scale = size / (span + 2.0 * margin)

    def sx(x: float) -> float:
        return (x - min_x + margin) * scale

    def sy(y: float) -> float:
        # Flip y so the drawing matches the usual mathematical orientation.
        return size - (y - min_y + margin) * scale

    lines = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{size}" height="{size}" '
        f'viewBox="0 0 {size} {size}">',
        f'<rect width="{size}" height="{size}" fill="white"/>',
    ]
    base_width = max(1.0, size / 640.0)
    if edge_set is not None:
        for e in edge_set.edges:
            a, b = instance.points[e.u], instance.points[e.v]
            width = base_width * (1.5 if e.color_class == Color.PURPLE else 1.0)
            lines.append(
                '<line x1="%.3f" y1="%.3f" x2="%.3f" y2="%.3f" stroke="%s" '
                'stroke-width="%.3f"/>'
                % (sx(a.x), sy(a.y), sx(b.x), sy(b.y), _COLOR[e.color_class], width)
            )
    for p in instance.points:
        lines.append(
            '<circle cx="%.3f" cy="%.3f" r="%.3f" fill="%s"/>'
            % (sx(p.x), sy(p.y), point_radius, _COLOR[p.color])
        )
    lines.append("</svg>")
    return "\n".join(lines) + "\n"
