"""Deterministic SVG rendering of instances and solutions."""

from __future__ import annotations

from typing import Optional

from .model import INVALID_CLASS, Color, EdgeSet, Instance, PreconditionError

_COLOR = {Color.RED: "#cc2222", Color.BLUE: "#2244cc", Color.PURPLE: "#882288"}

_MARGIN_FRAC = 0.05
_POINT_RADIUS = 4.0


def _frame(xs, ys, size: int) -> tuple[float, float, float, float]:
    """(min_x, min_y, margin, scale) that fit points xs, ys into the size-by-size square.

    The scale is 0.0 where the framed span overflows, as it can near the float range.
    """
    xs, ys = xs.tolist(), ys.tolist()
    min_x, min_y = min(xs), min(ys)
    span = max(max(xs) - min_x, max(ys) - min_y, 1e-12)
    margin = _MARGIN_FRAC * span
    return min_x, min_y, margin, size / (span + 2.0 * margin)


def render_svg(instance: Instance, edge_set: Optional[EdgeSet] = None, size: int = 640) -> str:
    """SVG document with edges under points; purple strokes are drawn wider.

    The edge set must be on `instance` itself. PreconditionError names the
    first edge, in edge-set order, that joins a red and a blue point.
    """
    if edge_set is not None:
        if edge_set.instance is not instance:
            raise PreconditionError("edge set is on another instance")
        red_blue = edge_set.color_class == INVALID_CLASS
        if red_blue.any():
            i = int(red_blue.argmax())
            raise PreconditionError(
                f"edge ({edge_set.u[i]}, {edge_set.v[i]}) joins a red and a blue point")
    xs, ys = instance.xs, instance.ys
    min_x, min_y, margin, scale = _frame(xs, ys, size)
    if scale == 0.0:
        # Draw a quarter-size copy: its span fits, and a power-of-two factor
        # leaves every drawn coordinate as it was.
        xs, ys = xs * 0.25, ys * 0.25
        min_x, min_y, margin, scale = _frame(xs, ys, size)
    px = ((xs - min_x + margin) * scale).tolist()
    # Flip y so the drawing matches the usual mathematical orientation.
    py = (size - (ys - min_y + margin) * scale).tolist()

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
                     % (x, y, _POINT_RADIUS, _COLOR[color]))
    lines.append("</svg>")
    return "\n".join(lines) + "\n"
