"""Rendering of finite windows as ASCII art or standalone SVG."""

from __future__ import annotations

from .grid import Point
from .pattern import FiniteWindow

CELL = 24  # side of one grid cell, in SVG pixels


def render_svg(window: FiniteWindow, pairs: list[tuple[Point, Point]] | None = None) -> str:
    """Draw members as filled squares; ``pairs`` adds partner segments.

    Only segments with both endpoints inside the window are drawn.
    """
    cols = window.x1 - window.x0 + 1
    rows = window.y1 - window.y0 + 1
    width, height = cols * CELL, rows * CELL

    def corner(p: Point) -> tuple[int, int]:
        return (p[0] - window.x0) * CELL, (window.y1 - p[1]) * CELL

    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}"'
        f' viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
    ]
    pad = max(1, CELL // 8)
    for p in sorted(window.points):
        x, y = corner(p)
        out.append(
            f'<rect x="{x + pad}" y="{y + pad}" width="{CELL - 2 * pad}"'
            f' height="{CELL - 2 * pad}" fill="#1f3a5f"/>'
        )
    for x in range(cols + 1):
        out.append(
            f'<line x1="{x * CELL}" y1="0" x2="{x * CELL}" y2="{height}"'
            ' stroke="#cccccc" stroke-width="1"/>'
        )
    for y in range(rows + 1):
        out.append(
            f'<line x1="0" y1="{y * CELL}" x2="{width}" y2="{y * CELL}"'
            ' stroke="#cccccc" stroke-width="1"/>'
        )
    if pairs:
        half = CELL // 2
        seen = set()
        for a, b in pairs:
            key = (min(a, b), max(a, b))
            if key in seen:
                continue
            seen.add(key)
            if not (window.contains(a) and window.contains(b)):
                continue
            (ax, ay), (bx, by) = corner(a), corner(b)
            out.append(
                f'<line x1="{ax + half}" y1="{ay + half}" x2="{bx + half}"'
                f' y2="{by + half}" stroke="#d62828" stroke-width="3"'
                ' stroke-linecap="round"/>'
            )
    out.append("</svg>")
    return "\n".join(out)
