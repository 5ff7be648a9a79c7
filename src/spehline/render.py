"""ASCII and SVG rendering of support diagrams.

Both renderers put ``r`` on the horizontal axis and ``i`` on the
vertical one.  A diagram is the mapping from each point carrying
support to its factor indices; each point is drawn as a square, and
superposed diagrams show the number of contributing factors.
"""

from __future__ import annotations

from .diagrams import Diagram

CELL = 22  # svg grid pitch in px


def _extent(diag: Diagram) -> tuple[int, int]:
    """The largest ``r`` and the largest ``|i|`` of the points, 0 when there are none."""
    return max((p.r for p in diag), default=0), max((abs(p.i) for p in diag), default=0)


def ascii_diagram(diag: Diagram, show_counts: bool = False) -> str:
    if not diag:
        return "(empty diagram)\n"
    r_max, i_max = _extent(diag)
    lines = []
    for i in range(i_max, -i_max - 1, -1):
        row = []
        for r in range(1, r_max + 1):
            factors = diag.get((r, i))  # a point equals its plain tuple
            if factors is None:
                row.append(".")
            else:
                row.append(str(len(factors)) if show_counts else "#")
        lines.append(f"i={i:>3} | " + " ".join(row))
    lines.append("      +-" + "-" * (2 * r_max - 1))
    labels = " ".join(str(r)[-1] for r in range(1, r_max + 1))
    lines.append("     r: " + labels)
    return "\n".join(lines) + "\n"


def svg_diagram(diag: Diagram) -> str:
    r_max, i_max = _extent(diag)
    r_max = max(r_max, 1)
    width = (r_max + 2) * CELL
    height = (2 * i_max + 3) * CELL

    def x_of(r: int) -> int:
        return r * CELL

    def y_of(i: int) -> int:
        return (i_max - i + 1) * CELL

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{height}" viewBox="0 0 {width} {height}">',
        f'<line x1="{CELL // 2}" y1="{y_of(0)}" x2="{width - CELL // 2}" '
        f'y2="{y_of(0)}" stroke="#999" stroke-width="1"/>',
    ]
    for p in sorted(diag):  # points are (r, i) tuples
        size = CELL - 8
        x = x_of(p.r) - size // 2
        y = y_of(p.i) - size // 2
        parts.append(
            f'<rect x="{x}" y="{y}" width="{size}" height="{size}" '
            f'fill="#444" stroke="black"><title>(r={p.r}, i={p.i}), '
            f'factors {list(diag[p])}</title></rect>'
        )
    for r in range(1, r_max + 1):
        parts.append(
            f'<text x="{x_of(r)}" y="{height - 6}" font-size="10" '
            f'text-anchor="middle">{r}</text>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
