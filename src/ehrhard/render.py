"""Deterministic SVG rendering of profiles, scenes, and columnar sets.

Output is plain SVG text assembled from sorted iteration with fixed
number formatting, so the same input always yields byte-identical bytes.
The drawing window clips base coordinates and heights to [-4, 4]:
infinite cells and half-lines appear truncated at the frame.

Sets over 2-D bases (which live in three dimensions) are drawn as their
base scene only: a value heatmap with interface decorations.
"""

from __future__ import annotations

import math
from typing import Optional

from .columnar import ColumnarSet
from .gauss import gamma1
from .profiles import Profile, from_profile
from .rigidity import RigidityReport

WIDTH = 640
HEIGHT = 480
MARGIN = 40
VIEW = 4.0

_FILL_PLUS = "#4a90d9"
_FILL_MINUS = "#d9774a"
_BLOCKED = "#b91c1c"
_GRIDLINE = "#c8c8c8"
_AXIS = "#303030"


def _clip(x: float) -> float:
    return max(-VIEW, min(VIEW, x))


def _fmt(x: float) -> str:
    out = f"{x:.4f}"
    return "0.0000" if out == "-0.0000" else out


def _px(x: float) -> float:
    return MARGIN + (WIDTH - 2 * MARGIN) * (_clip(x) + VIEW) / (2 * VIEW)


def _py(t: float) -> float:
    return HEIGHT - MARGIN - (HEIGHT - 2 * MARGIN) * (_clip(t) + VIEW) / (2 * VIEW)


def _rect(x0: float, x1: float, t0: float, t1: float, fill: str, opacity: str = "1") -> str:
    left, right = _px(x0), _px(x1)
    top, bottom = _py(t1), _py(t0)
    if right - left <= 0 or bottom - top <= 0:
        return ""
    return (
        f'<rect x="{_fmt(left)}" y="{_fmt(top)}" width="{_fmt(right - left)}" '
        f'height="{_fmt(bottom - top)}" fill="{fill}" fill-opacity="{opacity}"/>'
    )


def _line(x0: float, y0: float, x1: float, y1: float, stroke: str, dashed: bool = False) -> str:
    dash = ' stroke-dasharray="6 4"' if dashed else ""
    return (
        f'<line x1="{_fmt(x0)}" y1="{_fmt(y0)}" x2="{_fmt(x1)}" y2="{_fmt(y1)}" '
        f'stroke="{stroke}" stroke-width="1.5"{dash}/>'
    )


def _header(title: str) -> list[str]:
    return [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{HEIGHT}" '
        f'viewBox="0 0 {WIDTH} {HEIGHT}">',
        f'<title>{title}</title>',
        f'<rect x="0" y="0" width="{WIDTH}" height="{HEIGHT}" fill="white"/>',
    ]


def _frame() -> str:
    return (
        f'<rect x="{MARGIN}" y="{MARGIN}" width="{WIDTH - 2 * MARGIN}" '
        f'height="{HEIGHT - 2 * MARGIN}" fill="none" stroke="{_AXIS}" stroke-width="1"/>'
    )


def render_columnar(e: ColumnarSet, minus_cells: tuple = ()) -> str:
    """SVG of a columnar set; minus-side cells draw in the second tone.

    1-D bases draw the actual set in the (base, height) plane; 2-D bases
    draw the base heatmap of column masses.
    """
    if e.grid.base_dim == 2:
        # gamma1 once per distinct section (model sets share them), by identity
        sections = list(map(e.section, e.grid.cells()))
        mass = {key: gamma1(s) for key, s in {id(s): s for s in sections}.items()}
        return _render_base_heatmap(
            e.grid,
            [mass[id(s)] for s in sections],
            blocked=[],
            minus_cells=set(map(tuple, minus_cells)),
            title="columnar set (base scene)",
        )
    minus = set(map(tuple, minus_cells))
    parts = _header("columnar set")
    bps = e.grid.axes[0]
    for cid in e.grid.cells():
        s = e.section(cid)
        if s.is_empty:
            continue
        x0, x1 = bps[cid[0]], bps[cid[0] + 1]
        fill = _FILL_MINUS if cid in minus else _FILL_PLUS
        for iv in s:
            piece = _rect(x0, x1, iv.lo, iv.hi, fill)
            if piece:
                parts.append(piece)
    for b in bps:
        if not math.isinf(b) and -VIEW <= b <= VIEW:
            parts.append(_line(_px(b), _py(-VIEW), _px(b), _py(VIEW), _GRIDLINE))
    parts.append(_line(_px(-VIEW), _py(0.0), _px(VIEW), _py(0.0), _AXIS))
    parts.append(_frame())
    parts.append("</svg>")
    return "\n".join(x for x in parts if x) + "\n"


def render_profile(p: Profile, report: Optional[RigidityReport] = None) -> str:
    """SVG of a profile's model set (1-D base) or base scene (2-D base).

    With a NonRigid report the witness counterexample is drawn instead,
    two-toned by partition side; blocked interfaces draw dashed.
    """
    minus: tuple = ()
    if report is not None and report.certificate is not None:
        minus = report.certificate.minus_cells
    grid, in_g, cut = p._band(0.0, 1.0)
    below, above = grid.edges()
    blocked = [grid.edge_facet(k) for k in sorted(cut) if in_g[below[k]] and in_g[above[k]]]
    if grid.base_dim == 2:
        return _render_base_heatmap(
            grid,
            list(p._values.values()),
            blocked=blocked,
            minus_cells=set(map(tuple, minus)),
            title="profile (base scene)",
        )
    target = from_profile(p)
    if report is not None and report.counterexample is not None:
        target = report.counterexample
    svg = render_columnar(target, minus_cells=minus)
    decorations = []
    for f in blocked:
        z = grid.facet_coordinate(f)
        if -VIEW <= z <= VIEW:
            decorations.append(_line(_px(z), _py(-VIEW), _px(z), _py(VIEW), _BLOCKED, dashed=True))
    if decorations:
        svg = svg.replace("</svg>", "\n".join(decorations) + "\n</svg>")
    return svg


def _render_base_heatmap(grid, values, blocked, minus_cells, title) -> str:
    """Heatmap of the cell ``values``, given in :meth:`~ehrhard.grids.Grid.cells`
    order, with ``minus_cells`` tinted and ``blocked`` facets dashed.

    Every cell is drawn as :func:`_rect` draws its box, from the frame
    coordinates of its column and row, which are worked out once per
    breakpoint and written once per column and row.
    """
    parts = _header(title)
    xs, ys = grid.axes
    px = [_px(x) for x in xs]
    py = [_py(y) for y in ys]
    # the (x, width) text of every column and the (y, height) text of every
    # row with a positive extent in the frame, whose y axis points down
    cols = [
        (i, _fmt(left), _fmt(right - left))
        for i, (left, right) in enumerate(zip(px, px[1:]))
        if right - left > 0
    ]
    rows = [
        (j, _fmt(top), _fmt(bottom - top))
        for j, (bottom, top) in enumerate(zip(py, py[1:]))
        if bottom - top > 0
    ]
    ny = len(py) - 1
    fills: dict[float, str] = {}
    for i, x, width in cols:
        for j, y, height in rows:
            v = values[i * ny + j]
            fill = fills.get(v)
            if fill is None:
                level = int(round(255 * (1.0 - 0.85 * v)))
                fill = fills[v] = f"#{level:02x}{level:02x}{level:02x}"
            box = f'<rect x="{x}" y="{y}" width="{width}" height="{height}" fill="'
            parts.append(f'{box}{fill}" fill-opacity="1"/>')
            if (i, j) in minus_cells:
                parts.append(f'{box}{_FILL_MINUS}" fill-opacity="0.35"/>')
    for f in sorted(blocked):
        z = grid.facet_coordinate(f)
        span = grid.facet_span(f)
        lo, hi = _clip(span.lo), _clip(span.hi)
        if hi <= lo or not -VIEW <= z <= VIEW:
            continue
        if f.axis == 0:
            parts.append(_line(_px(z), _py(lo), _px(z), _py(hi), _BLOCKED, dashed=True))
        else:
            parts.append(_line(_px(lo), _py(z), _px(hi), _py(z), _BLOCKED, dashed=True))
    parts.append(_frame())
    parts.append("</svg>")
    return "\n".join(x for x in parts if x) + "\n"
