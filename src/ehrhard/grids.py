"""Axis-aligned grids over 1-D or 2-D bases.

A grid is a list of strictly increasing breakpoints per base axis; the
first and last breakpoint of an axis may be infinite. Cells are the open
boxes between consecutive breakpoints, addressed by integer index tuples.
A facet is the codimension-one interface orthogonal to one axis, sitting
on one interior or boundary grid line, at one lateral cell index (always
0 for 1-D bases, where a facet is a single point).
"""

from __future__ import annotations

import math
from array import array
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from functools import cache
from itertools import compress, product, repeat
from operator import and_, floordiv, mod, mul, sub
from typing import Any, Callable, Iterable, Iterator, Optional, Sequence

from .errors import GridError
from .gauss import phi
from .intervals import Interval

__all__ = ["Facet", "Grid"]

INF = math.inf

CellId = tuple[int, ...]
# one array of doubles per base axis
_Table = tuple[array, ...]


@dataclass(frozen=True, slots=True, order=True)
class Facet:
    """Interface orthogonal to ``axis`` on grid line ``line``.

    ``line`` indexes the breakpoint along ``axis`` (0 .. number of cells),
    so lines 0 and n are the outer boundary of the grid. ``lateral`` is
    the cell index along the remaining axis; 0 for a 1-D base.
    """

    axis: int
    line: int
    lateral: int = 0


class Grid:
    """Validated breakpoint grid with measure helpers.

    Breakpoints must be strictly increasing, which is also what keeps an
    infinite breakpoint at an end of its axis: nothing is above ``inf``
    or below ``-inf``.

    The measure helpers read three per-axis tables of doubles, built on
    the first measure query, not at construction: the gamma1 mass
    ``phi(b[i]) - phi(b[i+1])`` of every cell side, the weight
    ``exp(-z*z/2)`` of every grid line (0.0 on infinite lines) and the
    length ``b[i+1] - b[i]`` of every cell side.

    The facets have one walk, :meth:`edges`: every facet of :meth:`facets`
    as a position with its two neighbour cells, the exterior counting as
    one more cell. A 2-D grid builds its edge arrays on first use, like
    the tables. Every facet question of the package but piece
    decomposition (kept apart as an independent reference) and the
    drawing's blocked facets (read from a cut by position) picks its
    edges from that walk through one primitive, ``_links``: the edges
    whose two cells' labels are both set or differ, less a cut of
    positions. A facet is read back from its position one at a time
    (:meth:`edge_facet`, ``_edge_place``, ``_edge_measures``) or, for many
    ascending positions at once, as columns of axes, lines, laterals and
    Gaussian measures (``_edge_columns``), with the same arithmetic.

    A grid derived from another, a refinement or an extension by infinite
    ends, has one map back to it, ``_parents``: per axis, the side of the
    other grid that holds each side of this one. A cell's item is read
    from the cell that holds it (``_lift``), and a facet of the other grid
    is made of the facets ``_facet_map`` gives, both through that map.
    """

    __slots__ = ("_axes", "_shape", "_layout", "_tables", "_edges")

    def __init__(self, *axes: Sequence[float]) -> None:
        if not 1 <= len(axes) <= 2:
            raise GridError(f"grid must have 1 or 2 base axes, got {len(axes)}")
        cooked: list[tuple[float, ...]] = []
        for k, bps in enumerate(axes):
            vals = tuple(float(b) for b in bps)
            if len(vals) < 2:
                raise GridError(f"axis {k} needs at least 2 breakpoints")
            for b in vals:
                if math.isnan(b):
                    raise GridError(f"axis {k} contains NaN")
            for a, b in zip(vals, vals[1:]):
                if not a < b:
                    raise GridError(f"axis {k} breakpoints not strictly increasing: {a} >= {b}")
            cooked.append(vals)
        self._axes = tuple(cooked)
        self._shape = tuple(len(a) - 1 for a in cooked)
        # the cells as an nx x ny plane (n x 1 for a 1-D grid) and, per axis,
        # the first finite grid line and the count of finite lines (none on
        # the missing axis of a 1-D grid)
        lines = [(0, 0), (0, 0)]
        for axis, a in enumerate(cooked):
            first = int(math.isinf(a[0]))
            lines[axis] = (first, len(a) - first - math.isinf(a[-1]))
        plane = self._shape if len(cooked) == 2 else (self._shape[0], 1)
        self._layout = (*plane, *lines[0], *lines[1])
        self._tables: Optional[tuple[_Table, _Table, _Table]] = None
        self._edges: Optional[tuple[array, array]] = None

    # ------------------------------------------------------------------

    @property
    def axes(self) -> tuple[tuple[float, ...], ...]:
        return self._axes

    @property
    def base_dim(self) -> int:
        return len(self._axes)

    @property
    def shape(self) -> tuple[int, ...]:
        return self._shape

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Grid):
            return NotImplemented
        return self._axes == other._axes

    def __hash__(self) -> int:
        return hash(self._axes)

    def __repr__(self) -> str:
        return f"Grid(base_dim={self.base_dim}, shape={self._shape})"

    def _measures(self) -> tuple[_Table, _Table, _Table]:
        """Per-axis (cell gamma1 masses, line weights, cell side lengths)."""
        if self._tables is None:
            gamma, weight, sides = [], [], []
            for bps in self._axes:
                tail = [phi(b) for b in bps]
                gamma.append(array("d", [a - b for a, b in zip(tail, tail[1:])]))
                weight.append(
                    array("d", [0.0 if math.isinf(z) else math.exp(-0.5 * z * z) for z in bps])
                )
                sides.append(array("d", [b - a for a, b in zip(bps, bps[1:])]))
            self._tables = (tuple(gamma), tuple(weight), tuple(sides))
        return self._tables

    @staticmethod
    def regular(lo: float, hi: float, cells: int) -> tuple[float, ...]:
        """Breakpoints of a uniform axis with the given cell count."""
        if cells < 1:
            raise GridError("regular axis needs at least one cell")
        step = (hi - lo) / cells
        bps = [lo + i * step for i in range(cells)]
        bps.append(hi)
        return tuple(bps)

    # ------------------------------------------------------------------
    # cells

    def cells(self) -> Iterator[CellId]:
        """All cells in lexicographic order."""
        return product(*map(range, self._shape))

    def cell_index(self, cid: CellId) -> int:
        """Position of the cell in :meth:`cells` order (row-major)."""
        if len(cid) == 1:
            return cid[0]
        return cid[0] * self._shape[1] + cid[1]

    def check_cell(self, cid: CellId) -> CellId:
        cid = tuple(int(c) for c in cid)
        if len(cid) != len(self._shape) or not all(
            0 <= c < n for c, n in zip(cid, self._shape)
        ):
            raise GridError(f"cell {cid} outside grid of shape {self._shape}")
        return cid

    def cell_side(self, axis: int, index: int) -> Interval:
        bps = self._axes[axis]
        return Interval(bps[index], bps[index + 1])

    def cell_gauss(self, cid: CellId) -> float:
        masses = self._measures()[0]
        out = 1.0
        for axis, c in enumerate(self.check_cell(cid)):
            out *= masses[axis][c]
        return out

    def cell_lebesgue(self, cid: CellId) -> float:
        sides = self._measures()[2]
        out = 1.0
        for axis, c in enumerate(self.check_cell(cid)):
            out *= sides[axis][c]
        return out

    def _cell_measures(self) -> Iterator[tuple[float, float]]:
        """:meth:`cell_gauss` and :meth:`cell_lebesgue` of every cell, in
        :meth:`cells` order."""
        masses, _, sides = self._measures()
        if len(self._axes) == 1:
            return zip(masses[0], sides[0])
        return (
            (m0 * m1, s0 * s1)
            for m0, s0 in zip(masses[0], sides[0])
            for m1, s1 in zip(masses[1], sides[1])
        )

    # ------------------------------------------------------------------
    # facets

    def facets(self, interior_only: bool = False) -> Iterator[Facet]:
        """All finite-coordinate facets, sorted; optionally interior ones only.

        These are the facets of :meth:`edges`, in its order. Boundary
        facets on an infinite grid line do not exist as sets and are never
        produced.
        """
        labels = [True] * (self._layout[0] * self._layout[1]) + [not interior_only]
        return (self.edge_facet(k) for k, _, _ in self._links(labels))

    def edges(self) -> tuple[Sequence[int], Sequence[int]]:
        """The two cells of every facet, as :meth:`cell_index` values.

        Position k of both sequences is the k-th facet of :meth:`facets`
        (:meth:`edge_index` and :meth:`edge_facet` map between them), and
        ``(below[k], above[k])`` are its neighbours along the facet axis,
        the exterior of the grid counting as one more cell whose index is
        the cell count. Grids of one axis with the same cell count and
        the same finite ends share one pair of sequences; a 2-D grid builds
        two integer arrays on the first call and keeps them. No measure is
        read.
        """
        if len(self._shape) == 1:
            return _line_edges(self._shape[0], *self._layout[2:4])
        if self._edges is None:
            nx, ny, first0, lines0, first1, lines1 = self._layout
            out = nx * ny
            below, above = array("l"), array("l")
            # axis 0, line by line: cell (line - 1, lat) below (line, lat)
            for line in range(first0, first0 + lines0):
                below.extend(range((line - 1) * ny, line * ny) if line else [out] * ny)
                above.extend(range(line * ny, (line + 1) * ny) if line < nx else [out] * ny)
            # axis 1, line by line: cell (lat, line - 1) below (lat, line)
            for line in range(first1, first1 + lines1):
                below.extend(range(line - 1, out, ny) if line else [out] * nx)
                above.extend(range(line, out, ny) if line < ny else [out] * nx)
            self._edges = (below, above)
        return self._edges

    def _links(
        self,
        labels: Sequence[Any],
        cut: Iterable[int] = (),
        relation: Callable[[Any, Any], Any] = and_,
    ) -> Iterator[tuple[int, int, int]]:
        """``(k, i, j)`` for every edge ``k`` of :meth:`edges` whose cells
        ``i`` and ``j`` have labels (by :meth:`cell_index`, the exterior's
        last) that meet ``relation``, in ascending order, leaving out the
        edge positions in ``cut``.

        With ``and_`` (the default) these are the edges between two cells
        whose labels are both set; with ``operator.ne``, the edges across
        which the label changes. The relation's results fill a byte mask,
        so they must be bools or small ints; both the mask and the pick
        are built at C speed.
        """
        below, above = self.edges()
        label = labels.__getitem__
        mask = bytearray(map(relation, map(label, below), map(label, above)))
        for k in cut:
            mask[k] = 0
        return compress(zip(range(len(below)), below, above), mask)

    def edge_index(self, f: Facet) -> Optional[int]:
        """Position of the facet in :meth:`edges`; None unless it is a facet of the grid."""
        nx, ny, first0, lines0, first1, lines1 = self._layout
        line, lat = f.line, f.lateral
        if f.axis == 0 and 0 <= line - first0 < lines0 and 0 <= lat < ny:
            return (line - first0) * ny + lat
        if f.axis == 1 and 0 <= line - first1 < lines1 and 0 <= lat < nx:
            return lines0 * ny + (line - first1) * nx + lat
        return None

    def edge_facet(self, k: int) -> Facet:
        """The facet at position ``k`` of :meth:`edges`.

        The inverse of :meth:`edge_index`: facets come in sorted order, so
        ascending positions give sorted facets.
        """
        return Facet(*self._edge_place(k))

    def _edge_place(self, k: int) -> tuple[int, int, int]:
        """(axis, line, lateral) of the facet at position ``k`` of :meth:`edges`."""
        nx, ny, first0, lines0, first1, lines1 = self._layout
        across = lines0 * ny
        if 0 <= k < across:
            line, lat = divmod(k, ny)
            return 0, first0 + line, lat
        if 0 <= k - across < lines1 * nx:
            line, lat = divmod(k - across, nx)
            return 1, first1 + line, lat
        raise GridError(f"edge position {k} outside grid of shape {self._shape}")

    def _edge_measures(self, k: int) -> tuple[float, float]:
        """:meth:`facet_gauss` and :meth:`facet_lebesgue` of the facet at
        position ``k`` of :meth:`edges`, read from the tables; no
        :class:`Facet` is built. Every such facet lies on a finite line."""
        axis, line, lat = self._edge_place(k)
        gamma, weight, sides = self._measures()
        if len(self._axes) == 1:
            return weight[0][line], 1.0
        return weight[axis][line] * gamma[1 - axis][lat], sides[1 - axis][lat]

    def _edge_columns(self, ks: Sequence[int]) -> tuple[list[int], list[int], list[int], list[float]]:
        """The axes, lines, laterals and :meth:`facet_gauss` of the facets at
        the ascending edge positions ``ks``, one list each: the columns of
        :meth:`_edge_place` and of the first item of :meth:`_edge_measures`,
        with the same float product, built at C speed."""
        nx, ny, first0, lines0, first1, _ = self._layout
        gamma, weight, _ = self._measures()
        split = bisect_left(ks, lines0 * ny)  # the first axis-1 position
        axes = [0] * split + [1] * (len(ks) - split)
        lines: list[int] = []
        lats: list[int] = []
        gauss: list[float] = []
        # the facets of one axis are numbered line by line past those of the
        # axes before, so position k is offset + line * width + lateral
        for axis, part, offset, width in (
            (0, ks[:split], -first0 * ny, ny),
            (1, ks[split:], lines0 * ny - first1 * nx, nx),
        )[: len(self._axes)]:
            shifted = list(map(sub, part, repeat(offset)))
            line = list(map(floordiv, shifted, repeat(width)))
            lat = list(map(mod, shifted, repeat(width)))
            lines += line
            lats += lat
            w = map(weight[axis].__getitem__, line)
            gauss += w if len(self._axes) == 1 else map(mul, w, map(gamma[1 - axis].__getitem__, lat))
        return axes, lines, lats, gauss

    def facet_cells(self, f: Facet) -> tuple[Optional[CellId], Optional[CellId]]:
        """Neighbor cells (below, above) along the facet axis; None = exterior."""
        self._check_facet(f)
        n = self._shape[f.axis]
        below = f.line - 1 if f.line >= 1 else None
        above = f.line if f.line <= n - 1 else None

        def make(i: Optional[int]) -> Optional[CellId]:
            if i is None:
                return None
            if len(self._axes) == 1:
                return (i,)
            return (i, f.lateral) if f.axis == 0 else (f.lateral, i)

        return make(below), make(above)

    def facet_coordinate(self, f: Facet) -> float:
        self._check_facet(f)
        return self._axes[f.axis][f.line]

    def facet_span(self, f: Facet) -> Optional[Interval]:
        """Lateral extent of the facet; None for a 1-D base (a point facet)."""
        self._check_facet(f)
        if self.base_dim == 1:
            return None
        return self.cell_side(1 - f.axis, f.lateral)

    def facet_gauss(self, f: Facet) -> float:
        """Unnormalized Gaussian surface measure of the facet in the base.

        For a point facet at coordinate z this is ``exp(-z*z/2)``; for a
        segment ``{z} x (a, b)`` it is ``exp(-z*z/2) * gamma1((a, b))``
        (0 on an infinite line, which :meth:`edges` leaves out).
        """
        self._check_facet(f)
        k = self.edge_index(f)
        return 0.0 if k is None else self._edge_measures(k)[0]

    def facet_lebesgue(self, f: Facet) -> float:
        """Lebesgue surface measure of the facet: 1 for a point, else length
        (0 on an infinite line, which :meth:`edges` leaves out)."""
        self._check_facet(f)
        k = self.edge_index(f)
        return 0.0 if k is None else self._edge_measures(k)[1]

    def _check_facet(self, f: Facet) -> None:
        if not 0 <= f.axis < self.base_dim:
            raise GridError(f"facet axis {f.axis} outside base dimension {self.base_dim}")
        if not 0 <= f.line < len(self._axes[f.axis]):
            raise GridError(f"facet line {f.line} outside axis {f.axis}")
        lat_count = 1 if self.base_dim == 1 else self._shape[1 - f.axis]
        if not 0 <= f.lateral < lat_count:
            raise GridError(f"facet lateral index {f.lateral} outside grid")

    # ------------------------------------------------------------------
    # refinement

    def refine_with(self, other: "Grid") -> "Grid":
        """Smallest common refinement (breakpoint union, per axis)."""
        if other.base_dim != self.base_dim:
            raise GridError(
                f"cannot refine a {self.base_dim}-D grid with a {other.base_dim}-D one"
            )
        merged = []
        for a, b in zip(self._axes, other._axes):
            merged.append(tuple(sorted(set(a) | set(b))))
        return Grid(*merged)

    def axis_parent(self, axis: int, lo: float) -> Optional[int]:
        """Index of this grid's cell on ``axis`` whose side contains [lo, ...).

        ``lo`` must be a breakpoint of a refinement of this grid or of this
        grid extended by infinite ends, so exact comparisons suffice.
        Returns None when lo is outside the axis span. :meth:`_parents`, the
        one map from such a grid back to this one, asks it once per side.
        """
        bps = self._axes[axis]
        i = bisect_right(bps, lo) - 1
        if i < 0 or i >= len(bps) - 1:
            return None
        return i

    def _parents(self, coarse: "Grid") -> tuple[list[Optional[int]], ...]:
        """Per axis, the index of the side of ``coarse`` that holds each side
        of this grid (a refinement of ``coarse`` or ``coarse`` extended by
        infinite ends), or None outside it: :meth:`axis_parent` of the
        side's lower end, once per side."""
        if coarse.base_dim != self.base_dim:
            raise GridError(f"cannot place a {self.base_dim}-D grid on a {coarse.base_dim}-D one")
        return tuple(
            [coarse.axis_parent(axis, lo) for lo in bps[:-1]] for axis, bps in enumerate(self._axes)
        )

    def _lift(self, coarse: "Grid", items: Sequence[Any], default: Any) -> list[Any]:
        """Per cell of this grid, in :meth:`cells` order, the item of the cell
        of ``coarse`` that holds it (``items`` by ``coarse``'s
        :meth:`cell_index`), or ``default`` outside ``coarse``."""
        *rows, cols = self._parents(coarse)
        width = coarse._shape[-1]
        picks = [width if c is None else c for c in cols]  # width: past the row
        out: list[Any] = []
        for r in rows[0] if rows else [0]:
            row = [default] * width if r is None else items[r * width : (r + 1) * width]
            out += map([*row, default].__getitem__, picks)
        return out

    def _facet_map(self, coarse: "Grid") -> Callable[[Facet], list[Facet]]:
        """The facets of this grid that make up a facet of ``coarse``: those
        on its grid line whose lateral sides :meth:`_parents` puts in its
        lateral side. A line or side outside ``coarse`` moves as its
        nearest end does, so on an extension every facet shifts alike.
        Raises ``GridError`` unless this grid has every breakpoint of
        ``coarse``."""
        parents = self._parents(coarse)
        if not all(set(a) <= set(b) for a, b in zip(coarse._axes, self._axes)):
            raise GridError("the grid does not hold every breakpoint of the grid it maps from")
        lines = []
        for sides in parents:
            # this grid's line on each line of coarse: the lower end of the
            # first side inside, then the upper end of each coarse side's last
            after = sides[1:] + [None]
            ends = [i for i, (a, b) in enumerate(zip(sides, after), 1) if a is not None and a != b]
            lines.append([sides.index(0), *ends])
        if len(lines) == 1:
            lines.append([0, 1])  # a 1-D grid's facets keep their lateral

        def at(axis: int, line: int) -> int:
            near = min(max(line, 0), len(lines[axis]) - 1)
            return lines[axis][near] + line - near

        def parts(f: Facet) -> list[Facet]:
            lats = range(at(1 - f.axis, f.lateral), at(1 - f.axis, f.lateral + 1))
            return [Facet(f.axis, at(f.axis, f.line), lat) for lat in lats]

        return parts


@cache
def _line_edges(n: int, first: int, lines: int) -> tuple[tuple[int, ...], range]:
    """:meth:`Grid.edges` of every 1-D grid of ``n`` cells whose finite lines
    are ``first`` and the ``lines - 1`` after it: cell k is below k + 1, and
    the exterior (index n) is below line 0 and above line n."""
    above = range(first, first + lines)
    return tuple(line - 1 if line else n for line in above), above
