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
from bisect import bisect_right
from dataclasses import dataclass
from functools import cache
from itertools import product
from typing import Iterator, Optional, Sequence

from .errors import GridError
from .gauss import phi
from .intervals import Interval

INF = math.inf

CellId = tuple[int, ...]
# (facet, cell below, cell above, Gaussian facet measure); None = exterior
Adjacency = tuple["Facet", Optional[CellId], Optional[CellId], float]
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

    The Gaussian measure helpers read two per-axis tables of doubles,
    built on the first measure query, not at construction: the gamma1
    mass ``phi(b[i]) - phi(b[i+1])`` of every cell side and the weight
    ``exp(-z*z/2)`` of every grid line (0.0 on infinite lines). The
    interior edge arrays of a 2-D grid's :meth:`edges` are built the same
    way, on first use.
    """

    __slots__ = ("_axes", "_shape", "_tables", "_edges")

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
            for b in vals[1:-1]:
                if math.isinf(b):
                    raise GridError(f"axis {k} has an interior infinite breakpoint")
            cooked.append(vals)
        self._axes = tuple(cooked)
        self._shape = tuple(len(a) - 1 for a in cooked)
        self._tables: Optional[tuple[_Table, _Table]] = None
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

    def _measures(self) -> tuple[_Table, _Table]:
        """Per-axis (cell gamma1 masses, line weights)."""
        if self._tables is None:
            gamma, weight = [], []
            for bps in self._axes:
                tail = [phi(b) for b in bps]
                gamma.append(array("d", [a - b for a, b in zip(tail, tail[1:])]))
                weight.append(
                    array("d", [0.0 if math.isinf(z) else math.exp(-0.5 * z * z) for z in bps])
                )
            self._tables = (tuple(gamma), tuple(weight))
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
        return product(*(range(n) for n in self._shape))

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

    def cell_box(self, cid: CellId) -> tuple[Interval, ...]:
        return tuple(self.cell_side(axis, c) for axis, c in enumerate(cid))

    def cell_gauss(self, cid: CellId) -> float:
        masses = self._measures()[0]
        out = 1.0
        for axis, c in enumerate(cid):
            out *= masses[axis][c]
        return out

    def cell_lebesgue(self, cid: CellId) -> float:
        out = 1.0
        for axis, c in enumerate(cid):
            bps = self._axes[axis]
            out *= bps[c + 1] - bps[c]
        return out

    # ------------------------------------------------------------------
    # facets

    def facets(self, interior_only: bool = False) -> Iterator[Facet]:
        """All finite-coordinate facets, sorted; optionally interior ones only.

        Boundary facets on an infinite grid line do not exist as sets and
        are never produced.
        """
        return (f for f, _, _, _ in self.adjacency(interior_only))

    def adjacency(self, interior_only: bool = False) -> Iterator[Adjacency]:
        """Every facet of :meth:`facets` with its neighbors and measure.

        Yields ``(facet, below, above, gauss)`` in :meth:`facets` order,
        where ``(below, above)`` is :meth:`facet_cells` and ``gauss`` is
        :meth:`facet_gauss` of the facet, read from the grid's tables.
        The facets come from the grid itself, so none is validated.
        """
        gamma, weight = self._measures()
        two_d = len(self._axes) == 2
        for axis, bps in enumerate(self._axes):
            n = len(bps) - 1
            for line, w in enumerate(weight[axis]):
                if math.isinf(bps[line]) or (interior_only and (line == 0 or line == n)):
                    continue
                lo = line - 1 if line >= 1 else None
                hi = line if line < n else None
                if not two_d:
                    below = None if lo is None else (lo,)
                    above = None if hi is None else (hi,)
                    yield Facet(0, line, 0), below, above, w
                    continue
                for lat, mass in enumerate(gamma[1 - axis]):
                    if axis == 0:
                        below = None if lo is None else (lo, lat)
                        above = None if hi is None else (hi, lat)
                    else:
                        below = None if lo is None else (lat, lo)
                        above = None if hi is None else (lat, hi)
                    yield Facet(axis, line, lat), below, above, w * mass

    def _plane(self) -> tuple[int, int]:
        """The shape as ``(nx, ny)``, a 1-D grid of n cells counting as ``(n, 1)``."""
        return self._shape if len(self._shape) == 2 else (self._shape[0], 1)

    def edges(self) -> tuple[Sequence[int], Sequence[int]]:
        """The two cells of every interior facet, as :meth:`cell_index` values.

        Position k of both sequences is the k-th interior facet in
        :meth:`facets` order (:meth:`edge_index` maps a facet to it), and
        ``(below[k], above[k])`` are its neighbors along the facet axis.
        1-D grids of n cells share one pair ``(range(n - 1), range(1, n))``;
        a 2-D grid builds two integer arrays on the first call and keeps
        them. No measure is read.
        """
        if len(self._shape) == 1:
            return _line_edges(self._shape[0])
        if self._edges is None:
            nx, ny = self._shape
            below, above = array("l"), array("l")
            # axis 0, line by line: cell (line - 1, lat) below (line, lat)
            below.extend(range((nx - 1) * ny))
            above.extend(range(ny, nx * ny))
            # axis 1, line by line: cell (lat, line - 1) below (lat, line)
            for line in range(1, ny):
                below.extend(range(line - 1, nx * ny, ny))
                above.extend(range(line, nx * ny, ny))
            self._edges = (below, above)
        return self._edges

    def edge_index(self, f: Facet) -> Optional[int]:
        """Position of the facet in :meth:`edges`; None unless it is interior."""
        nx, ny = self._plane()
        if f.axis == 0 and 0 < f.line < nx and 0 <= f.lateral < ny:
            return (f.line - 1) * ny + f.lateral
        if f.axis == 1 and 0 < f.line < ny and 0 <= f.lateral < nx:
            return (nx - 1) * ny + (f.line - 1) * nx + f.lateral
        return None

    def edge_facet(self, k: int) -> Facet:
        """The interior facet at position ``k`` of :meth:`edges`.

        The inverse of :meth:`edge_index`: interior facets come in sorted
        order, so ascending positions give sorted facets.
        """
        nx, ny = self._plane()
        across = (nx - 1) * ny
        if 0 <= k < across:
            line, lat = divmod(k, ny)
            return Facet(0, line + 1, lat)
        if 0 <= k - across < (ny - 1) * nx:
            line, lat = divmod(k - across, nx)
            return Facet(1, line + 1, lat)
        raise GridError(f"edge position {k} outside grid of shape {self._shape}")

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
        return self._axes[f.axis][f.line]

    def facet_span(self, f: Facet) -> Optional[Interval]:
        """Lateral extent of the facet; None for a 1-D base (a point facet)."""
        if self.base_dim == 1:
            return None
        return self.cell_side(1 - f.axis, f.lateral)

    def facet_gauss(self, f: Facet) -> float:
        """Unnormalized Gaussian surface measure of the facet in the base.

        For a point facet at coordinate z this is ``exp(-z*z/2)``; for a
        segment ``{z} x (a, b)`` it is ``exp(-z*z/2) * gamma1((a, b))``.
        """
        self._check_facet(f)
        gamma, weight = self._measures()
        w = weight[f.axis][f.line]
        if len(self._axes) == 1:
            return w
        return w * gamma[1 - f.axis][f.lateral]

    def facet_lebesgue(self, f: Facet) -> float:
        """Lebesgue surface measure of the facet: 1 for a point, else length."""
        if math.isinf(self.facet_coordinate(f)):
            return 0.0
        if len(self._axes) == 1:
            return 1.0
        bps = self._axes[1 - f.axis]
        return bps[f.lateral + 1] - bps[f.lateral]

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

        ``lo`` must be a breakpoint of a refinement of this grid, so exact
        comparisons suffice. Returns None when lo is outside the axis span.
        """
        bps = self._axes[axis]
        i = bisect_right(bps, lo) - 1
        if i < 0 or i >= len(bps) - 1:
            return None
        return i


@cache
def _line_edges(n: int) -> tuple[range, range]:
    """:meth:`Grid.edges` of every 1-D grid with ``n`` cells: k is below k + 1."""
    return range(n - 1), range(1, n)
