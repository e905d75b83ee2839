"""Columnar sets over base grids and their Gaussian geometry.

A columnar set is a finite union of products cell x section, one vertical
section (an :class:`~ehrhard.intervals.IntervalSet`) per base cell, and is
empty over the exterior of its grid. All operations identify sets up to
null sets, so sections are canonical and exactly-touching pieces merge.

The boundary of such a set decomposes into horizontal faces (a cell times
a finite section endpoint) and vertical faces (a facet times the symmetric
difference of the two neighboring sections, with the exterior acting as
the empty section). Corner points are a null set of the boundary measure
and never counted.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Mapping, Optional

from .errors import DomainError, GridError
from .gauss import gamma1, gauss_weight, gaussian_barycenter, phi, psi
from .grids import CellId, Facet, Grid
from .intervals import IntervalSet, _lebesgue_sum, _pairs, _xor

INF = math.inf
_EMPTY = IntervalSet()


class ColumnarSet:
    """Immutable columnar set: a base grid plus one section per cell.

    Cells with empty sections may be omitted; ``section`` returns the
    empty set for them. Equality is grid equality plus exact section
    equality (use :func:`symdiff_volume` for measure-level comparison).
    """

    __slots__ = ("_grid", "_sections")

    def __init__(self, grid: Grid, sections: Mapping[CellId, IntervalSet]) -> None:
        if not isinstance(grid, Grid):
            raise GridError(f"expected Grid, got {type(grid).__name__}")
        cooked: dict[CellId, IntervalSet] = {}
        for cid, s in sections.items():
            cid = grid.check_cell(cid)
            if not isinstance(s, IntervalSet):
                raise DomainError(
                    f"section of cell {cid} must be an IntervalSet, got {type(s).__name__}"
                )
            if not s.is_empty:
                cooked[cid] = s
        self._grid = grid
        self._sections = cooked

    @classmethod
    def _of_cells(cls, grid: Grid, sections: dict[CellId, IntervalSet]) -> "ColumnarSet":
        """Set over non-empty sections keyed by ``grid``'s own cells (no checks)."""
        e = object.__new__(cls)
        e._grid = grid
        e._sections = sections
        return e

    @property
    def grid(self) -> Grid:
        return self._grid

    @property
    def sections(self) -> dict[CellId, IntervalSet]:
        return dict(self._sections)

    def section(self, cid: CellId) -> IntervalSet:
        return self._sections.get(tuple(cid), _EMPTY)

    def support(self) -> list[CellId]:
        """Cells with non-empty sections, in lexicographic order."""
        return sorted(self._sections)

    @property
    def is_empty(self) -> bool:
        return not self._sections

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ColumnarSet):
            return NotImplemented
        return self._grid == other._grid and self._sections == other._sections

    def __repr__(self) -> str:
        return f"ColumnarSet({self._grid!r}, {len(self._sections)} occupied cells)"


# ----------------------------------------------------------------------
# volumes


def gauss_volume(e: ColumnarSet) -> float:
    """Gaussian measure of the set."""
    g = e.grid
    return math.fsum(
        g.cell_gauss(cid) * gamma1(e.section(cid)) for cid in e.support()
    )


def lebesgue_volume(e: ColumnarSet) -> float:
    """Lebesgue measure of the set; inf when any occupied column is unbounded."""
    g = e.grid
    return _lebesgue_sum(
        g.cell_lebesgue(cid) * e.section(cid).length() for cid in e.support()
    )


# ----------------------------------------------------------------------
# perimeter


@dataclass(frozen=True, slots=True)
class HorizontalFace:
    """Flat boundary piece cell x {level}; normal is +1 for upward outward."""

    cell: CellId
    level: float
    normal: int
    gauss: float
    lebesgue: float


@dataclass(frozen=True, slots=True)
class VerticalFace:
    """Boundary piece facet x (section symmetric difference).

    ``section_symdiff`` is the gamma1 mass of the symmetric difference of
    the two neighboring sections (exterior = empty). ``normal`` is +1 when
    the heavier section sits above the facet line, mirroring the
    lower-to-higher orientation of jump interfaces.
    """

    facet: Facet
    section_symdiff: float
    gauss: float
    lebesgue: float
    normal: int


@dataclass(frozen=True)
class PerimeterBreakdown:
    """Gaussian perimeter split into horizontal and vertical faces."""

    horizontal: tuple[HorizontalFace, ...]
    vertical: tuple[VerticalFace, ...]
    horizontal_gauss: float
    vertical_gauss: float
    total_gauss: float
    total_lebesgue: float


def gauss_perimeter(e: ColumnarSet) -> PerimeterBreakdown:
    """Boundary measure of a columnar set, face by face.

    Horizontal faces weigh ``gamma_{n-1}(cell) * exp(-t*t/2)`` per finite
    section endpoint t; vertical faces weigh the facet's base surface
    measure times the gamma1 mass of the section symmetric difference.
    Faces whose symmetric difference is empty are omitted. Iteration
    order (cells, then facets, lexicographically) fixes the summation
    order, so results are bit-reproducible.

    Every symmetric-difference endpoint is a section endpoint, so ``phi``
    is taken once per distinct section endpoint per call and read back
    for every column and face mass, term by term as ``gamma1`` sums
    them.
    """
    g = e.grid
    sections = e._sections
    # every section's endpoint tuple; the exterior and unoccupied cells have none
    ends_of = {cid: s._ends for cid, s in sections.items()}
    points = {t for ends in ends_of.values() for t in ends}
    tail = {t: phi(t) for t in points}
    weight = {t: gauss_weight(t) for t in points}

    def measure(ends: tuple[float, ...]) -> tuple[float, float]:
        """gamma1 and length of a set's endpoints, summed as ``gamma1`` and
        :meth:`~ehrhard.intervals.IntervalSet.length` sum them."""
        if len(ends) == 2:
            # fsum of one term is that term (never -0.0: tails are >= +0.0)
            lo, hi = ends
            return tail[lo] - tail[hi], hi - lo
        return (
            math.fsum(tail[lo] - tail[hi] for lo, hi in _pairs(ends)),
            _lebesgue_sum(hi - lo for lo, hi in _pairs(ends)),
        )

    horizontal: list[HorizontalFace] = []
    for cid in e.support():
        area_g = g.cell_gauss(cid)
        area_l = g.cell_lebesgue(cid)
        for t, normal in sections[cid].finite_endpoints():
            horizontal.append(
                HorizontalFace(
                    cell=cid,
                    level=t,
                    normal=normal,
                    gauss=area_g * weight[t],
                    lebesgue=area_l,
                )
            )

    column_mass = {cid: measure(ends)[0] for cid, ends in ends_of.items()}
    vertical: list[VerticalFace] = []
    for f, lo_cid, hi_cid, facet_mass in g.adjacency():
        diff = _xor(ends_of.get(lo_cid, ()), ends_of.get(hi_cid, ()))
        if not diff:
            continue
        mass, length = measure(diff)
        vertical.append(
            VerticalFace(
                facet=f,
                section_symdiff=mass,
                gauss=facet_mass * mass,
                lebesgue=g.facet_lebesgue(f) * length,
                normal=+1 if column_mass.get(hi_cid, 0.0) >= column_mass.get(lo_cid, 0.0) else -1,
            )
        )

    hg = math.fsum(face.gauss for face in horizontal)
    vg = math.fsum(face.gauss for face in vertical)
    total_l = _lebesgue_sum(
        [face.lebesgue for face in horizontal] + [face.lebesgue for face in vertical]
    )
    return PerimeterBreakdown(
        horizontal=tuple(horizontal),
        vertical=tuple(vertical),
        horizontal_gauss=hg,
        vertical_gauss=vg,
        total_gauss=hg + vg,
        total_lebesgue=total_l,
    )


# ----------------------------------------------------------------------
# symmetrizations and friends


def reflect(e: ColumnarSet) -> ColumnarSet:
    """Mirror every section through height 0.

    An involution (endpoint negation round-trips exactly). Horizontal face
    weights are bit-identical since ``exp(-t*t/2)`` ignores the sign of t;
    interval masses re-evaluate ``phi`` at negated endpoints and may move
    by an ulp.
    """
    return ColumnarSet._of_cells(
        e.grid, {cid: s.reflect() for cid, s in e._sections.items()}
    )


def ehrhard_symmetral(e: ColumnarSet) -> ColumnarSet:
    """Replace each section by the upper half-line of equal Gaussian mass.

    A column of mass v becomes (psi(v), inf); null columns vanish and full
    columns become the whole line (psi maps 0 and 1 to the infinite
    endpoints exactly). Volumes are conserved up to the phi/psi round
    trip.
    """
    out: dict[CellId, IntervalSet] = {}
    for cid in e.support():
        v = gamma1(e.section(cid))
        if v > 1.0:
            v = 1.0  # guard: summed per-interval rounding can overshoot by ulps
        out[cid] = IntervalSet.above(psi(v))
    return ColumnarSet(e.grid, out)


def steiner_symmetral(e: ColumnarSet) -> ColumnarSet:
    """Replace each section by the centered interval of equal length.

    Columns of infinite length become the whole line; empty columns stay
    empty. Lebesgue volume is conserved exactly.
    """
    out: dict[CellId, IntervalSet] = {}
    for cid in e.support():
        length = e.section(cid).length()
        if length == INF:
            out[cid] = IntervalSet.line()
        elif length > 0.0:
            out[cid] = IntervalSet.of(-0.5 * length, 0.5 * length)
    return ColumnarSet(e.grid, out)


def restrict(e: ColumnarSet, cells: Iterable[CellId]) -> ColumnarSet:
    """Keep only the sections over the given cells."""
    keep = {e.grid.check_cell(cid) for cid in cells}
    return ColumnarSet._of_cells(
        e.grid, {cid: s for cid, s in e._sections.items() if cid in keep}
    )


def complement(e: ColumnarSet) -> ColumnarSet:
    """Complement within the whole space.

    The grid is extended with infinite end breakpoints where missing, so
    the exterior (where the set is empty) contributes full-line sections.
    """
    big = _extended_grid(e.grid)
    shift = _extension_shift(e.grid, big)
    out: dict[CellId, IntervalSet] = {}
    for cid in big.cells():
        # a cell outside the original grid has no parent section
        parent = tuple(c - d for c, d in zip(cid, shift))
        s = e._sections.get(parent, _EMPTY).complement()
        if not s.is_empty:
            out[cid] = s
    return ColumnarSet._of_cells(big, out)


def _extended_grid(grid: Grid) -> Grid:
    """The grid with infinite end breakpoints added where missing."""
    axes = []
    for bps in grid.axes:
        ext = list(bps)
        if ext[0] != -INF:
            ext.insert(0, -INF)
        if ext[-1] != INF:
            ext.append(INF)
        axes.append(tuple(ext))
    return Grid(*axes)


def _extension_shift(original: Grid, extended: Grid) -> tuple[int, ...]:
    """Per axis, 1 where ``extended`` has an added -inf breakpoint, else 0."""
    return tuple(int(a[0] != b[0]) for a, b in zip(original.axes, extended.axes))


def complement_facet_map(original: Grid, extended: Grid, f: Facet) -> Facet:
    """Re-index a facet of ``original`` on the extended grid of its complement."""
    shift = _extension_shift(original, extended)
    lat = f.lateral + (shift[1 - f.axis] if original.base_dim == 2 else 0)
    return Facet(f.axis, f.line + shift[f.axis], lat)


def _parent_cell(coarse: Grid, fine: Grid, cid: CellId) -> Optional[CellId]:
    """Cell of ``coarse`` containing the given cell of ``fine`` (None if exterior)."""
    parent = []
    for axis, c in enumerate(cid):
        lo = fine.axes[axis][c]
        i = coarse.axis_parent(axis, lo)
        if i is None:
            return None
        parent.append(i)
    return tuple(parent)


def on_grid(e: ColumnarSet, fine: Grid) -> ColumnarSet:
    """Re-express the set on a refinement of its grid (sections copied).

    Every measure-level quantity is invariant under this re-gridding: the
    sections are identical floats, only the bookkeeping cells split.
    """
    out: dict[CellId, IntervalSet] = {}
    for cid in fine.cells():
        parent = _parent_cell(e.grid, fine, cid)
        if parent is not None:
            s = e.section(parent)
            if not s.is_empty:
                out[cid] = s
    return ColumnarSet(fine, out)


def common_refinement(e: ColumnarSet, f: ColumnarSet) -> tuple[ColumnarSet, ColumnarSet]:
    """Re-express both sets on the smallest common refinement of their grids."""
    fine = e.grid.refine_with(f.grid)
    return on_grid(e, fine), on_grid(f, fine)


def symdiff_volume(e: ColumnarSet, f: ColumnarSet) -> float:
    """Gaussian measure of the symmetric difference of two columnar sets.

    Grids are refined to a common one automatically; sets extend by
    emptiness outside their own grids.
    """
    if e.grid != f.grid:
        e, f = common_refinement(e, f)
    g = e.grid
    es, fs = e._sections, f._sections
    return math.fsum(
        g.cell_gauss(cid) * gamma1(es.get(cid, _EMPTY).symdiff(fs.get(cid, _EMPTY)))
        for cid in sorted(es.keys() | fs.keys())
    )


# ----------------------------------------------------------------------
# half-line classification


class HalflineClass(Enum):
    """Shape of one column, up to Gaussian null sets."""

    PLUS = "G+"
    MINUS = "G-"
    NULL = "G0"
    FULL = "G1"
    OTHER = "NotHalfline"


@dataclass(frozen=True)
class ColumnClassification:
    """Per-cell half-line labels for a columnar set."""

    labels: dict[CellId, HalflineClass]
    tolerance: float

    @property
    def total(self) -> bool:
        """True when every column matched one of the four half-line shapes."""
        return all(k is not HalflineClass.OTHER for k in self.labels.values())

    def count(self, kind: HalflineClass) -> int:
        return sum(1 for k in self.labels.values() if k is kind)


def halfline_classification(
    e: ColumnarSet, tolerance: float = 1e-10
) -> ColumnClassification:
    """Label every column as an up/down half-line, null, full, or neither.

    A column of mass v matches G+ when it differs from (psi(v), inf) by at
    most ``tolerance`` in gamma1 mass, and G- symmetrically with
    (-inf, -psi(v)). Null and full columns are tested first; the sign of
    the Gaussian barycenter then decides which half-line shape to try
    (an up half-line always has positive barycenter, a down one negative).
    """
    labels: dict[CellId, HalflineClass] = {}
    line = IntervalSet.line()
    for cid in e.grid.cells():
        s = e.section(cid)
        mass = gamma1(s)
        if mass <= 0.0:
            labels[cid] = HalflineClass.NULL
            continue
        if gamma1(s.symdiff(line)) <= tolerance:
            labels[cid] = HalflineClass.FULL
            continue
        bary = gaussian_barycenter(s)
        label = HalflineClass.OTHER
        if bary >= 0.0 and gamma1(s.symdiff(IntervalSet.above(psi(mass)))) <= tolerance:
            label = HalflineClass.PLUS
        if (
            label is HalflineClass.OTHER
            and bary <= 0.0
            and gamma1(s.symdiff(IntervalSet.below(-psi(mass)))) <= tolerance
        ):
            label = HalflineClass.MINUS
        labels[cid] = label
    return ColumnClassification(labels=labels, tolerance=tolerance)
