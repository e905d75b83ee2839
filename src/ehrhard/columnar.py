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
from operator import ne
from typing import Any, Iterable, Mapping

from .errors import DomainError, GridError
from .gauss import gamma1, gauss_weight, gaussian_barycenter, phi, psi
from .grids import CellId, Facet, Grid
from .intervals import IntervalSet, _Lazy, _lebesgue_sum, _pairs, _xor

__all__ = [
    "ColumnarSet",
    "ColumnClassification",
    "HalflineClass",
    "HorizontalFace",
    "PerimeterBreakdown",
    "VerticalFace",
    "common_refinement",
    "complement",
    "complement_facet_map",
    "ehrhard_symmetral",
    "gauss_perimeter",
    "gauss_volume",
    "halfline_classification",
    "lebesgue_volume",
    "on_grid",
    "reflect",
    "restrict",
    "steiner_symmetral",
    "symdiff_volume",
]

INF = math.inf
_EMPTY = IntervalSet()


class ColumnarSet:
    """Immutable columnar set: a base grid plus one section per cell.

    Cells with empty sections may be omitted; ``section`` returns the
    empty set for them. Equality, and the hash with it, is grid equality
    plus exact section equality (use :func:`symdiff_volume` for
    measure-level comparison).
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

    def __hash__(self) -> int:
        return hash((self._grid, frozenset(self._sections.items())))

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
class PerimeterBreakdown(_Lazy):
    """Gaussian perimeter split into horizontal and vertical faces.

    From :func:`gauss_perimeter` the four totals are eager, and the faces,
    ``horizontal`` and ``vertical``, are priced together from the set the
    breakdown keeps (``_set``).
    """

    horizontal: tuple[HorizontalFace, ...]
    vertical: tuple[VerticalFace, ...]
    horizontal_gauss: float
    vertical_gauss: float
    total_gauss: float
    total_lebesgue: float

    def _faces(self) -> dict[str, Any]:
        *_, horizontal, vertical = _perimeter_walk(self._set, faces=True)
        return {"horizontal": tuple(horizontal), "vertical": tuple(vertical)}

    _PRICES = dict.fromkeys(("horizontal", "vertical"), _faces)


def _cell_ends(e: ColumnarSet) -> list[tuple[float, ...]]:
    """Every section's endpoint tuple by row-major cell index, then the
    exterior's; the exterior and unoccupied cells have none."""
    shape = e.grid.shape
    ends: list[tuple[float, ...]] = [()] * (math.prod(shape) + 1)
    # the row-major index i * width + j of (i, j); (i,) has width 0
    width = shape[1] if len(shape) == 2 else 0
    for cid, s in e._sections.items():
        ends[cid[0] * width + cid[-1]] = s._ends
    return ends


def _ends_gamma1(ends: tuple[float, ...], tail: Mapping[float, float]) -> float:
    """``gamma1`` of the set with these endpoints, summed as ``gamma1`` sums
    it, from the ``phi`` value of every endpoint in ``tail``."""
    if len(ends) == 2:
        # fsum of one term is that term (never -0.0: tails are >= +0.0)
        lo, hi = ends
        return tail[lo] - tail[hi]
    return math.fsum(tail[lo] - tail[hi] for lo, hi in _pairs(ends))


def _perimeter_walk(
    e: ColumnarSet, faces: bool
) -> tuple[list[float], list[float], list[float], list[HorizontalFace], list[VerticalFace]]:
    """The terms of the boundary measure of ``e``.

    Returns the Gaussian masses of the horizontal faces and of the
    vertical faces, the Lebesgue measures of all faces, and, when
    ``faces`` is true, the faces themselves (else two empty lists); see
    :func:`gauss_perimeter`. What depends only on one section (its finite
    endpoints) or on two neighbouring ones (their symmetric difference)
    is worked out once per distinct section or pair of sections.
    """
    g = e.grid
    sections = e._sections
    ends = _cell_ends(e)
    points = {t for cell_ends in ends for t in cell_ends}
    tail = {t: phi(t) for t in points}
    weight = {t: gauss_weight(t) for t in points}

    def measure(ends: tuple[float, ...]) -> tuple[float, float]:
        """gamma1 and length of a set's endpoints, summed as ``gamma1`` and
        :meth:`~ehrhard.intervals.IntervalSet.length` sum them."""
        if len(ends) == 2:
            length = ends[1] - ends[0]
        else:
            length = _lebesgue_sum(hi - lo for lo, hi in _pairs(ends))
        return _ends_gamma1(ends, tail), length

    h_gauss: list[float] = []
    v_gauss: list[float] = []
    lebesgue: list[float] = []
    horizontal: list[HorizontalFace] = []
    vertical: list[VerticalFace] = []
    # section endpoints -> its finite endpoints with their normals and
    # weights; equal keys may differ in the sign of a zero endpoint, so a
    # face, which keeps its level, reads its own section
    levels: dict[tuple[float, ...], list[tuple[float, int, float]]] = {}
    for cid, cell_ends, (area_g, area_l) in zip(g.cells(), ends, g._cell_measures()):
        if not cell_ends:
            continue
        if faces or cell_ends not in levels:
            levels[cell_ends] = [
                (t, normal, weight[t]) for t, normal in sections[cid].finite_endpoints()
            ]
        for t, normal, w in levels[cell_ends]:
            h_gauss.append(area_g * w)
            lebesgue.append(area_l)
            if faces:
                horizontal.append(HorizontalFace(cid, t, normal, h_gauss[-1], area_l))

    if faces:
        column_mass = [measure(cell_ends)[0] if cell_ends else 0.0 for cell_ends in ends]
    # (below, above) section endpoints -> gamma1 and length of their symdiff
    # (the same floats whatever the sign of a zero endpoint)
    symdiff: dict[tuple[tuple[float, ...], tuple[float, ...]], tuple[float, float]] = {}
    # the vertical faces are the edges whose sections differ: equal canonical
    # sections have an empty symmetric difference and unequal ones a non-empty one
    for k, i, j in g._links(ends, relation=ne):
        pair = ends[i], ends[j]
        if pair not in symdiff:
            symdiff[pair] = measure(_xor(*pair))
        mass, length = symdiff[pair]
        facet_g, facet_l = g._edge_measures(k)
        v_gauss.append(facet_g * mass)
        lebesgue.append(facet_l * length)
        if faces:
            normal = +1 if column_mass[j] >= column_mass[i] else -1
            vertical.append(
                VerticalFace(g.edge_facet(k), mass, v_gauss[-1], lebesgue[-1], normal)
            )
    return h_gauss, v_gauss, lebesgue, horizontal, vertical


def gauss_perimeter(e: ColumnarSet) -> PerimeterBreakdown:
    """Boundary measure of a columnar set, face by face.

    Horizontal faces weigh ``gamma_{n-1}(cell) * exp(-t*t/2)`` per finite
    section endpoint t; vertical faces weigh the facet's base surface
    measure times the gamma1 mass of the section symmetric difference.
    Faces whose symmetric difference is empty are omitted. Faces come in
    order (cells, then facets, lexicographically); the totals are
    ``math.fsum`` sums, correctly rounded whatever the order of their
    terms, so results are bit-reproducible. The vertical faces walk
    :meth:`~ehrhard.grids.Grid.edges`, the exterior's section being empty,
    and read each facet's measures by its position there.

    The totals are computed eagerly in one walk that keeps only floats;
    the faces (and their :class:`~ehrhard.grids.Facet` objects) are built
    on first read of ``horizontal`` or ``vertical``, by the same walk run
    again. Every symmetric-difference endpoint is a section endpoint, so
    ``phi`` is taken once per distinct section endpoint per walk and read
    back for every column and face mass, term by term as ``gamma1`` sums
    them.
    """
    h_gauss, v_gauss, lebesgue, _, _ = _perimeter_walk(e, faces=False)
    hg, vg = math.fsum(h_gauss), math.fsum(v_gauss)
    return PerimeterBreakdown._held(
        horizontal_gauss=hg,
        vertical_gauss=vg,
        total_gauss=hg + vg,
        total_lebesgue=_lebesgue_sum(lebesgue),
        _set=e,
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
    out: dict[CellId, IntervalSet] = {}
    for cid, s in zip(big.cells(), _sections_on(e, big)):
        s = s.complement()
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


def complement_facet_map(original: Grid, extended: Grid, f: Facet) -> Facet:
    """Re-index a facet of ``original`` on the extended grid of its complement.

    Every facet, one outside ``original`` too, moves past the sides added
    before the first one (``Grid._facet_map``).
    """
    return extended._facet_map(original)(f)[0]


def _sections_on(e: ColumnarSet, fine: Grid) -> list[IntervalSet]:
    """The section of ``e`` over each cell of ``fine`` (a refinement of its
    grid, or that grid extended), in cells order: the section over the
    cell that holds it, empty outside the grid."""
    sections = [e._sections.get(cid, _EMPTY) for cid in e.grid.cells()]
    return fine._lift(e.grid, sections, _EMPTY)


def on_grid(e: ColumnarSet, fine: Grid) -> ColumnarSet:
    """Re-express the set on a refinement of its grid (sections copied).

    Every measure-level quantity is invariant under this re-gridding: the
    sections are identical floats, only the bookkeeping cells split.
    """
    out = {cid: s for cid, s in zip(fine.cells(), _sections_on(e, fine)) if not s.is_empty}
    return ColumnarSet._of_cells(fine, out)


def common_refinement(e: ColumnarSet, f: ColumnarSet) -> tuple[ColumnarSet, ColumnarSet]:
    """Re-express both sets on the smallest common refinement of their grids."""
    fine = e.grid.refine_with(f.grid)
    return on_grid(e, fine), on_grid(f, fine)


def symdiff_volume(e: ColumnarSet, f: ColumnarSet) -> float:
    """Gaussian measure of the symmetric difference of two columnar sets.

    Grids are refined to a common one automatically; sets extend by
    emptiness outside their own grids. On one grid this is
    ``math.fsum(g.cell_gauss(c) * gamma1(e.section(c).symdiff(f.section(c))))``
    over the cells c of the grid g, worked out by one float-only walk.
    """
    if e.grid != f.grid:
        e, f = common_refinement(e, f)
    return _symdiff_walk(e, f)


def _symdiff_walk(e: ColumnarSet, f: ColumnarSet, mirrored: bool = False) -> float:
    """:func:`symdiff_volume` of two sets on one grid; with ``mirrored``, of
    ``e`` and ``reflect(f)``, without building the reflection.

    The cells are walked in row-major order with their Gaussian masses
    read from the grid tables. A cell whose two endpoint tuples are equal
    adds nothing; elsewhere the symmetric difference's endpoints are the
    :func:`~ehrhard.intervals._xor` of the tuples, and its gamma1 mass is
    summed as ``gamma1`` sums it, with ``phi`` taken once per distinct
    endpoint and the mass once per distinct pair of tuples. A mirrored
    tuple is negated and reversed, as
    :meth:`~ehrhard.intervals.IntervalSet.reflect` does, once per distinct
    tuple. Tuples equal but for the sign of a zero endpoint share these
    results, which agree because ``phi(-0.0) == phi(0.0)``.
    """
    ends, other = _cell_ends(e), _cell_ends(f)
    if mirrored:
        flip = {t: tuple(-x for x in reversed(t)) for t in set(other)}
        other = [flip[t] for t in other]
    points = {t for cell_ends in {*ends, *other} for t in cell_ends}
    tail = {t: phi(t) for t in points}
    masses: dict[tuple[tuple[float, ...], tuple[float, ...]], float] = {}
    terms = []
    for a, b, (area, _) in zip(ends, other, e.grid._cell_measures()):
        if a == b:
            continue
        mass = masses.get((a, b))
        if mass is None:
            mass = masses[a, b] = _ends_gamma1(_xor(a, b), tail)
        terms.append(area * mass)
    return math.fsum(terms)


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
