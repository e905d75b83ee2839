"""Volume profiles on grids, their limits, scenes, and model sets.

A profile assigns each base cell a volume fraction v in [0, 1]. It stands
for the family of sets whose column over each cell carries Gaussian mass
v, and in particular for the distinguished model set whose columns are
upper half-lines (see :func:`from_profile`). The cells with 0 < v < 1 form
the region G where symmetrization has any freedom.

One-sided limits at cells, facets, and vertices come from the cell values;
a :class:`SingularAnnotation` overrides the limits at a facet to record
behavior of an underlying continuum object that the grid sampling cannot
see (a pinch to 0 or a bulge to 1 along an interface). Facets against the
exterior of the grid take the exterior value 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from operator import ne
from typing import Iterable, Iterator, Mapping, Optional, Sequence

from .columnar import ColumnarSet, _extended_grid
from .connectedness import Scene
from .errors import ProfileError
from .gauss import gamma1, psi
from .grids import CellId, Facet, Grid
from .intervals import IntervalSet

__all__ = [
    "JumpInterface",
    "Profile",
    "SingularAnnotation",
    "approx_limits",
    "distribution",
    "f_limits",
    "from_profile",
    "g_boundary_gauss",
    "jump_interfaces",
    "scene",
]

INF = math.inf


@dataclass(frozen=True, slots=True)
class SingularAnnotation:
    """Declared one-sided limits (wedge <= vee) on an interior facet."""

    facet: Facet
    wedge: float
    vee: float

    def __post_init__(self) -> None:
        w = float(self.wedge)
        v = float(self.vee)
        if math.isnan(w) or math.isnan(v):
            raise ProfileError("annotation limits must not be NaN")
        if not (0.0 <= w <= v <= 1.0):
            raise ProfileError(
                f"annotation limits must satisfy 0 <= wedge <= vee <= 1, got ({w}, {v})"
            )
        object.__setattr__(self, "wedge", w)
        object.__setattr__(self, "vee", v)


class Profile:
    """Cell values in [0, 1] on a grid, plus optional facet annotations."""

    __slots__ = ("_grid", "_values", "_annotations", "_by_edge")

    def __init__(
        self,
        grid: Grid,
        values: Mapping[CellId, float],
        annotations: Iterable[SingularAnnotation] = (),
    ) -> None:
        cooked: dict[CellId, float] = {}
        for cid in grid.cells():
            if cid not in values:
                raise ProfileError(f"missing value for cell {cid}")
            v = float(values[cid])
            if math.isnan(v) or not 0.0 <= v <= 1.0:
                raise ProfileError(f"cell {cid} value {v!r} outside [0, 1]")
            cooked[cid] = v
        if len(values) != len(cooked):
            extra = set(map(tuple, values)) - set(cooked)
            raise ProfileError(f"values given for cells outside the grid: {sorted(extra)}")
        # edge position of Grid.edges() -> annotation; an interior facet has one
        by_edge: dict[int, SingularAnnotation] = {}
        for ann in annotations:
            if not isinstance(ann, SingularAnnotation):
                raise ProfileError(
                    f"expected SingularAnnotation, got {type(ann).__name__}"
                )
            lo_cid, hi_cid = grid.facet_cells(ann.facet)
            if lo_cid is None or hi_cid is None:
                raise ProfileError(
                    f"annotation on {ann.facet} is not on an interior facet"
                )
            k = grid.edge_index(ann.facet)
            if k in by_edge:
                raise ProfileError(f"duplicate annotation on {ann.facet}")
            by_edge[k] = ann
        self._grid = grid
        self._values = cooked
        self._annotations = tuple(sorted(by_edge.values(), key=lambda a: a.facet))
        self._by_edge = by_edge

    @property
    def grid(self) -> Grid:
        return self._grid

    @property
    def values(self) -> dict[CellId, float]:
        return dict(self._values)

    @property
    def annotations(self) -> tuple[SingularAnnotation, ...]:
        return self._annotations

    def value(self, cid: CellId) -> float:
        cid = tuple(cid)
        if cid not in self._values:
            raise ProfileError(f"cell {cid} outside grid")
        return self._values[cid]

    def annotation(self, facet: Facet) -> Optional[SingularAnnotation]:
        return self._by_edge.get(self._grid.edge_index(facet)) if isinstance(facet, Facet) else None

    def g_cells(self) -> list[CellId]:
        """Cells with 0 < v < 1, in lexicographic order (the stored order)."""
        return [cid for cid, v in self._values.items() if 0.0 < v < 1.0]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Profile):
            return NotImplemented
        return (
            self._grid == other._grid
            and self._values == other._values
            and self._annotations == other._annotations
        )

    def __repr__(self) -> str:
        return (
            f"Profile({self._grid!r}, {len(self.g_cells())} G-cells, "
            f"{len(self._annotations)} annotations)"
        )

    def _band(self, low: float, high: float) -> tuple[Grid, list[bool], set[int]]:
        """The cells and the cut of the band ``low < v < high``.

        The grid, each cell's flag ``low < v < high`` in row-major order
        with the exterior (never in) last, and the edge positions of the
        annotations that leave the band: wedge <= low or vee >= high. Every
        connectivity question reads a band: the Ehrhard scene ``(0, 1)``,
        the Steiner scene and the model set ``(0, inf)``, the level
        restriction at t ``(t, 1 - t)`` and, on the extended grid, the
        complement ``(-inf, 1)`` (:meth:`_complement_band`).
        """
        inside = [low < v < high for v in self._values.values()]
        inside.append(False)  # the exterior
        cut = {k for k, a in self._by_edge.items() if a.wedge <= low or a.vee >= high}
        return self._grid, inside, cut

    def _complement_band(self) -> tuple[Grid, list[bool], set[int]]:
        """The band ``(-inf, 1)`` on the grid of the model set's complement.

        The grid gets infinite end breakpoints like
        :func:`~ehrhard.columnar.complement`, and :meth:`Grid._parents
        <ehrhard.grids.Grid._parents>` places the band on it: its new cells
        count as v = 0, so they are in, and the cut (the annotations with
        vee 1) moves onto the same facets of it.
        """
        grid, inside, cut = self._band(-INF, 1.0)
        big = _extended_grid(grid)
        parts = big._facet_map(grid)
        moved = {big.edge_index(g) for k in cut for g in parts(grid.edge_facet(k))}
        flags = big._lift(grid, inside, True)
        flags.append(False)  # the exterior
        return big, flags, moved

    def _limits(
        self, links: Iterable[tuple[Optional[int], int, int]], values: Sequence[float]
    ) -> Iterator[tuple[float, float]]:
        """The limits ``(wedge, vee)`` at each link ``(k, i, j)``, the facet at
        position ``k`` of :meth:`~ehrhard.grids.Grid.edges` (None on an
        infinite line) between cells of values ``values[i]``, ``values[j]``:
        an annotation's, else the min and max of the two values as ``min``
        and ``max`` pick them (the first of two equal ones)."""
        ann_at = self._by_edge.get
        for k, i, j in links:
            ann = ann_at(k)
            if ann is None:
                a, b = values[i], values[j]
                yield (b, a) if b < a else (a, b) if a < b else (a, a)
            else:
                yield ann.wedge, ann.vee

    # ------------------------------------------------------------------
    # grid surgery

    def split_cell(self, axis: int, coordinate: float) -> "Profile":
        """Insert a breakpoint: this profile on the grid with one more line.

        A null modification, placed through the grid's one parent map
        (:meth:`_on_grid`, which reads ``Grid._parents``): the new facets
        along the cut are unannotated and both halves keep the old value,
        so every limit, scene, and verdict downstream is unchanged.
        """
        if axis not in range(self._grid.base_dim):
            raise ProfileError(f"axis {axis!r} outside the {self._grid.base_dim}-D base")
        coordinate = float(coordinate)
        bps = self._grid.axes[axis]
        if coordinate in bps:
            return self
        if not bps[0] < coordinate < bps[-1]:
            raise ProfileError(f"coordinate {coordinate} outside axis {axis} span")
        new_axes = list(self._grid.axes)
        new_axes[axis] = tuple(sorted(bps + (coordinate,)))
        return self._on_grid(Grid(*new_axes))

    def refined(self, max_width: float) -> "Profile":
        """Split every finite cell side until no side exceeds ``max_width``.

        A side wider than that is halved at ``0.5 * (a + b)`` and each half
        in turn, so the breakpoints of each axis are known up front; the
        result is this profile on that one grid, placed through
        ``Grid._parents`` (:meth:`_on_grid`), or this profile itself when no
        side is too wide. A side whose midpoint rounds to one of its ends,
        or whose ``a + b`` overflows, raises :class:`ProfileError`.
        """
        if not max_width > 0.0:
            raise ProfileError("max_width must be positive")

        def halves(a: float, b: float) -> list[float]:
            # the breakpoints past a, up to b, of the side (a, b) once halved
            if math.isinf(a) or math.isinf(b) or not b - a > max_width:
                return [b]
            mid = 0.5 * (a + b)
            if not a < mid < b:
                raise ProfileError(f"cell side ({a!r}, {b!r}) cannot be halved in floats")
            return halves(a, mid) + halves(mid, b)

        axes = [
            (bps[0], *(z for a, b in zip(bps, bps[1:]) for z in halves(a, b)))
            for bps in self._grid.axes
        ]
        return self if axes == list(self._grid.axes) else self._on_grid(Grid(*axes))

    def _on_grid(self, fine: Grid) -> "Profile":
        """This profile on a refinement ``fine`` of its grid, through
        :meth:`Grid._parents <ehrhard.grids.Grid._parents>`: each cell keeps
        the value of the cell that holds it, and each annotation covers the
        facets of ``fine`` on its own facet."""
        values = fine._lift(self._grid, list(self._values.values()), None)
        parts = fine._facet_map(self._grid)
        anns = [
            SingularAnnotation(g, a.wedge, a.vee) for a in self._annotations for g in parts(a.facet)
        ]
        return Profile(fine, dict(zip(fine.cells(), values)), anns)


# ----------------------------------------------------------------------
# limits


def approx_limits(
    p: Profile,
    *,
    cell: Optional[CellId] = None,
    facet: Optional[Facet] = None,
    vertex: Optional[tuple[int, int]] = None,
) -> tuple[float, float]:
    """One-sided (lower, upper) value limits at a cell, facet, or vertex.

    Exactly one locus must be given. Cell limits are (v, v). Facet limits
    are the min/max of the two neighboring values, with the exterior
    counting as 0; an annotation on the facet overrides both. Vertex
    limits (2-D bases only; a vertex is a pair of breakpoint indices) are
    the min/max over the up-to-four incident cells; vertices cannot be
    annotated, since they never carry measure.
    """
    given = [x is not None for x in (cell, facet, vertex)]
    if sum(given) != 1:
        raise ProfileError("give exactly one of cell=, facet=, vertex=")
    if cell is not None:
        v = p.value(cell)
        return (v, v)
    if facet is not None:
        # the exterior (a None neighbour) has no value of its own: 0
        pair = [p._values.get(cid, 0.0) for cid in p.grid.facet_cells(facet)]
        return next(p._limits([(p.grid.edge_index(facet), 0, 1)], pair))
    if p.grid.base_dim != 2:
        raise ProfileError("vertex limits need a 2-D base")
    i, j = vertex
    nx, ny = p.grid.shape
    vals = [
        p.value((a, b))
        for a in (i - 1, i)
        for b in (j - 1, j)
        if 0 <= a < nx and 0 <= b < ny
    ]
    if not vals:
        raise ProfileError(f"vertex {vertex!r} outside grid")
    return (min(vals), max(vals))


def f_limits(p: Profile, facet: Facet) -> tuple[float, float]:
    """Limits of the section boundary height across a facet.

    The model set's column over a cell of value v is (psi(v), inf), and
    psi is decreasing, so the height limits swap and negate the roles:
    the lower height limit is psi(vee) and the upper is psi(wedge).
    """
    wedge, vee = approx_limits(p, facet=facet)
    return (psi(vee), psi(wedge))


@dataclass(frozen=True, slots=True)
class JumpInterface:
    """Facet where the one-sided limits disagree.

    ``toward_upper`` is True when the higher value sits on the side of the
    larger coordinate, orienting the jump normal from lower to higher
    values.
    """

    facet: Facet
    wedge: float
    vee: float
    toward_upper: bool


def jump_interfaces(p: Profile) -> list[JumpInterface]:
    """All facets with wedge < vee, including those against the exterior."""
    grid = p.grid
    values = [*p._values.values(), 0.0]  # row-major cells, then the exterior
    links = list(grid._links([True] * len(values)))
    return [
        JumpInterface(grid.edge_facet(k), wedge, vee, toward_upper=values[j] >= values[i])
        for (k, i, j), (wedge, vee) in zip(links, p._limits(links, values))
        if wedge < vee
    ]


# ----------------------------------------------------------------------
# scenes and model sets


def scene(p: Profile, kind: str = "ehrhard") -> Scene:
    """Combinatorial scene of the profile for the chosen symmetrization.

    Ehrhard scenes take G = {0 < v < 1} and block interfaces whose limits
    reach 0 from below or 1 from above; Steiner scenes take G = {v > 0}
    and block only interfaces pinched to 0. Only interfaces between two
    G-cells appear, all of them: an interior facet has positive base
    measure by its structure (a finite line and a non-degenerate span),
    even where its float measure underflows to 0. A facet is blocked
    exactly when it is in the annotation cut that the verdict and the
    search decide on. The scene is a view of ``p``: its rows are built
    when they are first read (see :class:`~ehrhard.connectedness.Scene`).
    """
    return Scene(kind, p.grid.base_dim, p)


def from_profile(p: Profile) -> ColumnarSet:
    """The model set of the profile: columns (psi(v), inf) over each cell.

    Cells with v = 0 stay empty and cells with v = 1 become full lines,
    exactly (psi hits the infinite endpoints without rounding).
    """
    # psi once per distinct value; its cells share the immutable section
    above = {v: IntervalSet.above(psi(v)) for v in set(p._values.values()) if v > 0.0}
    sections = {cid: above[v] for cid, v in p._values.items() if v > 0.0}
    return ColumnarSet._of_cells(p.grid, sections)


def distribution(e: ColumnarSet) -> Profile:
    """Profile of per-cell Gaussian masses of a columnar set."""
    values: dict[CellId, float] = {}
    for cid in e.grid.cells():
        v = gamma1(e.section(cid))
        values[cid] = min(v, 1.0)  # summed rounding can overshoot 1 by ulps
    return Profile(e.grid, values)


def g_boundary_gauss(p: Profile) -> float:
    """Base surface measure of the boundary of the region G = {0 < v < 1}.

    Sums the measures of all facets with exactly one side in G, counting
    the exterior of the grid as not in G.
    """
    grid, in_g, _ = p._band(0.0, 1.0)
    return math.fsum(grid._edge_measures(k)[0] for k, _, _ in grid._links(in_g, relation=ne))
