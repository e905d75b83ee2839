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
from typing import Callable, Iterable, Mapping, Optional

from .columnar import ColumnarSet, _extended_grid, _extension_shift, complement_facet_map
from .connectedness import Forest, Scene, SceneCell, SceneFacet, _FlatScene
from .errors import ProfileError
from .gauss import gamma1, psi
from .grids import CellId, Facet, Grid
from .intervals import IntervalSet

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

    __slots__ = ("_grid", "_values", "_annotations", "_ann_map")

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
        ann_map: dict[Facet, SingularAnnotation] = {}
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
            if ann.facet in ann_map:
                raise ProfileError(f"duplicate annotation on {ann.facet}")
            ann_map[ann.facet] = ann
        self._grid = grid
        self._values = cooked
        self._annotations = tuple(sorted(ann_map.values(), key=lambda a: a.facet))
        self._ann_map = ann_map

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
        return self._ann_map.get(facet)

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

    def _scene_links(self, kind: str = "ehrhard") -> _FlatScene:
        """The scene of the profile as flat data (see :func:`scene`).

        Walks the interior edges of the grid once, keeping those between
        two G-cells, keyed by their :meth:`~ehrhard.grids.Grid.edges`
        position. An interface is blocked when its limits (an annotation
        overrides the cell values) have wedge 0 or, for an Ehrhard scene,
        vee 1.
        """
        if kind not in ("ehrhard", "steiner"):
            raise ProfileError(f"unknown scene kind {kind!r}")
        grid = self._grid
        values = list(self._values.values())  # grid.cells() order, which is row-major
        ehrhard = kind == "ehrhard"
        in_g = [0.0 < v < 1.0 for v in values] if ehrhard else [v > 0.0 for v in values]
        declared = {grid.edge_index(a.facet): a for a in self._annotations}
        links = []
        for k, (i, j) in enumerate(zip(*grid.edges())):
            if in_g[i] and in_g[j]:
                ann = declared.get(k)
                if ann is not None:
                    wedge, vee = ann.wedge, ann.vee
                else:
                    wedge, vee = values[i], values[j]
                    if vee < wedge:
                        wedge, vee = vee, wedge
                links.append((k, i, j, wedge, vee, wedge == 0.0 or (ehrhard and vee == 1.0)))
        return _FlatScene(grid=grid, ids=list(self._values), in_g=in_g, links=links)

    # ------------------------------------------------------------------
    # grid surgery

    def split_cell(self, axis: int, coordinate: float) -> "Profile":
        """Insert a breakpoint, copying values and re-indexing annotations.

        A null modification: the new facets along the cut are unannotated
        and both halves keep the old value, so every limit, scene, and
        verdict downstream is unchanged.
        """
        coordinate = float(coordinate)
        bps = self._grid.axes[axis]
        if coordinate in bps:
            return self
        if not bps[0] < coordinate < bps[-1]:
            raise ProfileError(f"coordinate {coordinate} outside axis {axis} span")
        cut_at = self._grid.axis_parent(axis, coordinate)
        new_axes = list(self._grid.axes)
        new_axes[axis] = tuple(sorted(bps + (coordinate,)))
        fine = Grid(*new_axes)

        def parent_index(k: int) -> int:
            return k if k <= cut_at else k - 1

        values: dict[CellId, float] = {}
        for cid in fine.cells():
            old = list(cid)
            old[axis] = parent_index(old[axis])
            values[cid] = self._values[tuple(old)]

        anns: list[SingularAnnotation] = []
        for a in self._annotations:
            f = a.facet
            if f.axis == axis:
                line = f.line if f.line <= cut_at else f.line + 1
                anns.append(SingularAnnotation(Facet(f.axis, line, f.lateral), a.wedge, a.vee))
            elif self._grid.base_dim == 2 and f.lateral == cut_at:
                # the lateral cell split in two: the annotation covers both halves
                anns.append(SingularAnnotation(Facet(f.axis, f.line, cut_at), a.wedge, a.vee))
                anns.append(SingularAnnotation(Facet(f.axis, f.line, cut_at + 1), a.wedge, a.vee))
            else:
                lat = f.lateral if (self._grid.base_dim == 1 or f.lateral <= cut_at) else f.lateral + 1
                anns.append(SingularAnnotation(Facet(f.axis, f.line, lat), a.wedge, a.vee))
        return Profile(fine, values, anns)

    def refined(self, max_width: float) -> "Profile":
        """Split every finite cell side until no side exceeds ``max_width``."""
        if not max_width > 0.0:
            raise ProfileError("max_width must be positive")
        p = self
        for axis in range(self._grid.base_dim):
            while True:
                bps = p.grid.axes[axis]
                cut = None
                for a, b in zip(bps, bps[1:]):
                    if not math.isinf(a) and not math.isinf(b) and b - a > max_width:
                        cut = 0.5 * (a + b)
                        break
                if cut is None:
                    break
                p = p.split_cell(axis, cut)
        return p


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
        return _facet_limits(p, facet, *p.grid.facet_cells(facet))
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


def _facet_limits(
    p: Profile, facet: Facet, lo_cid: Optional[CellId], hi_cid: Optional[CellId]
) -> tuple[float, float]:
    """Facet limits of :func:`approx_limits` for a facet of the profile's grid
    whose neighbor cells are already known (no validation)."""
    ann = p._ann_map.get(facet)
    if ann is not None:
        return (ann.wedge, ann.vee)
    v_lo = p._values[lo_cid] if lo_cid is not None else 0.0
    v_hi = p._values[hi_cid] if hi_cid is not None else 0.0
    return (min(v_lo, v_hi), max(v_lo, v_hi))


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
    out = []
    for f, lo_cid, hi_cid, _ in p.grid.adjacency():
        wedge, vee = _facet_limits(p, f, lo_cid, hi_cid)
        if wedge < vee:
            v_lo = p._values[lo_cid] if lo_cid is not None else 0.0
            v_hi = p._values[hi_cid] if hi_cid is not None else 0.0
            out.append(
                JumpInterface(facet=f, wedge=wedge, vee=vee, toward_upper=v_hi >= v_lo)
            )
    return out


# ----------------------------------------------------------------------
# scenes and model sets


def scene(p: Profile, kind: str = "ehrhard") -> Scene:
    """Combinatorial scene of the profile for the chosen symmetrization.

    Ehrhard scenes take G = {0 < v < 1} and block interfaces whose limits
    reach 0 from below or 1 from above; Steiner scenes take G = {v > 0}
    and block only interfaces pinched to 0. Only interfaces between two
    G-cells appear, all of them: an interior facet has positive base
    measure by its structure (a finite line and a non-degenerate span),
    even where its float measure underflows to 0. The scene is a view of
    the flat data that the verdict and the search decide on.
    """
    flat = p._scene_links(kind)
    grid, ids = p.grid, flat.ids
    cells = tuple(
        SceneCell(
            id=cid,
            value=v,
            in_g=flag,
            gauss=grid.cell_gauss(cid),
            lebesgue=grid.cell_lebesgue(cid),
        )
        for cid, v, flag in zip(ids, p._values.values(), flat.in_g)
    )
    facets = []
    for k, i, j, wedge, vee, blocked in flat.links:
        f = grid.edge_facet(k)
        facets.append(
            SceneFacet(
                facet=f,
                cells=(ids[i], ids[j]),
                gauss=grid.facet_gauss(f),
                wedge=wedge,
                vee=vee,
                blocked=blocked,
                annotated=f in p._ann_map,
            )
        )
    return Scene(kind, grid.base_dim, cells, tuple(facets), _profile=p)


def from_profile(p: Profile) -> ColumnarSet:
    """The model set of the profile: columns (psi(v), inf) over each cell.

    Cells with v = 0 stay empty and cells with v = 1 become full lines,
    exactly (psi hits the infinite endpoints without rounding).
    """
    # psi once per distinct value; its cells share the immutable section
    above = {v: IntervalSet.above(psi(v)) for v in set(p._values.values()) if v > 0.0}
    sections = {cid: above[v] for cid, v in p._values.items() if v > 0.0}
    return ColumnarSet._of_cells(p.grid, sections)


def _model_one_piece(
    p: Profile,
    keep: Callable[[float], bool],
    severed: Iterable[Facet] = (),
    extended: bool = False,
) -> bool:
    """Whether the cells whose value passes ``keep`` form one component.

    Cells connect across interior facets that are not ``severed``. This
    is essential connectedness of a model-set region read on cells (see
    :mod:`ehrhard.connectedness`): ``keep = v > 0`` gives
    ``indecomposable(from_profile(p), severed)``, ``keep = t < v < 1 - t``
    gives the same for the model set restricted to those cells, and
    ``keep = v < 1`` with ``extended`` gives
    ``complement_indecomposable(from_profile(p), severed)``. With
    ``extended`` the grid first gets infinite end breakpoints like
    :func:`~ehrhard.columnar.complement`, its new cells count as v = 0,
    and ``severed`` is re-indexed onto it. With no cell kept there is no
    component, and the answer is False.
    """
    grid = p.grid
    if extended:
        big = _extended_grid(grid)
        shift = _extension_shift(grid, big)
        values = [
            p._values.get(tuple(c - s for c, s in zip(cid, shift)), 0.0)
            for cid in big.cells()
        ]
        severed = [complement_facet_map(grid, big, f) for f in severed]
        grid = big
    else:
        values = list(p._values.values())  # grid.cells() order, which is row-major
    inside = [keep(v) for v in values]
    cut = {grid.edge_index(f) for f in severed}
    forest = Forest(len(inside))
    pieces = sum(inside)
    for k, (i, j) in enumerate(zip(*grid.edges())):
        if inside[i] and inside[j] and k not in cut and forest.union(i, j):
            pieces -= 1
    return pieces == 1


def _set_one_piece(p: Profile, severed: Iterable[Facet] = ()) -> bool:
    """``indecomposable(from_profile(p), severed)``, decided on cells."""
    return _model_one_piece(p, lambda v: v > 0.0, severed)


def _complement_one_piece(p: Profile, severed: Iterable[Facet] = ()) -> bool:
    """``complement_indecomposable(from_profile(p), severed)``, decided on cells."""
    return _model_one_piece(p, lambda v: v < 1.0, severed, extended=True)


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
    values = p._values

    def in_g(c: Optional[CellId]) -> bool:
        return c is not None and 0.0 < values[c] < 1.0

    return math.fsum(
        mass for _, lo_cid, hi_cid, mass in p.grid.adjacency() if in_g(lo_cid) != in_g(hi_cid)
    )
