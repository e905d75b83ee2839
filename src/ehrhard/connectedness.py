"""Essential connectedness of grid scenes and decomposability of columnar sets.

Two notions live here. A *scene* is the combinatorial shadow of a profile:
its cells with measures and in-G flags, plus the interfaces between G-cells
with their one-sided value limits and a blocked flag. The scene graph (G-cells
joined by unblocked interfaces) decides essential connectedness: a
two-coloring of its components with no unblocked interface between the
colors certifies that the singular set essentially disconnects G.

The decision and the certificates read a scene as flat data: each cell's
in-G flag, and per interface between G-cells its edge position on the
grid, its two cell indices, its limits and its blocked flag. One walk of
the grid's interior edges (``Profile._scene_links``) yields that data, and
every caller decides on it: the verdict and the exhaustive search of
:mod:`ehrhard.rigidity`, :func:`ehrhard.render.render_profile`, and
:func:`essentially_disconnects` and :func:`certificate_for`, which walk the
profile a :class:`Scene` views. Cell ids, facets and measures are read
back from the grid only for what a report carries. The :class:`Scene`
dataclasses are a view of the same walk for JSON, the ``connectedness``
command and tests.

Separately, a columnar set decomposes into *pieces*: per column, each
interval of its section is a node, and two pieces are adjacent when their
columns share an interior facet and their sections overlap. The set is
indecomposable when the pieces form one component. Every decision is
structural: an interval with lo < hi, an overlap with lo < hi and an
interior facet (a finite line and a non-degenerate span) all have
positive measure, even where a float measure underflows to 0.

On the model set of a profile this reduces to cells. Its columns are
``(psi(v), inf)``, the full line, or empty, and its complement's columns
are ``(-inf, psi(v))``, the full line, or empty, so each occupied column
is one piece and any two occupied neighbors overlap. The model set is
one essential piece exactly when the cells with v > 0 are connected
across the facets that are not severed, and its complement exactly when
the cells with v < 1 are, on the grid extended to infinity (whose new
cells count as v = 0). :func:`ehrhard.profiles._model_one_piece` decides
these questions on a grid's row-major cell indices and its interior edges
(:meth:`ehrhard.grids.Grid.edges`).

Every connectivity question, on scenes, pieces or cells, runs on one
union-find over integers (:class:`Forest`); results keep their tuple ids.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterable, NamedTuple, Sequence, Union

from .columnar import ColumnarSet, complement, complement_facet_map
from .errors import PartitionError
from .grids import CellId, Facet, Grid
from .intervals import _of_ends

if TYPE_CHECKING:
    from .profiles import Profile

INF = math.inf


# ----------------------------------------------------------------------
# scene data


@dataclass(frozen=True, slots=True)
class SceneCell:
    """One base cell with its measures, profile value, and in-G flag."""

    id: CellId
    value: float
    in_g: bool
    gauss: float
    lebesgue: float


@dataclass(frozen=True, slots=True)
class SceneFacet:
    """Interface between two in-G cells.

    ``wedge``/``vee`` are the lower/upper one-sided value limits at the
    interface (annotation-aware). A blocked interface is one the singular
    set saturates, so it cannot carry essential connections.
    """

    facet: Facet
    cells: tuple[CellId, CellId]
    gauss: float
    wedge: float
    vee: float
    blocked: bool
    annotated: bool


@dataclass(frozen=True)
class Scene:
    """Combinatorial scene of a profile: cells, G-to-G interfaces, flags.

    ``kind`` records which symmetrization the scene serves: ``"ehrhard"``
    scenes take G = {0 < v < 1} and block interfaces with wedge 0 or vee 1;
    ``"steiner"`` scenes take G = {v > 0} and block only wedge 0.
    Every interface between two G-cells is kept: it has positive base
    measure by its structure, even where ``gauss`` underflows to 0.0.
    Cells come in lexicographic order and facets in sorted order, as
    :func:`ehrhard.profiles.scene` builds them. A scene is a view, for
    JSON, the ``connectedness`` command and tests, of the profile in
    ``_profile`` (left out of equality, ``repr`` and JSON), on whose walk
    the scene's decision and certificates run.
    """

    kind: str
    base_dim: int
    cells: tuple[SceneCell, ...]
    facets: tuple[SceneFacet, ...]
    _profile: Profile = field(repr=False, compare=False)

    def g_cells(self) -> list[CellId]:
        return [c.id for c in self.cells if c.in_g]


@dataclass(frozen=True)
class PartitionCertificate:
    """Two-coloring of the G-cells witnessing (non-)separation.

    The certificate witnesses essential disconnection exactly when no
    unblocked interface crosses between the sides while both sides are
    non-empty. Both tests read structure, not floats: an unblocked
    interface has positive measure even where its float measure
    underflows, so :func:`certificate_for` counts those interfaces in
    ``_unblocked_crossings``; and a cell has positive Gaussian measure by
    its structure (a non-degenerate span), so a non-empty side does too,
    even where ``plus_gauss`` or ``minus_gauss`` underflows to 0.0.
    """

    plus_cells: tuple[CellId, ...]
    minus_cells: tuple[CellId, ...]
    interface_facets: tuple[Facet, ...]
    unblocked_interface_measure: float
    plus_gauss: float
    minus_gauss: float
    _unblocked_crossings: int = field(repr=False)

    @property
    def separating(self) -> bool:
        return (
            self._unblocked_crossings == 0
            and bool(self.plus_cells)
            and bool(self.minus_cells)
        )


@dataclass(frozen=True)
class SpanningStructure:
    """Unblocked interfaces forming a spanning forest of the scene graph.

    When the scene is essentially connected this is a spanning tree of all
    G-cells; an empty cell tuple flags the vacuous case of empty G.
    """

    cells: tuple[CellId, ...]
    tree_facets: tuple[Facet, ...]


# ----------------------------------------------------------------------
# union-find


class Forest:
    """Union-find over the integers ``0 .. n-1`` in one flat list.

    ``find`` halves the path it walks. ``union`` hangs the larger root
    under the smaller, so every root is the smallest member of its set:
    the set holding 0 is rooted at 0, and :meth:`groups` lists the sets
    by smallest member without sorting.
    """

    __slots__ = ("parent",)

    def __init__(self, n: int) -> None:
        self.parent = list(range(n))

    def find(self, x: int) -> int:
        parent = self.parent
        while parent[x] != x:
            parent[x] = x = parent[parent[x]]
        return x

    def union(self, a: int, b: int) -> bool:
        """Join the sets of ``a`` and ``b``; False when they were one already."""
        a, b = self.find(a), self.find(b)
        if a == b:
            return False
        if a < b:
            self.parent[b] = a
        else:
            self.parent[a] = b
        return True

    def groups(self) -> list[list[int]]:
        """All sets, each ascending, ordered by smallest member."""
        out: dict[int, list[int]] = {}
        for x in range(len(self.parent)):
            out.setdefault(self.find(x), []).append(x)
        return list(out.values())


# ----------------------------------------------------------------------
# essential connectedness of scenes


class _FlatScene(NamedTuple):
    """A scene as flat data: what the decision and the certificates read.

    Cell ``i`` of ``grid`` has id ``ids[i]`` and in-G flag ``in_g[i]``, in
    row-major (lexicographic) order. ``links`` has one ``(key, i, j,
    wedge, vee, blocked)`` per interface between G-cells, where ``key`` is
    the interface's :meth:`~ehrhard.grids.Grid.edges` position, ascending,
    which is also facet order. Facets and measures are read from ``grid``,
    only for what a report carries.
    """

    grid: Grid
    ids: Sequence[CellId]
    in_g: Sequence[bool]
    links: list[tuple[int, int, int, float, float, bool]]


def certificate_for(scene: Scene, minus_cells: Iterable[CellId]) -> PartitionCertificate:
    """Build the certificate for a given minus-side among the scene's G-cells."""
    flat = scene._profile._scene_links(scene.kind)
    g_index = {cid: i for i, cid in enumerate(flat.ids) if flat.in_g[i]}
    minus = {tuple(c) for c in minus_cells}
    if not minus <= g_index.keys():
        raise PartitionError("minus side contains cells outside G")
    return _certificate(flat, {g_index[c] for c in minus})


def _certificate(flat: _FlatScene, minus: set[int]) -> PartitionCertificate:
    """The certificate whose minus side is the G-cells at indices ``minus``."""
    grid, ids = flat.grid, flat.ids
    g = [i for i, inside in enumerate(flat.in_g) if inside]
    plus = [i for i in g if i not in minus]
    minus_side = [i for i in g if i in minus]
    interface = []
    unblocked = []
    for key, i, j, _, _, blocked in flat.links:
        if (i in minus) != (j in minus):
            f = grid.edge_facet(key)
            interface.append(f)
            if not blocked:
                unblocked.append(grid.facet_gauss(f))
    return PartitionCertificate(
        plus_cells=tuple(ids[i] for i in plus),
        minus_cells=tuple(ids[i] for i in minus_side),
        interface_facets=tuple(interface),
        unblocked_interface_measure=math.fsum(unblocked),
        plus_gauss=math.fsum(grid.cell_gauss(ids[i]) for i in plus),
        minus_gauss=math.fsum(grid.cell_gauss(ids[i]) for i in minus_side),
        _unblocked_crossings=len(unblocked),
    )


def essentially_disconnects(
    scene: Scene,
) -> tuple[bool, Union[PartitionCertificate, SpanningStructure]]:
    """Decide whether the blocked interfaces split G into separated parts.

    Components of the scene graph (G-cells joined by unblocked interfaces)
    are computed by union-find over the cells' positions, on a walk of the
    profile the scene views. With two or more components the first
    component (by smallest cell) becomes the minus side of a witnessing
    certificate; otherwise a spanning structure of unblocked interfaces is
    returned. Empty G is vacuously connected and yields an empty structure.
    """
    return _decide(scene._profile._scene_links(scene.kind))


def _decide(
    flat: _FlatScene,
) -> tuple[bool, Union[PartitionCertificate, SpanningStructure]]:
    """:func:`essentially_disconnects` on a scene's flat data."""
    g = [i for i, inside in enumerate(flat.in_g) if inside]
    if not g:
        return False, SpanningStructure(cells=(), tree_facets=())
    forest = Forest(len(flat.in_g))
    tree = []
    for key, i, j, _, _, blocked in flat.links:
        if not blocked and forest.union(i, j):
            tree.append(key)
    if len(tree) == len(g) - 1:
        ids = flat.ids
        return False, SpanningStructure(
            cells=tuple(ids[i] for i in g), tree_facets=tuple(map(flat.grid.edge_facet, tree))
        )
    find = forest.find
    first = find(g[0])
    return True, _certificate(flat, {i for i in g if find(i) == first})


# ----------------------------------------------------------------------
# decomposability of columnar sets

PieceId = tuple[CellId, int]


def indecomposable(e: ColumnarSet, severed_facets: Iterable[Facet] = ()) -> bool:
    """True when the set is a single essential piece.

    ``severed_facets`` removes specific interfaces from the adjacency (used
    by the sufficient-condition checkers to honor declared singular
    annotations); by default every interior facet may connect.
    The empty set is decomposable by convention (it carries no positive
    mass to hold together).
    """
    comps = decompose_ids(e, severed_facets)
    return len(comps) == 1


def decompose_ids(
    e: ColumnarSet, severed_facets: Iterable[Facet] = ()
) -> list[list[PieceId]]:
    """Connected components of the piece graph, as lists of piece ids.

    A piece is one interval of a section, keyed by (cell, running index);
    two pieces across an interior facet connect when their overlap is a
    non-degenerate interval. Both tests are structural: an interval with
    lo < hi has positive Gaussian mass even where its float mass
    underflows to 0.0. Components are ordered by their smallest piece id.
    """
    grid = e.grid
    ids: list[PieceId] = []
    # cell index -> [(piece number, lo, hi)], numbered in id order
    by_cell: dict[int, list[tuple[int, float, float]]] = {}
    for cid in e.support():
        by_cell[grid.cell_index(cid)] = pieces = []
        for k, (lo, hi) in enumerate(e.section(cid).to_pairs()):
            pieces.append((len(ids), lo, hi))
            ids.append((cid, k))
    if not ids:
        return []
    severed = {grid.edge_index(f) for f in severed_facets}
    forest = Forest(len(ids))
    for k, (i, j) in enumerate(zip(*grid.edges())):
        below = by_cell.get(i)
        above = by_cell.get(j)
        if below is None or above is None or k in severed:
            continue
        for a, a_lo, a_hi in below:
            for b, b_lo, b_hi in above:
                if a_lo < b_hi and b_lo < a_hi:
                    forest.union(a, b)
    return [[ids[k] for k in group] for group in forest.groups()]


def decompose(e: ColumnarSet, severed_facets: Iterable[Facet] = ()) -> list[ColumnarSet]:
    """Split the set into its essential pieces, as columnar sets.

    Components are ordered by their smallest piece id.
    """
    out = []
    for comp in decompose_ids(e, severed_facets):
        # a component lists its pieces in id order, so each cell's endpoints
        # stay increasing; pieces of one canonical section never touch
        sections: dict[CellId, list[float]] = {}
        for cid, k in comp:
            sections.setdefault(cid, []).extend(e._sections[cid]._ends[2 * k : 2 * k + 2])
        out.append(
            ColumnarSet._of_cells(
                e.grid, {cid: _of_ends(tuple(ends)) for cid, ends in sections.items()}
            )
        )
    return out


def complement_indecomposable(
    e: ColumnarSet, severed_facets: Iterable[Facet] = ()
) -> bool:
    """Indecomposability of the complement (grid extended to infinity).

    ``severed_facets`` are given on the original grid and re-indexed onto
    the extended one. The complement of the full space is empty, hence
    decomposable by convention.
    """
    c = complement(e)
    remapped = [complement_facet_map(e.grid, c.grid, f) for f in severed_facets]
    return indecomposable(c, remapped)
