"""Essential connectedness of grid scenes and decomposability of columnar sets.

Two notions live here. A *scene* is the combinatorial shadow of a profile:
its cells with measures and in-G flags, plus the interfaces between G-cells
with their one-sided value limits and a blocked flag. The scene graph (G-cells
joined by unblocked interfaces) decides essential connectedness: a
two-coloring of its components with no unblocked interface between the
colors certifies that the singular set essentially disconnects G.

An interface is blocked where its one-sided limits reach 0, or 1 for an
Ehrhard scene. Both kinds ask one band rule (``Profile._band(low, high)``,
``_BANDS`` gives each kind's band): the cells with low < v < high are in,
and the annotations with wedge <= low or vee >= high are cut. Two G-cells
have values inside the band, so only an annotation can block the
interface between them: the blocked interfaces are an annotation cut, the
edge positions of the annotations that meet the rule. Every reader of the
scene graph takes its links from the grid's one edge pick,
``Grid._links``, which picks the edges between two kept cells at C speed:
the verdict and the exhaustive search of :mod:`ehrhard.rigidity`, and,
on the profile a :class:`Scene` views, :func:`essentially_disconnects`
and ``Scene._columns``. The JSON writer of a scene
(``jsonio._write_scene``) reads those links through ``_columns`` too,
and writes the rows' text without building them.
:func:`ehrhard.render.render_profile` needs only the blocked interfaces,
and reads them from the cut: its positions whose two cells are in G.

A certificate's crossing edges are those between a plus and a minus
G-cell (cell sides 0 outside G, 1 plus, 2 minus). It takes at most one
pick for them: :func:`certificate_for` and the verdict pick the edges
across which the side changes (the verdict's own pick streams into the
union-find and is not kept), and the exhaustive search hands over the
few G-G links it already holds, so the certificate picks nothing. Only
what ``separating`` reads is priced with the witness: the count of
unblocked crossings, recounted from those edges, and the two side sizes.
A certificate's cell tuples, its interface facets and measure, and its
side masses, and a spanning structure's cells and tree facets, are
priced on first read, each group on its own, from the coloring or the
forest the witness keeps. Cell ids, facets, limits and measures are
read back only for what a report or a scene carries.

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
one essential piece exactly when the cells with v > 0 (the Steiner band
``(0, inf)``) are connected across the facets that are not severed, and
its complement exactly when the cells with v < 1 (the band ``(-inf, 1)``)
are, on the grid extended to infinity (whose new cells count as v = 0;
``Profile._complement_band``). The level restriction at t is the band
``(t, 1 - t)``. :func:`_one_piece` decides these questions on the same
edge pick, over a band's flags and cut.

Every connectivity question, on scenes, pieces or cells, runs on one
union-find kernel over integer links (:func:`_join`); results keep their
tuple ids.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import compress
from operator import ne
from typing import TYPE_CHECKING, Any, Collection, Iterable, Optional, Sequence, Union

from .columnar import ColumnarSet, complement
from .errors import PartitionError, ProfileError
from .grids import CellId, Facet, Grid
from .intervals import _Lazy, _of_ends

if TYPE_CHECKING:
    from .profiles import Profile

__all__ = [
    "PartitionCertificate",
    "Scene",
    "SceneCell",
    "SceneFacet",
    "SpanningStructure",
    "certificate_for",
    "complement_indecomposable",
    "decompose",
    "essentially_disconnects",
    "indecomposable",
]

INF = math.inf
# the band (low, high) of each scene kind: G is the cells with low < v < high,
# and an annotation with wedge <= low or vee >= high blocks its interface
_BANDS = {"ehrhard": (0.0, 1.0), "steiner": (0.0, INF)}


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
class Scene(_Lazy):
    """Combinatorial scene of a profile: cells, G-to-G interfaces, flags.

    ``kind`` records which symmetrization the scene serves: ``"ehrhard"``
    scenes take G = {0 < v < 1} and block interfaces with wedge 0 or vee 1;
    ``"steiner"`` scenes take G = {v > 0} and block only wedge 0; any
    other kind raises ``ProfileError`` at construction. Every interface
    between two G-cells is kept: it has positive base measure by its
    structure, even where ``gauss`` underflows to 0.0.

    A scene is a view of the profile in ``_profile`` (left out of
    equality, ``repr`` and JSON), on whose in-G flags and annotation cut
    its decision and certificates run. ``kind``, ``base_dim`` and the
    profile are eager; the rows, ``cells`` in lexicographic order and
    ``facets`` in sorted order, are priced together from the profile's
    columns (``_columns``). The JSON writer writes their text from the
    columns and does not price them.
    """

    kind: str
    base_dim: int
    cells: tuple[SceneCell, ...] = field(init=False)
    facets: tuple[SceneFacet, ...] = field(init=False)
    _profile: Profile = field(repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.kind not in _BANDS:
            raise ProfileError(f"unknown scene kind {self.kind!r}")

    def _rows(self) -> dict[str, Any]:
        (ids, *cell_leaves), (places, lo, hi, *facet_leaves) = self._columns()
        facets = map(Facet, *places)
        ends = zip(map(ids.__getitem__, lo), map(ids.__getitem__, hi))
        return {
            "cells": tuple(map(SceneCell, ids, *cell_leaves)),
            "facets": tuple(map(SceneFacet, facets, ends, *facet_leaves)),
        }

    _PRICES = dict.fromkeys(("cells", "facets"), _rows)

    def _columns(self) -> tuple[tuple[Sequence, ...], tuple[Sequence, ...]]:
        """The rows' sources, one column per leaf, in row order: the cells'
        ids, values, in-G flags (these two end with the exterior's),
        Gaussian and Lebesgue measures; the facets' places (their axes,
        lines and laterals, three columns), their cells' row-major indices,
        Gaussian measures, wedges, vees, and blocked and annotated flags."""
        p = self._profile
        grid, in_g, blocked = self._band()
        values = [*p._values.values(), 0.0]
        links = list(grid._links(in_g))
        ks, lo, hi = tuple(zip(*links)) or ((), (), ())
        limits = tuple(zip(*p._limits(links, values))) or ((), ())
        *places, gauss = grid._edge_columns(ks)
        flags = [list(map(keys.__contains__, ks)) for keys in (blocked, p._by_edge)]
        cells = (list(p._values), values, in_g, *zip(*grid._cell_measures()))
        return cells, (places, lo, hi, gauss, *limits, *flags)

    def _band(self) -> tuple[Grid, list[bool], set[int]]:
        """The grid, in-G flags and blocked edge positions (see ``_BANDS``)."""
        return self._profile._band(*_BANDS[self.kind])

    def g_cells(self) -> list[CellId]:
        grid, in_g, _ = self._band()
        return list(compress(grid.cells(), in_g))


@dataclass(frozen=True)
class PartitionCertificate(_Lazy):
    """Two-coloring of the G-cells witnessing (non-)separation.

    The certificate witnesses essential disconnection exactly when no
    unblocked interface crosses between the sides while both sides are
    non-empty. Both tests read structure, not floats: an unblocked
    interface has positive measure even where its float measure
    underflows, so a certificate counts those interfaces in
    ``_unblocked_crossings``; and a cell has positive Gaussian measure by
    its structure (a non-degenerate span), so a non-empty side does too,
    even where ``plus_gauss`` or ``minus_gauss`` underflows to 0.0.

    From :func:`certificate_for`, :func:`essentially_disconnects` and the
    routes of :mod:`ehrhard.rigidity` only what :attr:`separating` reads
    is eager: the unblocked-crossing count, recounted from the crossing
    edges, and the two side sizes (``_sides``). The rest is priced from
    the coloring the certificate keeps (``_coloring``), in three groups:
    the cell tuples, the interface facets with their unblocked measure,
    and the two side masses. A certificate built through the constructor
    prices its side sizes from its cell tuples.
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
        return self._unblocked_crossings == 0 and all(self._sides)

    def _cells(self) -> dict[str, Any]:
        grid, side, _, _ = self._coloring
        plus, minus = (tuple(compress(grid.cells(), map(s.__eq__, side))) for s in (1, 2))
        return {"plus_cells": plus, "minus_cells": minus}

    def _interfaces(self) -> dict[str, Any]:
        grid, _, crossing, unblocked = self._coloring
        return {
            "interface_facets": tuple(map(grid.edge_facet, crossing)),
            "unblocked_interface_measure": math.fsum(grid._edge_measures(k)[0] for k in unblocked),
        }

    def _masses(self) -> dict[str, Any]:
        grid, side, _, _ = self._coloring
        masses: tuple[list[float], ...] = ([], [], [])  # indexed by side
        for s, (area, _) in zip(side, grid._cell_measures()):
            masses[s].append(area)
        return {"plus_gauss": math.fsum(masses[1]), "minus_gauss": math.fsum(masses[2])}

    _PRICES = {
        **dict.fromkeys(("plus_cells", "minus_cells"), _cells),
        **dict.fromkeys(("interface_facets", "unblocked_interface_measure"), _interfaces),
        **dict.fromkeys(("plus_gauss", "minus_gauss"), _masses),
        "_sides": lambda c: {"_sides": (len(c.plus_cells), len(c.minus_cells))},
    }


@dataclass(frozen=True)
class SpanningStructure(_Lazy):
    """Unblocked interfaces forming a spanning forest of the scene graph.

    When the scene is essentially connected this is a spanning tree of all
    G-cells; an empty cell tuple flags the vacuous case of empty G.

    From :func:`essentially_disconnects` and
    :func:`~ehrhard.rigidity.rigidity_verdict` each field is priced on its
    own, from the in-G flags and the tree's edge positions the structure
    keeps (``_forest``).
    """

    cells: tuple[CellId, ...]
    tree_facets: tuple[Facet, ...]

    def _cells(self) -> dict[str, Any]:
        grid, in_g, _ = self._forest
        return {"cells": tuple(compress(grid.cells(), in_g))}

    def _tree_facets(self) -> dict[str, Any]:
        grid, _, tree = self._forest
        return {"tree_facets": tuple(map(grid.edge_facet, tree))}

    _PRICES = {"cells": _cells, "tree_facets": _tree_facets}


# ----------------------------------------------------------------------
# union-find


def _join(n: int, links: Iterable[tuple[int, int, int]]) -> tuple[list[int], list[int]]:
    """Union-find over ``0 .. n-1`` joining ``a`` and ``b`` of each ``(key, a, b)`` link.

    Paths are halved and the larger root hangs under the smaller, so each
    root is its set's smallest member and ``parent[x] <= x``: one ascending
    pass resolves every root. Returns the roots and the keys of the links
    that joined two sets, in link order (a spanning forest).
    """
    parent = list(range(n))
    joined = []
    for key, a, b in links:
        while parent[a] != a:
            parent[a] = a = parent[parent[a]]
        while parent[b] != b:
            parent[b] = b = parent[parent[b]]
        if a != b:
            if a < b:
                parent[b] = a
            else:
                parent[a] = b
            joined.append(key)
    for x in range(n):
        parent[x] = parent[parent[x]]
    return parent, joined


# ----------------------------------------------------------------------
# essential connectedness of scenes


def certificate_for(scene: Scene, minus_cells: Iterable[CellId]) -> PartitionCertificate:
    """Build the certificate for a given minus-side among the scene's G-cells."""
    grid, in_g, blocked = scene._band()
    g_index = {cid: i for i, cid in enumerate(grid.cells()) if in_g[i]}
    minus = {tuple(c) for c in minus_cells}
    if not minus <= g_index.keys():
        raise PartitionError("minus side contains cells outside G")
    return _certificate(grid, in_g, blocked, {g_index[c] for c in minus})


def _certificate(
    grid: Grid,
    in_g: Sequence[bool],
    blocked: Collection[int],
    minus: Iterable[int],
    links: Optional[Iterable[tuple[int, int, int]]] = None,
) -> PartitionCertificate:
    """The certificate whose minus side is the G-cells at indices ``minus``,
    on the in-G flags and the blocked edge positions of a scene: an edge
    crosses where its cells' sides (0 outside G, 1 plus, 2 minus) are 1
    and 2. The crossings are read from ``links``, every ``(k, i, j)``
    between two G-cells, where the caller holds them, else from one pick
    of the grid's edges; the rest of the certificate is priced on read."""
    side = list(in_g)
    for i in minus:
        side[i] = 2
    if links is None:
        links = grid._links(side, relation=ne)
    crossing = [k for k, i, j in links if side[i] * side[j] == 2]
    unblocked = [k for k in crossing if k not in blocked]
    return PartitionCertificate._held(
        _unblocked_crossings=len(unblocked),
        _sides=(side.count(1), side.count(2)),
        _coloring=(grid, side, crossing, unblocked),
    )


def essentially_disconnects(
    scene: Scene,
) -> tuple[bool, Union[PartitionCertificate, SpanningStructure]]:
    """Decide whether the blocked interfaces split G into separated parts.

    Components of the scene graph (G-cells joined by unblocked interfaces)
    are computed by union-find over the cells' positions, on the in-G
    flags and the annotation cut of the profile the scene views. With two
    or more components the first component (by smallest cell) becomes the
    minus side of a witnessing certificate; otherwise a spanning structure
    of unblocked interfaces is returned. Empty G is vacuously connected
    and yields an empty structure.
    """
    return _decide(*scene._band())


def _decide(
    grid: Grid, in_g: Sequence[bool], blocked: Collection[int]
) -> tuple[bool, Union[PartitionCertificate, SpanningStructure]]:
    """:func:`essentially_disconnects` on a scene's in-G flags and blocked
    edge positions."""
    if True not in in_g:
        return False, SpanningStructure(cells=(), tree_facets=())
    roots, tree = _join(len(in_g), grid._links(in_g, blocked))
    if len(tree) < in_g.count(True) - 1:
        # the smallest G-cell roots the first component, the minus side
        first = in_g.index(True)
        return True, _certificate(
            grid, in_g, blocked, compress(range(len(roots)), map(first.__eq__, roots))
        )
    return False, SpanningStructure._held(_forest=(grid, in_g, tree))


def _one_piece(grid: Grid, inside: Sequence[bool], cut: Iterable[int] = ()) -> bool:
    """Whether the cells with ``inside`` set (row-major, the exterior last
    and never set) form one component across the edges not in ``cut``;
    False with no cell inside. On a band of a profile this is a one-piece
    question of its model set (see the module docstring)."""
    _, joined = _join(len(inside), grid._links(inside, cut))
    return sum(inside) - len(joined) == 1


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
    # cell index -> [(piece number, lo, hi)], numbered in id order; the
    # exterior (index: the cell count) has no pieces
    by_cell: dict[int, list[tuple[int, float, float]]] = {}
    for cid in e.support():
        by_cell[grid.cell_index(cid)] = pieces = []
        for k, (lo, hi) in enumerate(e.section(cid).to_pairs()):
            pieces.append((len(ids), lo, hi))
            ids.append((cid, k))
    if not ids:
        return []
    severed = {grid.edge_index(f) for f in severed_facets}
    links = (
        (k, a, b)
        for k, (i, j) in enumerate(zip(*grid.edges()))
        if i in by_cell and j in by_cell and k not in severed
        for a, a_lo, a_hi in by_cell[i]
        for b, b_lo, b_hi in by_cell[j]
        if a_lo < b_hi and b_lo < a_hi
    )
    roots, _ = _join(len(ids), links)
    # a set first appears at its root, its smallest piece
    groups: dict[int, list[PieceId]] = {}
    for piece, root in zip(ids, roots):
        groups.setdefault(root, []).append(piece)
    return list(groups.values())


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
    parts = c.grid._facet_map(e.grid)
    return indecomposable(c, [g for f in severed_facets for g in parts(f)])
