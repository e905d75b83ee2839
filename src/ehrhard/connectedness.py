"""Essential connectedness of grid scenes and decomposability of columnar sets.

Two notions live here. A *scene* is the combinatorial shadow of a profile:
its cells with measures and in-G flags, plus the interfaces between G-cells
with their one-sided value limits and a blocked flag. The scene graph (G-cells
joined by unblocked interfaces of positive measure) decides essential
connectedness: a two-coloring of its components with no unblocked interface
between the colors certifies that the singular set essentially disconnects G.

Separately, a columnar set decomposes into *pieces*: per column, each
interval of positive Gaussian mass is a node, and two pieces are adjacent
when their columns share a facet and their sections overlap in positive
mass. The set is indecomposable when the pieces form one component of
positive total mass. Gamma-null pieces are invisible: they are null sets
and cannot carry or break connections. Interior facets always have
positive measure (a finite line and a non-degenerate span), so none is
dropped, even where its float measure underflows to 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Union

from .columnar import ColumnarSet, complement, complement_facet_map
from .errors import PartitionError
from .gauss import phi
from .grids import CellId, Facet
from .intervals import Interval, IntervalSet

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
    """

    kind: str
    base_dim: int
    cells: tuple[SceneCell, ...]
    facets: tuple[SceneFacet, ...]

    def g_cells(self) -> list[CellId]:
        return [c.id for c in self.cells if c.in_g]


@dataclass(frozen=True)
class PartitionCertificate:
    """Two-coloring of the G-cells witnessing (non-)separation.

    The certificate witnesses essential disconnection exactly when
    ``unblocked_interface_measure`` is zero while both sides are
    non-empty. A cell has positive Gaussian measure by its structure (a
    non-degenerate span), so a non-empty side does too, even where
    ``plus_gauss`` or ``minus_gauss`` underflows to 0.0.
    """

    plus_cells: tuple[CellId, ...]
    minus_cells: tuple[CellId, ...]
    interface_facets: tuple[Facet, ...]
    unblocked_interface_measure: float
    plus_gauss: float
    minus_gauss: float

    @property
    def separating(self) -> bool:
        return (
            self.unblocked_interface_measure == 0.0
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


class UnionFind:
    """Disjoint-set forest with path compression and union by size."""

    __slots__ = ("_parent", "_size")

    def __init__(self, items: Iterable) -> None:
        self._parent = {x: x for x in items}
        self._size = {x: 1 for x in self._parent}

    def find(self, x):
        parent = self._parent
        root = x
        while parent[root] != root:
            root = parent[root]
        while parent[x] != root:
            parent[x], x = root, parent[x]
        return root

    def union(self, a, b) -> bool:
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return False
        if self._size[ra] < self._size[rb]:
            ra, rb = rb, ra
        self._parent[rb] = ra
        self._size[ra] += self._size[rb]
        return True

    def groups(self) -> list[list]:
        out: dict = {}
        for x in self._parent:
            out.setdefault(self.find(x), []).append(x)
        return [sorted(v) for v in out.values()]


# ----------------------------------------------------------------------
# essential connectedness of scenes


def certificate_for(scene: Scene, minus_cells: Iterable[CellId]) -> PartitionCertificate:
    """Build the certificate for a given minus-side among the scene's G-cells."""
    g = scene.g_cells()
    minus = {tuple(c) for c in minus_cells}
    gset = set(g)
    if not minus <= gset:
        raise PartitionError("minus side contains cells outside G")
    plus = gset - minus
    interface = []
    unblocked = []
    for sf in scene.facets:
        a, b = sf.cells
        if (a in minus) != (b in minus):
            interface.append(sf.facet)
            if not sf.blocked:
                unblocked.append(sf.gauss)
    gauss_of = {c.id: c.gauss for c in scene.cells}
    return PartitionCertificate(
        plus_cells=tuple(sorted(plus)),
        minus_cells=tuple(sorted(minus)),
        interface_facets=tuple(sorted(interface)),
        unblocked_interface_measure=math.fsum(unblocked),
        plus_gauss=math.fsum(gauss_of[c] for c in sorted(plus)),
        minus_gauss=math.fsum(gauss_of[c] for c in sorted(minus)),
    )


def essentially_disconnects(
    scene: Scene,
) -> tuple[bool, Union[PartitionCertificate, SpanningStructure]]:
    """Decide whether the blocked interfaces split G into separated parts.

    Components of the scene graph (G-cells joined by unblocked interfaces)
    are computed by union-find. With two or more components the first
    component (by smallest cell) becomes the minus side of a witnessing
    certificate; otherwise a spanning structure of unblocked interfaces is
    returned. Empty G is vacuously connected and yields an empty structure.
    """
    g = scene.g_cells()
    if not g:
        return False, SpanningStructure(cells=(), tree_facets=())
    uf = UnionFind(g)
    tree: list[Facet] = []
    for sf in scene.facets:
        if sf.blocked:
            continue
        if uf.union(sf.cells[0], sf.cells[1]):
            tree.append(sf.facet)
    groups = sorted(uf.groups())
    if len(groups) == 1:
        return False, SpanningStructure(cells=tuple(g), tree_facets=tuple(sorted(tree)))
    return True, certificate_for(scene, groups[0])


# ----------------------------------------------------------------------
# decomposability of columnar sets

PieceId = tuple[CellId, int]


def indecomposable(e: ColumnarSet, severed_facets: Iterable[Facet] = ()) -> bool:
    """True when the set is a single essential piece of positive mass.

    ``severed_facets`` removes specific interfaces from the adjacency (used
    by the sufficient-condition checkers to honor declared singular
    annotations); by default every interior facet may connect.
    Empty and gamma-null sets are decomposable by convention (they carry
    no positive mass to hold together).
    """
    comps = decompose_ids(e, severed_facets)
    return len(comps) == 1


def decompose_ids(
    e: ColumnarSet, severed_facets: Iterable[Facet] = ()
) -> list[list[PieceId]]:
    """Connected components of the piece graph, as lists of piece ids.

    A piece is an interval of positive gamma1 mass, keyed by (cell, running
    index); two pieces across a facet connect when their overlap has
    positive mass. ``phi`` is taken once per piece endpoint: an overlap's
    endpoints are endpoints of its two pieces.
    """
    ids: list[PieceId] = []
    # cell -> [(piece number, lo, hi, phi(lo), phi(hi))], numbered in id order
    by_cell: dict[CellId, list[tuple[int, float, float, float, float]]] = {}
    for cid in e.support():
        for k, iv in enumerate(e.section(cid)):
            tail_lo, tail_hi = phi(iv.lo), phi(iv.hi)
            if tail_lo - tail_hi > 0.0:
                by_cell.setdefault(cid, []).append(
                    (len(ids), iv.lo, iv.hi, tail_lo, tail_hi)
                )
                ids.append((cid, k))
    if not ids:
        return []
    severed = {Facet(f.axis, f.line, f.lateral) for f in severed_facets}
    uf = UnionFind(range(len(ids)))
    for f, lo_cid, hi_cid, _ in e.grid.adjacency(interior_only=True):
        below = by_cell.get(lo_cid)
        above = by_cell.get(hi_cid)
        if below is None or above is None or f in severed:
            continue
        for a, a_lo, a_hi, ta_lo, ta_hi in below:
            for b, b_lo, b_hi, tb_lo, tb_hi in above:
                # overlap (max of the lows, min of the highs) with its tails
                lo, tail_lo = (b_lo, tb_lo) if b_lo > a_lo else (a_lo, ta_lo)
                hi, tail_hi = (b_hi, tb_hi) if b_hi < a_hi else (a_hi, ta_hi)
                if lo < hi and tail_lo - tail_hi > 0.0:
                    uf.union(a, b)
    return [[ids[k] for k in group] for group in sorted(uf.groups())]


def decompose(e: ColumnarSet, severed_facets: Iterable[Facet] = ()) -> list[ColumnarSet]:
    """Split the set into its essential pieces, as columnar sets.

    Components are ordered by their smallest piece id. Gamma-null
    intervals are dropped: they are null sets and belong to no component.
    """
    out = []
    for comp in decompose_ids(e, severed_facets):
        sections: dict[CellId, list[Interval]] = {}
        for cid, k in comp:
            sections.setdefault(cid, []).append(e.section(cid).intervals[k])
        out.append(
            ColumnarSet(
                e.grid,
                {cid: IntervalSet(ivs) for cid, ivs in sections.items()},
            )
        )
    return out


def complement_indecomposable(
    e: ColumnarSet, severed_facets: Iterable[Facet] = ()
) -> bool:
    """Indecomposability of the complement (grid extended to infinity).

    ``severed_facets`` are given on the original grid and re-indexed onto
    the extended one. The complement of the full space is empty, hence
    decomposable by the positive-mass convention.
    """
    c = complement(e)
    remapped = [complement_facet_map(e.grid, c.grid, f) for f in severed_facets]
    return indecomposable(c, remapped)
