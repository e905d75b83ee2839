"""Shared random generators for the test suite.

Every generator takes an explicit random.Random so each test pins its own
seed; nothing here reads global state. Breakpoints keep a minimum spacing
so that no cell is thin enough for its Gaussian mass times a value margin
to fall under the mass floors used by the search routines.
"""

from __future__ import annotations

import dataclasses
import math
import random
from enum import Enum

import pytest

import ehrhard.catalog
import ehrhard.render
from ehrhard import (
    ColumnarSet,
    Facet,
    Grid,
    HorizontalFace,
    IntervalSet,
    JumpInterface,
    LevelRestrictionReport,
    PartitionCertificate,
    PerimeterBreakdown,
    Profile,
    SceneCell,
    SceneFacet,
    SingularAnnotation,
    SpanningStructure,
    VerticalFace,
    approx_limits,
    default_levels,
    from_profile,
    gamma1,
    gauss_perimeter,
    gauss_weight,
)
from ehrhard.columnar import complement_facet_map
from ehrhard.connectedness import _join, _one_piece
from ehrhard.jsonio import columnar_to_json, encode_number, facet_to_json

INF = math.inf

MIN_SPACING = 1e-3


def random_breakpoints(
    rng: random.Random,
    max_cells: int = 12,
    lo: float = -3.0,
    hi: float = 3.0,
    p_inf: float = 0.3,
) -> tuple[float, ...]:
    """Strictly increasing breakpoints with minimum spacing, optionally
    opened up to infinity at either end."""
    n_cells = rng.randint(1, max_cells)
    while True:
        pts = sorted(rng.uniform(lo, hi) for _ in range(n_cells + 1))
        if all(b - a >= MIN_SPACING for a, b in zip(pts, pts[1:])):
            break
    if rng.random() < p_inf:
        pts[0] = -INF
    if rng.random() < p_inf:
        pts[-1] = INF
    return tuple(pts)


def random_interval_set(
    rng: random.Random,
    max_intervals: int = 3,
    lo: float = -4.0,
    hi: float = 4.0,
    p_inf: float = 0.1,
) -> IntervalSet:
    k = rng.randint(0, max_intervals)
    if k == 0:
        return IntervalSet.empty()
    while True:
        pts = sorted(rng.uniform(lo, hi) for _ in range(2 * k))
        if all(b - a >= MIN_SPACING for a, b in zip(pts, pts[1:])):
            break
    if rng.random() < p_inf:
        pts[0] = -INF
    if rng.random() < p_inf:
        pts[-1] = INF
    return IntervalSet.from_pairs(
        [(pts[2 * i], pts[2 * i + 1]) for i in range(k)]
    )


def random_columnar(
    rng: random.Random,
    max_cells: int = 20,
    max_intervals: int = 3,
    bounded: bool = False,
) -> ColumnarSet:
    """Random 1-D-base columnar set (a planar set built from columns)."""
    if bounded:
        bps = random_breakpoints(rng, max_cells, p_inf=0.0)
    else:
        bps = random_breakpoints(rng, max_cells)
    grid = Grid(bps)
    sections = {}
    for cid in grid.cells():
        s = random_interval_set(
            rng, max_intervals, p_inf=0.0 if bounded else 0.1
        )
        if s:
            sections[cid] = s
    return ColumnarSet(grid, sections)


def random_value(rng: random.Random, p_extreme: float = 0.2) -> float:
    """A cell value: 0 or 1 with probability p_extreme (split evenly),
    otherwise uniform kept a safe margin away from both ends."""
    r = rng.random()
    if r < p_extreme / 2.0:
        return 0.0
    if r < p_extreme:
        return 1.0
    while True:
        v = rng.random()
        if min(v, 1.0 - v) >= 1e-5:
            return v


def random_profile_1d(
    rng: random.Random,
    max_cells: int = 12,
    max_g_cells: int = 10,
    p_extreme: float = 0.2,
) -> Profile:
    """Unannotated 1-D profile with at most max_g_cells cells in G."""
    while True:
        bps = random_breakpoints(rng, max_cells)
        grid = Grid(bps)
        values = {cid: random_value(rng, p_extreme) for cid in grid.cells()}
        p = Profile(grid, values)
        if len(p.g_cells()) <= max_g_cells:
            return p


def random_profile_2d(
    rng: random.Random,
    max_cells_per_axis: int = 4,
    p_extreme: float = 0.2,
) -> Profile:
    grid = Grid(
        random_breakpoints(rng, max_cells_per_axis),
        random_breakpoints(rng, max_cells_per_axis),
    )
    values = {cid: random_value(rng, p_extreme) for cid in grid.cells()}
    return Profile(grid, values)


def random_annotated(rng: random.Random, p: Profile, p_annotate: float = 0.3) -> Profile:
    """The profile with annotations on a random share of its interior
    facets; each limit is 0, 1 or uniform, so some annotations block."""
    annotations = []
    for f in p.grid.facets(interior_only=True):
        if rng.random() < p_annotate:
            wedge, vee = sorted(rng.choice((0.0, 1.0, rng.random())) for _ in range(2))
            annotations.append(SingularAnnotation(f, wedge, vee))
    return Profile(p.grid, p.values, annotations)


def side_midpoint(a: float, b: float) -> float:
    """A point strictly inside the side (a, b), whose ends may be infinite."""
    if math.isinf(a) and math.isinf(b):
        return 0.0
    if math.isinf(a):
        return b - 1.0
    if math.isinf(b):
        return a + 1.0
    return 0.5 * (a + b)


def holding_side(bps, a: float, b: float):
    """Index of the side of the axis ``bps`` that holds the side (a, b),
    found by its midpoint; None outside the axis."""
    z = side_midpoint(a, b)
    return next((i for i, (lo, hi) in enumerate(zip(bps, bps[1:])) if lo < z < hi), None)


def reference_on_grid(p: Profile, fine: Grid) -> Profile:
    """``p`` on a refinement ``fine`` of its grid, by coordinates: each cell
    of ``fine`` takes the value of the cell of ``p`` that holds its
    midpoint, and an interior facet of ``fine`` carries the limits of the
    annotated facet of ``p`` that it lies inside."""
    coarse = p.grid
    by_facet = {a.facet: a for a in p.annotations}

    def parent(axis, i):
        return holding_side(coarse.axes[axis], *fine.axes[axis][i : i + 2])

    values = {
        cid: p.value(tuple(parent(axis, c) for axis, c in enumerate(cid))) for cid in fine.cells()
    }
    annotations = []
    for f in fine.facets(interior_only=True):
        z = fine.facet_coordinate(f)
        if z not in coarse.axes[f.axis]:
            continue
        lat = 0 if fine.base_dim == 1 else parent(1 - f.axis, f.lateral)
        a = by_facet.get(Facet(f.axis, coarse.axes[f.axis].index(z), lat))
        if a is not None:
            annotations.append(SingularAnnotation(f, a.wedge, a.vee))
    return Profile(fine, values, annotations)


def reference_refined_axis(bps, max_width: float) -> tuple[float, ...]:
    """The breakpoints of ``Profile.refined`` on one axis, one split at a
    time: the first finite side wider than ``max_width`` is halved at
    ``0.5 * (a + b)`` until none is left."""
    bps = list(bps)
    while True:
        wide = [
            i for i, (a, b) in enumerate(zip(bps, bps[1:]))
            if not math.isinf(a) and not math.isinf(b) and b - a > max_width
        ]
        if not wide:
            return tuple(bps)
        i = wide[0]
        bps.insert(i + 1, 0.5 * (bps[i] + bps[i + 1]))


def reference_jumps(p: Profile) -> list[JumpInterface]:
    """``jump_interfaces(p)`` restated facet by facet on the public queries:
    every facet of ``facets()``, its ``approx_limits`` and its neighbours,
    the exterior counting as value 0."""
    out = []
    for f in p.grid.facets():
        wedge, vee = approx_limits(p, facet=f)
        if wedge < vee:
            lo, hi = p.grid.facet_cells(f)
            v_lo = 0.0 if lo is None else p.value(lo)
            v_hi = 0.0 if hi is None else p.value(hi)
            out.append(JumpInterface(f, wedge, vee, v_hi >= v_lo))
    return out


def reference_g_boundary(p: Profile) -> float:
    """``g_boundary_gauss(p)`` restated facet by facet: the ``facet_gauss``
    of every facet with exactly one neighbour in G (the exterior is not)."""
    g = set(p.g_cells())
    masses = []
    for f in p.grid.facets():
        lo, hi = p.grid.facet_cells(f)
        if (lo in g) != (hi in g):
            masses.append(p.grid.facet_gauss(f))
    return math.fsum(masses)


def reference_perimeter(e: ColumnarSet) -> PerimeterBreakdown:
    """gauss_perimeter as one symdiff and one gamma1 per facet and one
    gamma1 per column, with the same faces in the same summation order."""
    g = e.grid
    sections = e.sections
    horizontal = [
        HorizontalFace(cid, t, normal, g.cell_gauss(cid) * gauss_weight(t), g.cell_lebesgue(cid))
        for cid in e.support()
        for t, normal in sections[cid].finite_endpoints()
    ]
    column_mass = {cid: gamma1(s) for cid, s in sections.items()}
    vertical = []
    for f in g.facets():
        lo_cid, hi_cid = g.facet_cells(f)
        facet_mass = g.facet_gauss(f)
        diff = sections.get(lo_cid, IntervalSet()).symdiff(sections.get(hi_cid, IntervalSet()))
        if diff.is_empty:
            continue
        mass = gamma1(diff)
        heavier_above = column_mass.get(hi_cid, 0.0) >= column_mass.get(lo_cid, 0.0)
        vertical.append(
            VerticalFace(
                f,
                mass,
                facet_mass * mass,
                g.facet_lebesgue(f) * diff.length(),
                +1 if heavier_above else -1,
            )
        )
    hg = math.fsum(face.gauss for face in horizontal)
    vg = math.fsum(face.gauss for face in vertical)
    total_l = math.fsum([face.lebesgue for face in horizontal] + [face.lebesgue for face in vertical])
    return PerimeterBreakdown(tuple(horizontal), tuple(vertical), hg, vg, hg + vg, total_l)


def reference_json(x: object) -> object:
    """The document that the report rule of ``jsonio._dumps`` makes of
    ``x``, built as a dict tree by plain recursion on the exact type: a
    dataclass becomes a dict of its public fields that are not None, a
    float a number or inf sentinel, a tuple or list a list, a dict with
    str keys a dict, an enum its value, and a facet or columnar set its
    input encoding. Any other type, or a dict key that is not a str,
    raises TypeError."""
    t = type(x)
    if t is float:
        return encode_number(x)
    if t in (bool, int, str, type(None)):
        return x
    if t in (tuple, list):
        return [reference_json(v) for v in x]
    if t is dict:
        if any(type(k) is not str for k in x):
            raise TypeError("report keys must be str")
        return {k: reference_json(v) for k, v in x.items()}
    if t is Facet:
        return facet_to_json(x)
    if t is ColumnarSet:
        return columnar_to_json(x)
    if isinstance(x, Enum):
        return x.value
    names = [f.name for f in dataclasses.fields(x) if not f.name.startswith("_")]
    values = {name: getattr(x, name) for name in names}
    return {name: reference_json(v) for name, v in values.items() if v is not None}


def reference_heatmap(grid, values, blocked, minus_cells, title) -> str:
    """The 2-D heatmap restated cell by cell: every cell's fill and, for a
    cell of ``minus_cells``, its tint drawn by ``render._rect`` from the
    cell's breakpoints, ``values`` keyed by cell id; then the ``blocked``
    facets dashed, the frame and the closing tag."""
    render = ehrhard.render
    parts = render._header(title)
    xs, ys = grid.axes
    for cid in grid.cells():
        x0, x1 = xs[cid[0]], xs[cid[0] + 1]
        y0, y1 = ys[cid[1]], ys[cid[1] + 1]
        level = int(round(255 * (1.0 - 0.85 * float(values[cid]))))
        parts.append(render._rect(x0, x1, y0, y1, f"#{level:02x}{level:02x}{level:02x}"))
        if cid in minus_cells:
            parts.append(render._rect(x0, x1, y0, y1, render._FILL_MINUS, opacity="0.35"))
    px, py, clip = render._px, render._py, render._clip
    for f in sorted(blocked):
        z = grid.facet_coordinate(f)
        span = grid.facet_span(f)
        lo, hi = clip(span.lo), clip(span.hi)
        if hi <= lo or not -render.VIEW <= z <= render.VIEW:
            continue
        if f.axis == 0:
            parts.append(render._line(px(z), py(lo), px(z), py(hi), render._BLOCKED, dashed=True))
        else:
            parts.append(render._line(px(lo), py(z), px(hi), py(z), render._BLOCKED, dashed=True))
    parts.append(render._frame())
    parts.append("</svg>")
    return "\n".join(x for x in parts if x) + "\n"


def reference_symdiff(e: ColumnarSet, f: ColumnarSet) -> float:
    """``symdiff_volume`` of two sets on one grid by its definition: the
    ``fsum`` over the occupied cells, sorted, of ``cell_gauss`` times the
    gamma1 mass of the sections' symmetric difference."""
    g, es, fs = e.grid, e.sections, f.sections
    return math.fsum(
        g.cell_gauss(cid) * gamma1(es.get(cid, IntervalSet()).symdiff(fs.get(cid, IntervalSet())))
        for cid in sorted(es.keys() | fs.keys())
    )


def severed_one_piece(grid: Grid, inside, severed) -> bool:
    """``_one_piece`` with the cut given as facets. A facet on a line at
    infinity is not a facet of the grid and severs nothing."""
    return _one_piece(grid, inside, [k for k in map(grid.edge_index, severed) if k is not None])


def set_one_piece(p: Profile, severed=()) -> bool:
    """``indecomposable(from_profile(p), severed)`` on the band ``(0, inf)``,
    with any facets ``severed`` instead of the band's cut."""
    grid, inside, _ = p._band(0.0, INF)
    return severed_one_piece(grid, inside, severed)


def complement_one_piece(p: Profile, severed=()) -> bool:
    """``complement_indecomposable(from_profile(p), severed)`` on
    ``p._complement_band()``, with any facets of ``p.grid`` ``severed``
    (re-indexed onto the extended grid) instead of the band's cut."""
    big, inside, _ = p._complement_band()
    return severed_one_piece(big, inside, [complement_facet_map(p.grid, big, f) for f in severed])


def reference_pino(p: Profile, levels=None) -> LevelRestrictionReport:
    """``check_pino`` as a loop over the levels: each level that keeps
    every G-value asks ``_one_piece`` once, on the cells strictly between
    it and 1 minus it, with the annotations it reaches severed."""
    ts = default_levels(p) if levels is None else tuple(levels)
    g = [v for v in p.values.values() if 0.0 < v < 1.0]
    lo, hi = min(g, default=0.5), max(g, default=0.5)
    passed = []
    for t in ts:
        severed = [a.facet for a in p.annotations if a.wedge <= t or a.vee >= 1.0 - t]
        keeps_g = t < lo < 1.0 - t and t < hi < 1.0 - t
        inside = [t < v < 1.0 - t for v in p.values.values()] + [False]
        passed.append(keeps_g and severed_one_piece(p.grid, inside, severed))
    return LevelRestrictionReport(
        levels=ts, passed=tuple(passed), overall=bool(passed) and all(passed)
    )


def reference_links(p: Profile, kind: str = "ehrhard") -> tuple[list[bool], list[tuple]]:
    """The scene of ``p`` by one walk of every edge: each cell's in-G flag
    (row-major, the exterior last) and one ``(k, i, j, wedge, vee,
    blocked)`` per edge ``k`` between two G-cells ``i`` and ``j``, its
    limits from the annotation or else the two cell values, blocked where
    wedge is 0 or, for an Ehrhard scene, vee is 1."""
    grid = p.grid
    values = list(p.values.values())
    ehrhard = kind == "ehrhard"
    in_g = [0.0 < v < 1.0 if ehrhard else v > 0.0 for v in values] + [False]
    declared = {grid.edge_index(a.facet): a for a in p.annotations}
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
    return in_g, links


def reference_scene_repr(p: Profile, kind: str = "ehrhard") -> str:
    """``repr(scene(p, kind))``: the rows of :func:`reference_links`, their
    measures read through the public accessors, in the text of a Scene's
    repr (a Scene is a view of a profile and takes no rows)."""
    grid, ids = p.grid, list(p.grid.cells())
    in_g, links = reference_links(p, kind)
    cells = tuple(
        SceneCell(cid, p.value(cid), flag, grid.cell_gauss(cid), grid.cell_lebesgue(cid))
        for cid, flag in zip(ids, in_g)
    )
    facets = tuple(
        SceneFacet(
            grid.edge_facet(k),
            (ids[i], ids[j]),
            grid.facet_gauss(grid.edge_facet(k)),
            wedge,
            vee,
            blocked,
            p.annotation(grid.edge_facet(k)) is not None,
        )
        for k, i, j, wedge, vee, blocked in links
    )
    return f"Scene(kind={kind!r}, base_dim={grid.base_dim!r}, cells={cells!r}, facets={facets!r})"


def reference_certificate(p: Profile, kind: str, minus: set) -> PartitionCertificate:
    """The certificate on :func:`reference_links` whose minus side is the
    G-cells at the row-major indices ``minus``."""
    grid, ids = p.grid, list(p.grid.cells())
    in_g, links = reference_links(p, kind)
    g = [i for i, inside in enumerate(in_g) if inside]
    crossing = [link for link in links if (link[1] in minus) != (link[2] in minus)]
    unblocked = [grid.facet_gauss(grid.edge_facet(k)) for k, *_, b in crossing if not b]
    return PartitionCertificate(
        plus_cells=tuple(ids[i] for i in g if i not in minus),
        minus_cells=tuple(ids[i] for i in g if i in minus),
        interface_facets=tuple(grid.edge_facet(link[0]) for link in crossing),
        unblocked_interface_measure=math.fsum(unblocked),
        plus_gauss=math.fsum(grid.cell_gauss(ids[i]) for i in g if i not in minus),
        minus_gauss=math.fsum(grid.cell_gauss(ids[i]) for i in g if i in minus),
        _unblocked_crossings=len(unblocked),
    )


def reference_decide(p: Profile, kind: str = "ehrhard"):
    """``essentially_disconnects(scene(p, kind))`` decided by union-find on
    the unblocked links of :func:`reference_links`."""
    in_g, links = reference_links(p, kind)
    g = [i for i, inside in enumerate(in_g) if inside]
    if not g:
        return False, SpanningStructure(cells=(), tree_facets=())
    unblocked = ((k, i, j) for k, i, j, _, _, blocked in links if not blocked)
    roots, tree = _join(len(in_g), unblocked)
    if len(tree) == len(g) - 1:
        ids = list(p.grid.cells())
        facets = tuple(map(p.grid.edge_facet, tree))
        return False, SpanningStructure(cells=tuple(ids[i] for i in g), tree_facets=facets)
    return True, reference_certificate(p, kind, {i for i in g if roots[i] == g[0]})


def reference_search(p: Profile):
    """``exhaustive_search(p)`` on :func:`reference_links`, as
    ``(partitions checked, certificate of the accepted coloring or None)``:
    colorings in ascending bitmask order, the first that crosses no
    unblocked link accepted."""
    in_g, links = reference_links(p)
    g = [i for i, inside in enumerate(in_g) if inside]
    bit = {i: 1 << k for k, i in enumerate(g)}
    unblocked = [(bit[i], bit[j]) for k, i, j, w, v, blocked in links if not blocked]
    checked = 0
    for mask in range(1, (1 << len(g)) - 1):
        checked += 1
        if all(bool(mask & ba) == bool(mask & bb) for ba, bb in unblocked):
            return checked, reference_certificate(p, "ehrhard", {i for i in g if mask & bit[i]})
    return checked, None


def reference_render(p: Profile, report=None) -> str:
    """``render_profile(p, report)`` with the blocked interfaces drawn taken
    from :func:`reference_links`."""
    render, grid = ehrhard.render, p.grid
    blocked = [grid.edge_facet(k) for k, *_, b in reference_links(p)[1] if b]
    minus = () if report is None or report.certificate is None else report.certificate.minus_cells
    if grid.base_dim == 2:
        values, title = list(p.values.values()), "profile (base scene)"
        return render._render_base_heatmap(grid, values, blocked, set(minus), title)
    target = from_profile(p)
    if report is not None and report.counterexample is not None:
        target = report.counterexample
    svg = render.render_columnar(target, minus_cells=minus)
    top, bottom = render._py(render.VIEW), render._py(-render.VIEW)
    decorations = [
        render._line(render._px(z), bottom, render._px(z), top, render._BLOCKED, dashed=True)
        for z in map(grid.facet_coordinate, blocked)
        if -render.VIEW <= z <= render.VIEW
    ]
    if decorations:
        svg = svg.replace("</svg>", "\n".join(decorations) + "\n</svg>")
    return svg


def assert_same_text(a: str, b: str) -> None:
    """Assert ``a == b``, reporting a mismatch by its first differing
    character and the text around it. pytest's own report diffs the two
    strings whole, which for a catalog-size text can run for minutes."""
    if a != b:
        at = next((i for i, (x, y) in enumerate(zip(a, b)) if x != y), min(len(a), len(b)))
        lo = max(0, at - 40)
        assert a[lo : at + 40] == b[lo : at + 40], f"texts differ at character {at}"


def assert_same_repr(got: object, want: object) -> None:
    """Assert ``repr(got) == repr(want)`` by :func:`assert_same_text`."""
    assert_same_text(repr(got), repr(want))


def assert_same_perimeter(e: ColumnarSet) -> None:
    got, want = gauss_perimeter(e), reference_perimeter(e)
    assert got == want
    assert_same_repr(got, want)  # == alone equates 0.0 and -0.0


@pytest.fixture(scope="session")
def verdict_suite() -> list[Profile]:
    """The shared suite of 10^4 random unannotated 1-D profiles used by the
    verdict-agreement, equality-case, and sufficient-condition criteria."""
    rng = random.Random(20260817)
    return [random_profile_1d(rng) for _ in range(10_000)]


class _NoGrid:
    """Stands in for Grid where building one fails the test."""

    def __init__(self, *axes):
        raise AssertionError("a grid was built")

    @staticmethod
    def regular(lo, hi, cells):
        raise AssertionError(f"a grid axis of {cells} cells was built")


@pytest.fixture
def no_catalog_grid(monkeypatch):
    """Make any grid that ehrhard.catalog builds fail the test."""
    monkeypatch.setattr(ehrhard.catalog, "Grid", _NoGrid)


@pytest.fixture
def no_sweep_build(monkeypatch):
    """Make refining a profile or building a snowflake polygon fail the test."""

    def refuse(*args, **kwargs):
        raise AssertionError("a sweep profile was built")

    monkeypatch.setattr(Profile, "refined", refuse)
    monkeypatch.setattr(ehrhard.catalog, "koch_snowflake", refuse)
