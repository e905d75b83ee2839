"""Curated example profiles with self-checking expectations.

Every entry builds a profile, runs the relevant analyses, and returns a
result whose checks assert the entry's expected behavior; a failing check
is a red flag for the library, not for the caller's input. Entry names
are opaque keys; resolutions, where accepted, are grid steps.
"""

from __future__ import annotations

import bisect
import math
import random
from dataclasses import dataclass
from typing import Callable, Optional

from .columnar import gauss_perimeter
from .connectedness import _one_piece
from .errors import CatalogError
from .gauss import gamma1, phi
from .grids import Facet, Grid
from .intervals import Interval
from .profiles import (
    Profile,
    SingularAnnotation,
    from_profile,
    g_boundary_gauss,
    scene,
)
from .rigidity import (
    EqualityCaseReport,
    RigidityReport,
    Verdict,
    _mirror_cost,
    check_gino,
    check_pino,
    exhaustive_search,
    rigidity_verdict,
    rigidity_verdict_planar,
    verify_equality_case,
)

__all__ = [
    "CatalogCheck",
    "CatalogResult",
    "SweepResult",
    "SweepRow",
    "catalog_names",
    "koch_snowflake",
    "run_entry",
    "sweep",
]

INF = math.inf


@dataclass(frozen=True)
class CatalogCheck:
    label: str
    ok: bool
    detail: str = ""


@dataclass(frozen=True)
class CatalogResult:
    name: str
    profile: Profile
    report: RigidityReport
    checks: tuple[CatalogCheck, ...]
    extras: dict

    @property
    def passed(self) -> bool:
        return all(c.ok for c in self.checks)


class _Checks(list):
    def add(self, label: str, ok: bool, detail: str = "") -> None:
        self.append(CatalogCheck(label=label, ok=bool(ok), detail=detail))


# entry name -> runner(resolution, seed)
_ENTRIES: dict[str, Callable[[Optional[float], int], CatalogResult]] = {}

# what an entry's builder returns: its profile, its report and its extras
_Built = tuple[Profile, RigidityReport, dict]


def _entry(name: str, default_resolution: Optional[float] = None) -> Callable:
    """Register ``build(checks, h, seed) -> (profile, report, extras)`` as an entry.

    The builder adds its checks to ``checks`` in order. An entry with no
    default resolution refuses one, and its builder gets ``h = None``;
    otherwise ``h`` is the given resolution or the default.
    """

    def register(build: Callable[[_Checks, Optional[float], int], _Built]) -> Callable:
        def run(resolution: Optional[float], seed: int) -> CatalogResult:
            if default_resolution is None and resolution is not None:
                raise CatalogError(f"entry {name!r} does not take a resolution")
            ck = _Checks()
            h = default_resolution if resolution is None else resolution
            p, rep, extras = build(ck, h, seed)
            return CatalogResult(name, p, rep, tuple(ck), extras)

        _ENTRIES[name] = run
        return build

    return register


# most grid steps per axis an entry or sweep builds: 4x the cells of mistico at h = 1/64
_MAX_STEPS = 256
# most curve iterations a koch sweep builds: iteration 6 has 12,288 vertices
_MAX_KOCH_ITERATIONS = 6


def _steps(what: str, span: float, resolution: float) -> float:
    """Steps of a positive ``resolution`` over ``span``, at most the cap."""
    if not resolution > 0.0:  # also NaN
        raise CatalogError(f"{what}: resolution {resolution} must be positive")
    n = span / resolution
    if n > _MAX_STEPS:  # before any grid is built; also catches an infinite count
        raise CatalogError(
            f"{what}: resolution {resolution} needs {n:.3g} steps over a span "
            f"of {span}; at most {_MAX_STEPS} are allowed"
        )
    return n


def _step_count(name: str, span: float, resolution: float) -> int:
    n = _steps(f"entry {name!r}", span, resolution)
    if abs(n - round(n)) > 1e-9 or round(n) < 2:
        raise CatalogError(
            f"entry {name!r}: resolution {resolution} does not tile a span of {span}"
        )
    return int(round(n))


def _plate_steps(name: str, h: float) -> int:
    """Steps per axis of the square plate at step ``h``; even, so 0 is a breakpoint."""
    n = _step_count(name, 2.0, h)
    if n % 2 != 0:
        raise CatalogError(f"{name}: resolution must place a breakpoint at 0")
    return n


def _plate(
    name: str, h: float, value: Callable[[float, float], float]
) -> tuple[Grid, int, list[float], dict]:
    """Square grid on [-1, 1]^2 at step ``h``, with 0 a breakpoint.

    Returns the grid, its (even) step count ``n`` per axis, the cell
    centres along an axis, and ``value(cx, cy)`` for every cell in
    row-major order.
    """
    n = _plate_steps(name, h)
    axis = Grid.regular(-1.0, 1.0, n)
    centres = [0.5 * (axis[i] + axis[i + 1]) for i in range(n)]
    values = {
        (i, j): value(cx, cy) for i, cx in enumerate(centres) for j, cy in enumerate(centres)
    }
    return Grid(axis, axis), n, centres, values


# ----------------------------------------------------------------------
# checks shared by several entries


def _verdict(ck: _Checks, rep: RigidityReport, expected: Verdict) -> None:
    ck.add(f"verdict-{expected.value.lower()}", rep.verdict is expected, rep.verdict.value)


def _planar(ck: _Checks, p: Profile, expected: Verdict) -> RigidityReport:
    """The planar verdict, which the exhaustive search must agree with."""
    rep = rigidity_verdict_planar(p)
    search = exhaustive_search(p)
    _verdict(ck, rep, expected)
    ck.add("search-agrees", search.verdict is rep.verdict, search.verdict.value)
    return rep


def _equality(ck: _Checks, rep: RigidityReport, p: Profile) -> EqualityCaseReport:
    eq = verify_equality_case(rep.counterexample, p)
    ck.add("equality-case", eq.passed, f"difference={eq.perimeter_check.difference:.3e}")
    return eq


# ----------------------------------------------------------------------
# three-column staircases


def _three_column(values: tuple[float, float, float]) -> Profile:
    grid = Grid((-INF, -1.0, 1.0, INF))
    return Profile(grid, {(0,): values[0], (1,): values[1], (2,): values[2]})


@_entry("fig2-top")
def _fig2_top(ck: _Checks, h: None, seed: int) -> _Built:
    p = _three_column((0.3, 1.0, 0.6))
    rep = _planar(ck, p, Verdict.NONRIGID)
    eq = _equality(ck, rep, p)
    ck.add(
        "properly-between",
        eq.symdiff_check.vs_symmetral > 1e-12 and eq.symdiff_check.vs_reflected > 1e-12,
        f"{eq.symdiff_check.vs_symmetral:.3e}, {eq.symdiff_check.vs_reflected:.3e}",
    )
    gino = check_gino(p)
    ck.add("gino-fails", not gino.overall, f"complement={gino.complement_indecomposable}")
    cert = rep.certificate
    ck.add(
        "witness-outer-columns",
        {cert.minus_cells, cert.plus_cells} == {((0,),), ((2,),)},
        f"minus={cert.minus_cells}",
    )
    return p, rep, {"excess": rep.perimeter_check.difference}


@_entry("fig2-bottom")
def _fig2_bottom(ck: _Checks, h: None, seed: int) -> _Built:
    p = _three_column((0.3, 0.0, 0.6))
    rep = _planar(ck, p, Verdict.NONRIGID)
    _equality(ck, rep, p)
    gino = check_gino(p)
    ck.add(
        "gino-fails-on-set",
        not gino.set_indecomposable and not gino.overall,
        f"set={gino.set_indecomposable}",
    )
    return p, rep, {"excess": rep.perimeter_check.difference}


# ----------------------------------------------------------------------
# 2-D plate with a blocked segment that fails to separate


@_entry("fig3-01", default_resolution=0.25)
def _fig3_01(ck: _Checks, h: float, seed: int) -> _Built:
    grid, n, _, values = _plate("fig3-01", h, lambda cx, cy: 0.5 + 0.25 * cx * cy)
    mid = n // 2
    annotations = [
        SingularAnnotation(
            Facet(axis=1, line=mid, lateral=i), 0.0, max(values[(i, mid - 1)], values[(i, mid)])
        )
        for i in range(mid, n)
    ]
    p = Profile(grid, values, annotations)
    rep = rigidity_verdict(p)
    _verdict(ck, rep, Verdict.RIGID)
    pino = check_pino(p)
    ck.add("pino-passes", pino.overall, f"levels={pino.levels}")
    sc = scene(p)
    blocked = sum(1 for sf in sc.facets if sf.blocked)
    ck.add("segment-blocked", blocked == len(p.annotations), f"{blocked} facets")
    rng = random.Random(seed)
    g = p.g_cells()
    positive = True
    worst = INF
    for _ in range(100):
        minus = {cid for cid in g if rng.random() < 0.5}
        if not minus or len(minus) == len(g):
            continue
        cost = math.fsum(
            _mirror_cost(sf.gauss, sf.wedge, sf.vee)
            for sf in sc.facets
            if (sf.cells[0] in minus) != (sf.cells[1] in minus)
        )
        worst = min(worst, cost)
        if cost <= 1e-9:
            positive = False
    ck.add("random-partitions-pay", positive, f"min cost={worst:.3e}")
    return p, rep, {"g_cells": float(len(g)), "min_partition_cost": worst}


# ----------------------------------------------------------------------
# spike annotation on the edge of G


@_entry("spikes")
def _spikes(ck: _Checks, h: None, seed: int) -> _Built:
    grid = Grid((-INF, -2.0, -1.0, 0.0, 1.0, 2.0, INF))
    values = {(0,): 0.0, (1,): 0.9, (2,): 0.6, (3,): 0.4, (4,): 0.2, (5,): 0.0}
    p = Profile(grid, values, [SingularAnnotation(Facet(0, 1, 0), 0.0, 1.0)])
    rep = _planar(ck, p, Verdict.RIGID)
    gino = check_gino(p)
    ck.add(
        "gino-fails-on-complement",
        gino.set_indecomposable and not gino.complement_indecomposable and not gino.overall,
        f"set={gino.set_indecomposable}, complement={gino.complement_indecomposable}",
    )
    pino = check_pino(p)
    ck.add("pino-passes", pino.overall, f"levels={pino.levels}")
    return p, rep, {}


# ----------------------------------------------------------------------
# tall thin teeth that defeat coarse level restrictions


_MARIA3_LEVELS = (0.25, 0.125, 0.0625, 0.03125)


@_entry("maria3")
def _maria3(ck: _Checks, h: None, seed: int) -> _Built:
    teeth = (0.5, 0.75, 0.5, 0.875, 0.5, 0.9375, 0.5, 0.96875, 0.5)
    grid = Grid(Grid.regular(-2.25, 2.25, len(teeth)))
    p = Profile(grid, {(i,): v for i, v in enumerate(teeth)})
    rep = rigidity_verdict_planar(p)
    _verdict(ck, rep, Verdict.RIGID)
    pino = check_pino(p, levels=_MARIA3_LEVELS)
    ck.add(
        "pino-fails-at-every-declared-level",
        not pino.overall and not any(pino.passed),
        f"passed={pino.passed}",
    )
    auto = check_pino(p)
    ck.add("pino-passes-at-fine-levels", auto.overall, f"levels={auto.levels}")
    gino = check_gino(p)
    ck.add("gino-passes", gino.overall, "")
    return p, rep, {"declared_levels": _MARIA3_LEVELS}


# ----------------------------------------------------------------------
# blocked line with a linear approach to the limits


def _mistico_profile(h: float) -> Profile:
    grid, n, centres, values = _plate(
        "mistico", h, lambda cx, cy: 1.0 - abs(cy) if cx > 0.0 else abs(cy)
    )
    mid = n // 2
    annotations = [
        SingularAnnotation(Facet(1, mid, i), 1.0 - 0.5 * h, 1.0)
        if cx > 0.0
        else SingularAnnotation(Facet(1, mid, i), 0.0, 0.5 * h)
        for i, cx in enumerate(centres)
    ]
    return Profile(grid, values, annotations)


def _mistico_checks(ck: _Checks, p: Profile, rep: RigidityReport) -> None:
    """The witness splits the plate at y = 0, while the model set and its
    complement are each one piece."""
    cert = rep.certificate
    ys = p.grid.axes[1]

    def side_signs(cells) -> set:
        return {0.5 * (ys[j] + ys[j + 1]) > 0.0 for _, j in cells}

    minus_signs = side_signs(cert.minus_cells)
    plus_signs = side_signs(cert.plus_cells)
    ck.add(
        "witness-splits-at-zero",
        len(minus_signs) == 1 and len(plus_signs) == 1 and minus_signs != plus_signs,
        f"minus on top: {minus_signs}",
    )
    grid, inside, _ = p._band(0.0, INF)
    ck.add("set-one-piece", _one_piece(grid, inside), "")
    grid, inside, _ = p._complement_band()
    ck.add("complement-one-piece", _one_piece(grid, inside), "")


@_entry("mistico", default_resolution=0.125)
def _mistico(ck: _Checks, h: float, seed: int) -> _Built:
    p = _mistico_profile(h)
    rep = rigidity_verdict(p)
    _verdict(ck, rep, Verdict.NONRIGID)
    _mistico_checks(ck, p, rep)
    pino = check_pino(p)
    ck.add("pino-fails", not pino.overall, f"passed={pino.passed}")
    excess = rep.perimeter_check.difference
    expected = gamma1(Interval(-1.0, 1.0)) * h
    ck.add(
        "excess-linear-in-resolution",
        abs(excess - expected) <= 1e-9,
        f"excess={excess:.6e}, expected={expected:.6e}",
    )
    return p, rep, {"h": h, "excess": excess}


@_entry("mistico-hyperbola", default_resolution=0.125)
def _mistico_hyperbola(ck: _Checks, h: float, seed: int) -> _Built:
    grid, n, centres, values = _plate(
        "mistico-hyperbola", h, lambda cx, cy: phi((-1.0 if cx > 0.0 else 1.0) / abs(cy))
    )
    mid = n // 2
    annotations = []
    for i, cx in enumerate(centres):
        pair = (values[(i, mid - 1)], values[(i, mid)])
        limits = (min(pair), 1.0) if cx > 0.0 else (0.0, max(pair))
        annotations.append(SingularAnnotation(Facet(1, mid, i), *limits))
    p = Profile(grid, values, annotations)
    rep = rigidity_verdict(p)
    _verdict(ck, rep, Verdict.NONRIGID)
    _mistico_checks(ck, p, rep)
    full = sum(1 for v in values.values() if v == 1.0)
    ck.add("steep-columns-saturate", full > 0, f"{full} cells round to mass 1 at this resolution")
    extras = {"h": h, "excess": rep.perimeter_check.difference, "saturated_cells": float(full)}
    return p, rep, extras


# ----------------------------------------------------------------------
# nested rings with growing boundary


def _ring_profile(rings: int) -> Profile:
    bps: list[float] = [-INF]
    for j in range(rings, 0, -1):
        bps.extend([1.0 / (2 * j + 1), 1.0 / (2 * j)])
    bps.append(INF)
    grid = Grid(tuple(bps))
    values = {}
    for i in range(len(bps) - 1):
        lo, hi = bps[i], bps[i + 1]
        is_ring = not math.isinf(lo) and not math.isinf(hi) and i % 2 == 1
        if is_ring:
            center = 0.5 * (lo + hi)
            values[(i,)] = 0.5 * center * center
        else:
            values[(i,)] = 0.0
    return Profile(grid, values)


@_entry("gperfinito")
def _gperfinito(ck: _Checks, h: None, seed: int) -> _Built:
    rings = [_ring_profile(k) for k in (1, 2, 3)]
    reports = [rigidity_verdict_planar(pk) for pk in rings]
    boundaries = [g_boundary_gauss(pk) for pk in rings]
    ck.add("one-ring-rigid", reports[0].verdict is Verdict.RIGID, reports[0].verdict.value)
    ck.add("two-rings-nonrigid", reports[1].verdict is Verdict.NONRIGID, reports[1].verdict.value)
    ck.add("three-rings-nonrigid", reports[2].verdict is Verdict.NONRIGID, reports[2].verdict.value)
    ck.add(
        "boundary-grows-with-rings",
        boundaries[0] < boundaries[1] < boundaries[2],
        ", ".join(f"{b:.6f}" for b in boundaries),
    )
    p, rep = rings[2], reports[2]
    _equality(ck, rep, p)
    fin = gauss_perimeter(from_profile(p)).total_gauss
    ck.add("perimeter-finite", math.isfinite(fin), f"{fin:.6f}")
    return p, rep, {"boundaries": tuple(boundaries)}


# ----------------------------------------------------------------------
# rasterized snowflake boundary


def koch_snowflake(iterations: int) -> list[tuple[float, float]]:
    """Closed polygon of the snowflake curve after the given refinements.

    Starts from an equilateral triangle of circumradius 1 turned by 0.3
    radians, to keep its vertices and edges off the catalog's dyadic lines.
    """
    pts = [
        (math.cos(a + 0.3), math.sin(a + 0.3))
        for a in (math.pi / 2, math.pi / 2 + 2 * math.pi / 3, math.pi / 2 + 4 * math.pi / 3)
    ]
    for _ in range(iterations):
        nxt: list[tuple[float, float]] = []
        for idx, (px, py) in enumerate(pts):
            qx, qy = pts[(idx + 1) % len(pts)]
            dx, dy = qx - px, qy - py
            tip = (
                px + 0.5 * dx + dy * math.sqrt(3) / 6.0,
                py + 0.5 * dy - dx * math.sqrt(3) / 6.0,
            )
            nxt.extend(
                [
                    (px, py),
                    (px + dx / 3.0, py + dy / 3.0),
                    tip,
                    (px + 2.0 * dx / 3.0, py + 2.0 * dy / 3.0),
                ]
            )
        pts = nxt
    return pts


def _inside_table(polygon: list[tuple[float, float]], lo: float, h: float, n: int) -> list[list[bool]]:
    """Point-in-polygon parity for every cell center, via one horizontal
    sweep per row of centers."""
    m = len(polygon)
    centers = [lo + (k + 0.5) * h for k in range(n)]
    inside = [[False] * n for _ in range(n)]
    for j, cy in enumerate(centers):
        hits: list[float] = []
        for idx in range(m):
            px, py = polygon[idx]
            qx, qy = polygon[(idx + 1) % m]
            if (py > cy) != (qy > cy):
                hits.append(px + (cy - py) * (qx - px) / (qy - py))
        hits.sort()
        for i, cx in enumerate(centers):
            count = len(hits) - bisect.bisect_right(hits, cx)
            inside[i][j] = count % 2 == 1
    return inside


def _koch_profile(iterations: int, h: float) -> Profile:
    n = _step_count("koch", 3.0, h)
    axis = Grid.regular(-1.5, 1.5, n)
    grid = Grid(axis, axis)
    values = {cid: 0.5 for cid in grid.cells()}
    polygon = koch_snowflake(iterations)
    inside = _inside_table(polygon, -1.5, h, n)
    annotations = []
    for i in range(n):
        for j in range(n):
            if i + 1 < n and inside[i][j] != inside[i + 1][j]:
                annotations.append(SingularAnnotation(Facet(0, i + 1, j), 0.0, 0.5))
            if j + 1 < n and inside[i][j] != inside[i][j + 1]:
                annotations.append(SingularAnnotation(Facet(1, j + 1, i), 0.0, 0.5))
    return Profile(grid, values, annotations)


@_entry("koch", default_resolution=0.125)
def _koch(ck: _Checks, h: float, seed: int) -> _Built:
    p = _koch_profile(2, h)
    rep = rigidity_verdict(p)
    _verdict(ck, rep, Verdict.NONRIGID)
    cert = rep.certificate
    n = p.grid.shape[0]
    origin_cell = (n // 2, n // 2)
    corner_cell = (0, 0)
    sides = {cid: "minus" for cid in cert.minus_cells}
    sides.update({cid: "plus" for cid in cert.plus_cells})
    ck.add(
        "inside-split-from-outside",
        sides.get(origin_cell) is not None
        and sides.get(corner_cell) is not None
        and sides[origin_cell] != sides[corner_cell],
        f"origin={sides.get(origin_cell)}, corner={sides.get(corner_cell)}",
    )
    coarse = _koch_profile(1, h)
    ck.add(
        "finer-curve-crosses-more",
        len(p.annotations) > len(coarse.annotations),
        f"{len(coarse.annotations)} -> {len(p.annotations)}",
    )
    return p, rep, {"h": h, "annotated_facets": float(len(p.annotations))}


# ----------------------------------------------------------------------
# registry and sweeps


def catalog_names() -> list[str]:
    return sorted(_ENTRIES)


def run_entry(name: str, resolution: Optional[float] = None, seed: int = 0) -> CatalogResult:
    if name not in _ENTRIES:
        raise CatalogError(
            f"unknown catalog entry {name!r}; known: {', '.join(catalog_names())}"
        )
    return _ENTRIES[name](resolution, seed)


@dataclass(frozen=True)
class SweepRow:
    h: float
    p_gamma_f: float
    p_gamma_e: float
    excess: float


@dataclass(frozen=True)
class SweepResult:
    family: str
    rows: tuple[SweepRow, ...]
    checks: tuple[CatalogCheck, ...]

    @property
    def passed(self) -> bool:
        return all(c.ok for c in self.checks)

    def csv(self) -> str:
        lines = ["h,p_gamma_f,p_gamma_e,excess"]
        for r in self.rows:
            lines.append(f"{r.h!r},{r.p_gamma_f!r},{r.p_gamma_e!r},{r.excess!r}")
        return "\n".join(lines) + "\n"


def _sweep_rows(profiles: list[tuple[float, Profile]]) -> tuple[list[SweepRow], list[RigidityReport]]:
    rows = []
    reports = []
    for h, p in profiles:
        rep = rigidity_verdict(p)
        if rep.perimeter_check is not None:
            pe, pf = rep.perimeter_check.candidate, rep.perimeter_check.symmetral
        else:
            pe = pf = gauss_perimeter(from_profile(p)).total_gauss
        rows.append(SweepRow(h=h, p_gamma_f=pf, p_gamma_e=pe, excess=pe - pf))
        reports.append(rep)
    return rows, reports


def sweep(family: str, resolutions: Optional[list[float]] = None) -> SweepResult:
    """Resolution sweep over a parameterized family.

    Families: ``mistico`` (grid steps; the mirror excess must decrease
    strictly), ``unannotated`` (grid steps over a staircase with no
    annotations; the excess must stay below 1e-10), and ``koch`` (the h
    column carries the curve iteration index at a fixed 1/32 grid; every
    iteration must stay non-rigid). Every resolution is checked before
    the first profile is built: a step that is not positive, one past
    :data:`_MAX_STEPS`, a mistico step that does not tile the plate, or a
    koch iteration outside 0..:data:`_MAX_KOCH_ITERATIONS` raises
    :class:`CatalogError`.
    """
    ck = _Checks()
    if family == "mistico":
        hs = resolutions or [1 / 8, 1 / 16, 1 / 32, 1 / 64]
        for h in hs:
            _plate_steps("mistico", h)
        rows, reports = _sweep_rows([(h, _mistico_profile(h)) for h in hs])
        ck.add("all-nonrigid", all(r.verdict is Verdict.NONRIGID for r in reports))
        decreasing = all(a.excess > b.excess for a, b in zip(rows, rows[1:]))
        ck.add("excess-strictly-decreasing", decreasing)
    elif family == "unannotated":
        hs = resolutions or [1 / 2, 1 / 4, 1 / 8, 1 / 16]
        for h in hs:
            _steps("sweep family 'unannotated'", 2.0, h)  # refined splits the cell (-1, 1)
        base = _three_column((0.3, 1.0, 0.6))
        rows, reports = _sweep_rows([(h, base.refined(h)) for h in hs])
        ck.add(
            "excess-stays-numerically-zero",
            all(abs(r.excess) <= 1e-10 for r in rows),
            ", ".join(f"{r.excess:.2e}" for r in rows),
        )
    elif family == "koch":
        iterations = resolutions or [0, 1, 2, 3, 4]
        for x in iterations:
            if x not in range(_MAX_KOCH_ITERATIONS + 1):
                raise CatalogError(
                    f"sweep family 'koch': iteration {x!r} must be an integer "
                    f"from 0 to {_MAX_KOCH_ITERATIONS}"
                )
        iterations = [int(x) for x in iterations]
        rows, reports = _sweep_rows([(float(j), _koch_profile(j, 1 / 32)) for j in iterations])
        ck.add("all-nonrigid", all(r.verdict is Verdict.NONRIGID for r in reports))
    else:
        raise CatalogError(
            f"unknown sweep family {family!r}; known: koch, mistico, unannotated"
        )
    return SweepResult(family=family, rows=tuple(rows), checks=tuple(ck))
