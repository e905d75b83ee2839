"""The 2-D heatmap against its cell-by-cell restatement, byte for byte."""

import math
import random

from ehrhard import (
    ColumnarSet,
    Grid,
    IntervalSet,
    Profile,
    from_profile,
    gamma1,
    rigidity_verdict,
    scene,
)
from ehrhard.render import _FILL_MINUS, render_columnar, render_profile
from conftest import (
    random_annotated,
    random_breakpoints,
    random_profile_2d,
    random_value,
    reference_heatmap,
)

INF = math.inf
ACROSS = Grid((-INF, -6.0, -4.5, -1.0, 4.0, 5.0, INF), (-INF, -4.0, 0.5, 4.0, 7.0, INF))


def reference_profile_svg(p: Profile, minus=()) -> str:
    blocked = [f.facet for f in scene(p).facets if f.blocked]
    return reference_heatmap(p.grid, p.values, blocked, set(minus), "profile (base scene)")


def reference_columnar_svg(e: ColumnarSet, minus=()) -> str:
    masses = {cid: gamma1(e.section(cid)) for cid in e.grid.cells()}
    return reference_heatmap(e.grid, masses, [], set(minus), "columnar set (base scene)")


def wide_profiles(rng: random.Random, count: int) -> list[Profile]:
    """2-D profiles on grids reaching past the [-4, 4] window, often to
    infinity, so whole columns and rows fall outside it."""
    out = []
    for _ in range(count):
        grid = Grid(
            random_breakpoints(rng, 5, lo=-7.0, hi=7.0, p_inf=0.5),
            random_breakpoints(rng, 5, lo=-7.0, hi=7.0, p_inf=0.5),
        )
        p = Profile(grid, {cid: random_value(rng) for cid in grid.cells()})
        out.append(random_annotated(rng, p))
    return out


def family_profiles() -> list[Profile]:
    rng = random.Random(61)
    plain = [random_profile_2d(rng) for _ in range(80)]
    annotated = [random_annotated(rng, random_profile_2d(rng)) for _ in range(80)]
    edge = [
        # every column and row meets the window only at a line or not at all
        Profile(Grid((-INF, -4.0), (4.0, INF)), {(0, 0): 0.5}),
        Profile(Grid((5.0, 6.0, 7.0), (-9.0, -5.0)), {(0, 0): 0.25, (1, 0): 1.0}),
        # columns and rows on both sides of the window and across it
        Profile(ACROSS, {cid: (0.1 * (cid[0] + 2 * cid[1])) % 1.0 for cid in ACROSS.cells()}),
    ]
    return plain + annotated + wide_profiles(rng, 80) + edge


class TestHeatmap:
    def test_profile_matches_reference(self):
        for p in family_profiles():
            assert render_profile(p) == reference_profile_svg(p)

    def test_nonrigid_report_tints_minus_cells(self):
        tinted = 0
        for p in family_profiles():
            report = rigidity_verdict(p)
            if report.rigid:
                continue
            minus = report.certificate.minus_cells
            svg = render_profile(p, report)
            assert svg == reference_profile_svg(p, minus)
            tinted += _FILL_MINUS in svg
        assert tinted > 20

    def test_columnar_matches_reference(self):
        tinted = 0
        for p in family_profiles():
            report = rigidity_verdict(p)
            e = from_profile(p) if report.rigid else report.counterexample
            minus = () if report.rigid else report.certificate.minus_cells
            svg = render_columnar(e, minus_cells=minus)
            assert svg == reference_columnar_svg(e, minus)
            tinted += _FILL_MINUS in svg
        assert tinted > 20

    def test_columnar_cells_off_the_grid_draw_no_tint(self):
        grid = Grid((-1.0, 0.0, 1.0), (-INF, 0.0, INF))
        e = ColumnarSet(grid, {(0, 1): IntervalSet.above(0.3), (1, 0): IntervalSet.line()})
        minus = [(0, 1), (0, 2), (2, 0), (-1, 0)]
        svg = render_columnar(e, minus_cells=minus)
        assert svg == reference_columnar_svg(e, minus)
        assert svg.count(_FILL_MINUS) == 1

    def test_window_edges_draw_no_cell(self):
        for p in family_profiles()[-3:-1]:
            assert "fill-opacity" not in render_profile(p)
