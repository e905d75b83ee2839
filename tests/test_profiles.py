import itertools
import json
import math
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from ehrhard import (
    Facet,
    Grid,
    IntervalSet,
    Profile,
    ProfileError,
    Scene,
    SingularAnnotation,
    approx_limits,
    distribution,
    f_limits,
    from_profile,
    g_boundary_gauss,
    gauss_perimeter,
    gauss_volume,
    jump_interfaces,
    psi,
    rigidity_verdict,
    scene,
)
import ehrhard
from ehrhard.connectedness import complement_indecomposable
from ehrhard.jsonio import _dumps
from conftest import (
    complement_one_piece,
    random_annotated,
    random_profile_1d,
    random_profile_2d,
    reference_g_boundary,
    reference_jumps,
    reference_on_grid,
    reference_refined_axis,
)

INF = math.inf

THREE = Grid((-INF, -1.0, 1.0, INF))


def three_column(a, b, c, annotations=()):
    return Profile(THREE, {(0,): a, (1,): b, (2,): c}, annotations)


class TestAnnotation:
    def test_validation(self):
        with pytest.raises(ProfileError):
            SingularAnnotation(Facet(0, 1, 0), 0.6, 0.4)
        with pytest.raises(ProfileError):
            SingularAnnotation(Facet(0, 1, 0), -0.1, 0.5)
        with pytest.raises(ProfileError):
            SingularAnnotation(Facet(0, 1, 0), 0.0, 1.5)
        with pytest.raises(ProfileError):
            SingularAnnotation(Facet(0, 1, 0), float("nan"), 0.5)

    def test_coercion(self):
        a = SingularAnnotation(Facet(0, 1, 0), 0, 1)
        assert a.wedge == 0.0 and a.vee == 1.0


class TestProfileConstruction:
    def test_requires_every_cell(self):
        with pytest.raises(ProfileError):
            Profile(THREE, {(0,): 0.5, (1,): 0.5})

    def test_rejects_alien_cells(self):
        with pytest.raises(ProfileError):
            Profile(THREE, {(0,): 0.5, (1,): 0.5, (2,): 0.5, (3,): 0.5})

    def test_rejects_out_of_range(self):
        for bad in (-0.1, 1.1, float("nan")):
            with pytest.raises(ProfileError):
                three_column(bad, 0.5, 0.5)

    def test_rejects_non_annotation(self):
        with pytest.raises(ProfileError):
            three_column(0.5, 0.5, 0.5, annotations=[(0, 1, 0)])

    def test_rejects_boundary_annotation(self):
        g = Grid((0.0, 1.0, 2.0))
        ann = SingularAnnotation(Facet(0, 0, 0), 0.0, 0.5)
        with pytest.raises(ProfileError):
            Profile(g, {(0,): 0.5, (1,): 0.5}, [ann])

    def test_rejects_duplicate_annotation(self):
        anns = [
            SingularAnnotation(Facet(0, 1, 0), 0.0, 0.5),
            SingularAnnotation(Facet(0, 1, 0), 0.1, 0.5),
        ]
        with pytest.raises(ProfileError):
            three_column(0.5, 0.5, 0.5, annotations=anns)

    def test_annotations_sorted(self):
        anns = [
            SingularAnnotation(Facet(0, 2, 0), 0.1, 0.2),
            SingularAnnotation(Facet(0, 1, 0), 0.3, 0.4),
        ]
        p = three_column(0.5, 0.5, 0.5, annotations=anns)
        assert [a.facet for a in p.annotations] == [Facet(0, 1, 0), Facet(0, 2, 0)]
        assert p.annotation(Facet(0, 1, 0)).vee == 0.4
        assert p.annotation(Facet(0, 2, 0)).wedge == 0.1

    def test_value_accessor(self):
        p = three_column(0.3, 1.0, 0.6)
        assert p.value((1,)) == 1.0
        with pytest.raises(ProfileError):
            p.value((5,))

    def test_g_cells(self):
        assert three_column(0.3, 1.0, 0.6).g_cells() == [(0,), (2,)]
        assert three_column(0.0, 0.0, 0.0).g_cells() == []

    def test_equality(self):
        assert three_column(0.3, 1.0, 0.6) == three_column(0.3, 1.0, 0.6)
        assert three_column(0.3, 1.0, 0.6) != three_column(0.3, 0.0, 0.6)
        assert three_column(0.3, 1.0, 0.6) != "not a profile"


def inner_point(axis):
    """A coordinate strictly inside the first cell of a breakpoint axis."""
    a, b = axis[0], axis[1]
    if math.isinf(a):
        return b - 0.5
    if math.isinf(b):
        return a + 0.5
    return 0.5 * (a + b)


def split_parents(cells, axis, i):
    """The cells of a split inside cell ``i`` of ``axis`` as the cells they
    came from: those after the cut shift down by one along the axis."""
    return {c[:axis] + (c[axis] - (c[axis] > i),) + c[axis + 1 :] for c in cells}


class TestSplitAndRefine:
    def test_g_cells_in_lexicographic_order(self):
        rng = random.Random(71)
        for _ in range(40):
            p = random_profile_2d(rng)
            xs, ys = p.grid.axes
            for q in (p, p.split_cell(0, inner_point(xs)), p.split_cell(1, inner_point(ys)),
                      p.refined(0.5), random_profile_1d(rng).refined(0.25)):
                g = q.g_cells()
                assert g == sorted(g)
                assert g == [c for c in q.grid.cells() if 0.0 < q.value(c) < 1.0]

    def test_split_copies_values(self):
        p = three_column(0.3, 1.0, 0.6)
        q = p.split_cell(0, 0.0)
        assert q.grid.axes[0] == (-INF, -1.0, 0.0, 1.0, INF)
        assert [q.value((i,)) for i in range(4)] == [0.3, 1.0, 1.0, 0.6]

    def test_split_at_existing_breakpoint_is_identity(self):
        p = three_column(0.3, 1.0, 0.6)
        assert p.split_cell(0, 1.0) is p

    def test_split_outside_span_rejected(self):
        p = Profile(Grid((0.0, 1.0)), {(0,): 0.5})
        with pytest.raises(ProfileError):
            p.split_cell(0, 2.0)

    def test_split_reindexes_annotations(self):
        ann = SingularAnnotation(Facet(0, 2, 0), 0.0, 0.5)
        p = three_column(0.3, 1.0, 0.6, annotations=[ann])
        q = p.split_cell(0, 0.0)
        assert [a.facet for a in q.annotations] == [Facet(0, 3, 0)]
        r = p.split_cell(0, 1.5)
        assert [a.facet for a in r.annotations] == [Facet(0, 2, 0)]

    def test_split_duplicates_lateral_annotation(self):
        g = Grid((0.0, 1.0, 2.0), (0.0, 1.0))
        vals = {(0, 0): 0.4, (1, 0): 0.6}
        ann = SingularAnnotation(Facet(0, 1, 0), 0.0, 0.4)
        p = Profile(g, vals, [ann])
        q = p.split_cell(1, 0.5)
        assert [a.facet for a in q.annotations] == [Facet(0, 1, 0), Facet(0, 1, 1)]

    def test_split_axis_outside_the_base_rejected(self):
        grid = Grid((-INF, 0.0, 1.0, 2.0, INF))
        anns = [SingularAnnotation(Facet(0, 3, 0), 0.2, 0.6)]
        line = Profile(grid, dict.fromkeys(grid.cells(), 0.5), anns)
        # a split inside cell 1 moves the annotation at 2.0 from line 3 to 4
        assert [a.facet for a in line.split_cell(0, 0.5).annotations] == [Facet(0, 4, 0)]
        grid = Grid((0.0, 1.0, 2.0), (0.0, 1.0, 2.0))
        anns = [SingularAnnotation(Facet(1, 1, 0), 0.2, 0.6)]
        square = Profile(grid, dict.fromkeys(grid.cells(), 0.5), anns)
        for p in (line, square):
            for axis in (-1, p.grid.base_dim):
                with pytest.raises(ProfileError, match="axis"):
                    p.split_cell(axis, 0.5)

    def test_split_on_each_axis_keeps_the_verdict(self):
        rng = random.Random(72)
        for k in range(120):
            base = random_profile_1d(rng, max_cells=8) if k % 2 else random_profile_2d(rng)
            p = random_annotated(rng, base, p_annotate=0.5)
            want = rigidity_verdict(p)
            for axis, bps in enumerate(p.grid.axes):
                i = rng.randrange(len(bps) - 1)
                coordinate = inner_point(bps[i : i + 2])
                got = rigidity_verdict(p.split_cell(axis, coordinate))
                assert got.verdict is want.verdict, (p, axis, coordinate)
                if want.certificate is not None:
                    for side in ("minus_cells", "plus_cells"):
                        cells = getattr(got.certificate, side)
                        assert split_parents(cells, axis, i) == set(getattr(want.certificate, side))

    def test_split_is_a_null_modification(self):
        p = three_column(0.3, 1.0, 0.6)
        q = p.split_cell(0, 0.25)
        assert gauss_volume(from_profile(q)) == pytest.approx(
            gauss_volume(from_profile(p)), abs=1e-14
        )
        assert gauss_perimeter(from_profile(q)).total_gauss == pytest.approx(
            gauss_perimeter(from_profile(p)).total_gauss, rel=1e-12
        )
        assert len(jump_interfaces(q)) == len(jump_interfaces(p))

    def test_refined(self):
        p = Profile(Grid((-INF, -1.0, 1.0, INF)), {(0,): 0.2, (1,): 0.5, (2,): 0.8})
        q = p.refined(0.5)
        widths = [
            b - a
            for a, b in zip(q.grid.axes[0], q.grid.axes[0][1:])
            if not math.isinf(a) and not math.isinf(b)
        ]
        assert all(w <= 0.5 + 1e-12 for w in widths)
        assert q.value((0,)) == 0.2 and q.value((q.grid.shape[0] - 1,)) == 0.8

    def test_refined_rejects_bad_width(self):
        with pytest.raises(ProfileError):
            three_column(0.3, 1.0, 0.6).refined(0.0)

    @staticmethod
    def annotated(rng, k):
        base = random_profile_1d(rng, max_cells=8) if k % 2 else random_profile_2d(rng)
        return random_annotated(rng, base, p_annotate=0.5)

    def test_split_matches_the_coordinates(self):
        rng = random.Random(73)
        for k in range(80):
            p = self.annotated(rng, k)
            for axis, bps in enumerate(p.grid.axes):
                i = rng.randrange(len(bps) - 1)
                q = p.split_cell(axis, inner_point(bps[i : i + 2]))
                assert q == reference_on_grid(p, q.grid), (p, axis, i)

    def test_refined_matches_the_coordinates(self):
        rng = random.Random(74)
        for k in range(80):
            p = self.annotated(rng, k)
            width = rng.choice((0.4, 0.9, 2.0))
            q = p.refined(width)
            assert q.grid.axes == tuple(reference_refined_axis(bps, width) for bps in p.grid.axes)
            assert q == reference_on_grid(p, q.grid), (p, width)

    def test_refined_adding_nothing_is_identity(self):
        rng = random.Random(75)
        for k in range(20):
            p = self.annotated(rng, k)
            assert p.refined(7.0) is p
        open_ended = Profile(Grid((-INF, 0.0, INF)), {(0,): 0.2, (1,): 0.7})
        assert open_ended.refined(1e-9) is open_ended

    @pytest.mark.parametrize(
        "axis, width",
        [
            ("(1.0, 1.0 + 4 * 2**-52)", 1e-300),  # the midpoint rounds to an end
            ("(1e308, 1.5e308)", 1e307),  # a + b overflows
        ],
    )
    def test_refined_refuses_a_side_floats_cannot_halve(self, axis, width):
        # in a child process with a deadline, so a refined that never returns fails
        code = (
            "from ehrhard import Grid, Profile, ProfileError\n"
            f"try:\n    Profile(Grid({axis}), {{(0,): 0.5}}).refined({width!r})\n"
            "except ProfileError as exc:\n    print(exc)\n"
        )
        src = str(Path(ehrhard.__file__).resolve().parents[1])
        run = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True,
            text=True,
            timeout=30,
            env={**os.environ, "PYTHONPATH": src, "PYTHONDONTWRITEBYTECODE": "1"},
        )
        assert run.returncode == 0, run.stderr
        assert "cannot be halved" in run.stdout


class TestLimits:
    def test_exactly_one_locus(self):
        p = three_column(0.3, 1.0, 0.6)
        with pytest.raises(ProfileError):
            approx_limits(p)
        with pytest.raises(ProfileError):
            approx_limits(p, cell=(0,), facet=Facet(0, 1, 0))

    def test_cell_limits(self):
        p = three_column(0.3, 1.0, 0.6)
        assert approx_limits(p, cell=(0,)) == (0.3, 0.3)

    def test_facet_limits(self):
        p = three_column(0.3, 1.0, 0.6)
        assert approx_limits(p, facet=Facet(0, 1, 0)) == (0.3, 1.0)
        assert approx_limits(p, facet=Facet(0, 2, 0)) == (0.6, 1.0)

    def test_exterior_counts_as_zero(self):
        g = Grid((0.0, 1.0))
        p = Profile(g, {(0,): 0.7})
        assert approx_limits(p, facet=Facet(0, 0, 0)) == (0.0, 0.7)
        assert approx_limits(p, facet=Facet(0, 1, 0)) == (0.0, 0.7)

    def test_annotation_overrides(self):
        ann = SingularAnnotation(Facet(0, 1, 0), 0.0, 0.9)
        p = three_column(0.3, 1.0, 0.6, annotations=[ann])
        assert approx_limits(p, facet=Facet(0, 1, 0)) == (0.0, 0.9)

    def test_vertex_limits(self):
        g = Grid((0.0, 1.0, 2.0), (0.0, 1.0, 2.0))
        vals = {(i, j): 0.125 + 0.25 * (i + 2 * j) for i in range(2) for j in range(2)}
        p = Profile(g, vals)
        assert approx_limits(p, vertex=(1, 1)) == (0.125, 0.875)
        assert approx_limits(p, vertex=(0, 0)) == (0.125, 0.125)
        with pytest.raises(ProfileError):
            approx_limits(p, vertex=(5, 5))

    def test_vertex_needs_planar_base(self):
        with pytest.raises(ProfileError):
            approx_limits(three_column(0.3, 1.0, 0.6), vertex=(1, 1))

    def test_f_limits_swap_and_negate(self):
        p = three_column(0.3, 1.0, 0.6)
        lo, hi = f_limits(p, Facet(0, 1, 0))
        assert lo == psi(1.0) == -INF
        assert hi == psi(0.3)
        g = Grid((0.0, 1.0))
        q = Profile(g, {(0,): 0.0})
        assert f_limits(q, Facet(0, 0, 0)) == (INF, INF)


class TestJumpInterfaces:
    def test_exterior_jumps_included(self):
        p = Profile(Grid((0.0, 1.0)), {(0,): 0.7})
        jumps = jump_interfaces(p)
        assert [j.facet for j in jumps] == [Facet(0, 0, 0), Facet(0, 1, 0)]
        assert jumps[0].toward_upper and not jumps[1].toward_upper

    def test_equal_values_do_not_jump(self):
        p = three_column(0.5, 0.5, 0.5)
        assert jump_interfaces(p) == []

    def test_annotation_can_create_and_suppress_jumps(self):
        create = SingularAnnotation(Facet(0, 1, 0), 0.2, 0.8)
        p = three_column(0.5, 0.5, 0.5, annotations=[create])
        assert [j.facet for j in jump_interfaces(p)] == [Facet(0, 1, 0)]
        suppress = SingularAnnotation(Facet(0, 1, 0), 0.65, 0.65)
        q = three_column(0.3, 1.0, 0.6, annotations=[suppress])
        assert Facet(0, 1, 0) not in [j.facet for j in jump_interfaces(q)]

    def test_orientation(self):
        p = three_column(0.3, 1.0, 0.6)
        by_facet = {j.facet: j for j in jump_interfaces(p)}
        assert by_facet[Facet(0, 1, 0)].toward_upper is True
        assert by_facet[Facet(0, 2, 0)].toward_upper is False


class TestFacetWalks:
    """The walks behind jump_interfaces and g_boundary_gauss equal the
    per-facet public queries, on grids with finite and infinite ends."""

    @pytest.mark.parametrize("base_dim", [1, 2])
    def test_match_per_facet_reference(self, base_dim):
        rng = random.Random(61 + base_dim)
        make = random_profile_1d if base_dim == 1 else random_profile_2d
        for _ in range(1500):
            p = random_annotated(rng, make(rng))
            assert repr(jump_interfaces(p)) == repr(reference_jumps(p)), p
            assert repr(g_boundary_gauss(p)) == repr(reference_g_boundary(p)), p


class TestScene:
    def test_kind_validation(self):
        with pytest.raises(ProfileError):
            scene(three_column(0.3, 1.0, 0.6), kind="other")
        # the constructor checks the kind, so a directly built scene fails too
        p = three_column(0.3, 1.0, 0.6)
        with pytest.raises(ProfileError, match="unknown scene kind 'bogus'"):
            scene(p, "bogus")
        with pytest.raises(ProfileError, match="unknown scene kind 'bogus'"):
            Scene("bogus", p.grid.base_dim, p)

    def test_g_membership(self):
        p = three_column(0.3, 1.0, 0.0)
        s = scene(p)
        flags = {c.id: c.in_g for c in s.cells}
        assert flags == {(0,): True, (1,): False, (2,): False}
        st = scene(p, kind="steiner")
        flags = {c.id: c.in_g for c in st.cells}
        assert flags == {(0,): True, (1,): True, (2,): False}

    def test_only_interior_g_to_g_facets(self):
        p = three_column(0.3, 1.0, 0.6)
        assert scene(p).facets == ()
        q = three_column(0.3, 0.5, 0.6)
        assert [f.facet for f in scene(q).facets] == [Facet(0, 1, 0), Facet(0, 2, 0)]

    def test_blocked_flags(self):
        pinch = SingularAnnotation(Facet(0, 1, 0), 0.0, 0.5)
        bulge = SingularAnnotation(Facet(0, 2, 0), 0.6, 1.0)
        p = three_column(0.3, 0.5, 0.6, annotations=[pinch, bulge])
        by_facet = {f.facet: f for f in scene(p).facets}
        assert by_facet[Facet(0, 1, 0)].blocked
        assert by_facet[Facet(0, 2, 0)].blocked
        st = {f.facet: f for f in scene(p, kind="steiner").facets}
        assert st[Facet(0, 1, 0)].blocked
        assert not st[Facet(0, 2, 0)].blocked

    def test_annotated_flag_and_measures(self):
        ann = SingularAnnotation(Facet(0, 1, 0), 0.3, 0.5)
        p = three_column(0.3, 0.5, 0.6, annotations=[ann])
        s = scene(p)
        by_facet = {f.facet: f for f in s.facets}
        assert by_facet[Facet(0, 1, 0)].annotated
        assert not by_facet[Facet(0, 2, 0)].annotated
        assert by_facet[Facet(0, 1, 0)].gauss == pytest.approx(math.exp(-0.5))
        cell = next(c for c in s.cells if c.id == (1,))
        assert cell.gauss == pytest.approx(0.6826894921370859, rel=1e-15)


    def test_equal_profiles_give_equal_scenes(self):
        a, b = (
            Profile(
                Grid((-INF, -1.0, 1.0, INF)),
                {(0,): 0.3, (1,): 0.5, (2,): 0.6},
                [SingularAnnotation(Facet(0, 1, 0), 0.0, 0.5)],
            )
            for _ in range(2)
        )
        assert a == b and a is not b
        assert scene(a) == scene(b)
        assert hash(scene(a)) == hash(scene(b))
        assert scene(a) != scene(a, kind="steiner")

    def test_profile_stays_out_of_repr_and_json(self):
        p = three_column(0.3, 0.5, 0.6)
        s = scene(p)
        assert "Profile" not in repr(s) and "_profile" not in repr(s)
        assert set(json.loads(_dumps(s))) == {"kind", "base_dim", "cells", "facets"}

    def test_facets_follow_interior_adjacency(self):
        rng = random.Random(19)
        for _ in range(40):
            base = random_profile_2d(rng) if rng.random() < 0.5 else random_profile_1d(rng)
            p = random_annotated(rng, base)
            for kind in ("ehrhard", "steiner"):
                s = scene(p, kind)
                assert [c.id for c in s.cells] == list(p.grid.cells())
                in_g = {c.id: c.in_g for c in s.cells}
                want = []
                for f in p.grid.facets(interior_only=True):
                    lo, hi = p.grid.facet_cells(f)
                    if in_g[lo] and in_g[hi]:
                        want.append((f, (lo, hi), p.grid.facet_gauss(f)))
                assert [(sf.facet, sf.cells, sf.gauss) for sf in s.facets] == want


class TestModelSets:
    def test_from_profile_extremes_exact(self):
        p = three_column(0.0, 1.0, 0.5)
        e = from_profile(p)
        assert e.section((0,)).is_empty
        assert e.section((1,)) == IntervalSet.line()
        assert e.section((2,)) == IntervalSet.above(0.0)

    def test_distribution_round_trip(self):
        rng = random.Random(25)
        for _ in range(25):
            p = random_profile_1d(rng)
            d = distribution(from_profile(p))
            for cid, v in p.values.items():
                assert d.value(cid) == pytest.approx(v, abs=1e-12)

    def test_distribution_clamps_overshoot(self):
        e = from_profile(three_column(0.0, 1.0, 0.5))
        assert distribution(e).value((1,)) == 1.0


def end_variants(inner):
    """The axis over ``inner`` breakpoints with each end finite or infinite."""
    lo, hi = inner[0] - 1.0, inner[-1] + 1.0
    return [(a, *inner, b) for a in (-INF, lo) for b in (INF, hi)]


def outer_facets(grid):
    """Facets on lines 0 and n of every axis, on each lateral cell; those
    on an infinite line are not facets of the grid and must be ignored."""
    out = []
    for axis, bps in enumerate(grid.axes):
        lats = range(grid.shape[1 - axis]) if grid.base_dim == 2 else [0]
        out += [Facet(axis, line, lat) for line in (0, len(bps) - 1) for lat in lats]
    return out


class TestPaddedComplement:
    """Profile._complement_band pads the profile's rows with 0.0 cells on the
    extended grid; the generic complement of the model set is the oracle,
    for every combination of finite and infinite ends."""

    def check(self, grid, values_pool):
        outer = outer_facets(grid)
        cuts = [
            (),
            [f for f in outer if f.line == 0],
            [f for f in outer if f.line != 0],
            outer[:1],
            outer[-1:],
        ]
        for values in itertools.product(values_pool, repeat=len(list(grid.cells()))):
            p = Profile(grid, dict(zip(grid.cells(), values)))
            model = from_profile(p)
            for severed in cuts:
                want = complement_indecomposable(model, severed)
                assert complement_one_piece(p, severed) == want, (grid.axes, values, severed)

    @pytest.mark.parametrize("axis", end_variants((-1.0, 0.0, 1.0)))
    def test_line(self, axis):
        self.check(Grid(axis), (0.0, 0.5, 1.0))

    @pytest.mark.parametrize("axis0", end_variants((0.0,)))
    @pytest.mark.parametrize("axis1", end_variants((-1.0, 1.0)))
    def test_plane(self, axis0, axis1):
        # 0.0 and 0.5 are both below 1, so the complement reads them alike
        self.check(Grid(axis0, axis1), (0.0, 1.0))


class TestGBoundary:
    def test_three_column_boundary(self):
        p = three_column(0.3, 1.0, 0.6)
        assert g_boundary_gauss(p) == pytest.approx(2.0 * math.exp(-0.5), rel=1e-14)

    def test_no_g_no_boundary(self):
        assert g_boundary_gauss(three_column(0.0, 1.0, 0.0)) == 0.0

    def test_grid_edge_counts(self):
        p = Profile(Grid((0.0, 1.0, 2.0)), {(0,): 0.5, (1,): 0.0})
        want = math.exp(0.0) + math.exp(-0.5)
        assert g_boundary_gauss(p) == pytest.approx(want, rel=1e-14)
