import math
import random
from operator import and_, ne

import pytest
from hypothesis import given
from hypothesis import strategies as st

from ehrhard import Facet, Grid, GridError, gamma1, gauss_weight, phi
from ehrhard.intervals import Interval
from conftest import random_breakpoints

INF = math.inf


class TestConstruction:
    def test_accepts_one_or_two_axes(self):
        assert Grid((-INF, 0.0, INF)).base_dim == 1
        assert Grid((-INF, 0.0, INF), (0.0, 1.0)).base_dim == 2

    def test_rejects_zero_or_three_axes(self):
        with pytest.raises(GridError):
            Grid()
        with pytest.raises(GridError):
            Grid((0.0, 1.0), (0.0, 1.0), (0.0, 1.0))

    def test_rejects_short_axis(self):
        with pytest.raises(GridError):
            Grid((0.0,))

    def test_rejects_nan(self):
        with pytest.raises(GridError):
            Grid((0.0, float("nan"), 1.0))

    def test_rejects_unsorted(self):
        with pytest.raises(GridError):
            Grid((0.0, 2.0, 1.0))
        with pytest.raises(GridError):
            Grid((0.0, 0.0, 1.0))

    def test_rejects_interior_infinity(self):
        with pytest.raises(GridError):
            Grid((0.0, INF, 1.0))
        with pytest.raises(GridError):
            Grid((-INF, -INF, 1.0))

    def test_shape_and_axes(self):
        g = Grid((-INF, -1.0, 1.0, INF), (0.0, 0.5, 1.0))
        assert g.shape == (3, 2)
        assert g.axes == ((-INF, -1.0, 1.0, INF), (0.0, 0.5, 1.0))

    def test_equality_and_hash(self):
        a = Grid((-INF, 0.0, INF))
        b = Grid((-INF, 0.0, INF))
        c = Grid((-INF, 1.0, INF))
        assert a == b and hash(a) == hash(b)
        assert a != c
        assert a != "not a grid"

    def test_regular_axis(self):
        bps = Grid.regular(-2.0, 2.0, 4)
        assert bps == (-2.0, -1.0, 0.0, 1.0, 2.0)
        assert bps[0] == -2.0 and bps[-1] == 2.0

    def test_regular_rejects_empty(self):
        with pytest.raises(GridError):
            Grid.regular(0.0, 1.0, 0)


class TestCells:
    def test_enumeration_order(self):
        g1 = Grid((-INF, 0.0, 1.0, INF))
        assert list(g1.cells()) == [(0,), (1,), (2,)]
        g2 = Grid((0.0, 1.0, 2.0), (0.0, 1.0))
        assert list(g2.cells()) == [(0, 0), (1, 0)]

    def test_check_cell(self):
        g = Grid((-INF, 0.0, INF))
        assert g.check_cell((1,)) == (1,)
        for bad in [(2,), (-1,), (0, 0)]:
            with pytest.raises(GridError):
                g.check_cell(bad)

    def test_cell_gauss_matches_interval_mass(self):
        g = Grid((-INF, -1.0, 1.0, INF))
        assert g.cell_gauss((1,)) == pytest.approx(0.6826894921370859, rel=1e-15)
        assert g.cell_gauss((0,)) == g.cell_gauss((2,))

    def test_cell_gauss_product_rule(self):
        g = Grid((-INF, 0.0, INF), (-INF, 0.0, INF))
        assert g.cell_gauss((0, 1)) == 0.25

    def test_cell_masses_fill_the_line(self):
        g = Grid((-INF, -1.5, -0.25, 0.5, 2.0, INF))
        total = math.fsum(g.cell_gauss(c) for c in g.cells())
        assert total == pytest.approx(1.0, abs=1e-15)

    def test_cell_lebesgue(self):
        g = Grid((0.0, 1.0, 3.0), (0.0, 2.0))
        assert g.cell_lebesgue((1, 0)) == 4.0
        assert Grid((-INF, 0.0, INF)).cell_lebesgue((0,)) == INF

    def test_cell_measures_reject_off_grid_cells(self):
        # a negative index would read another cell, or a negative length
        line, plane = Grid((0.0, 1.0, 2.0)), Grid((0, 1, 2), (0, 1, 3))
        cases = [(line, (-1,)), (line, (2,)), (line, (0, 0)), (plane, (0, -1)), (plane, (2, 0))]
        for g, bad in cases:
            with pytest.raises(GridError):
                g.cell_gauss(bad)
            with pytest.raises(GridError):
                g.cell_lebesgue(bad)


class TestFacets:
    def test_ordering(self):
        assert Facet(0, 1, 0) < Facet(0, 2, 0) < Facet(1, 0, 0)
        assert sorted([Facet(1, 0, 1), Facet(0, 3, 0)])[0] == Facet(0, 3, 0)

    def test_enumeration_skips_infinite_lines(self):
        g = Grid((-INF, 0.0, 1.0, INF))
        assert list(g.facets()) == [Facet(0, 1, 0), Facet(0, 2, 0)]
        assert list(g.facets(interior_only=True)) == [Facet(0, 1, 0), Facet(0, 2, 0)]

    def test_enumeration_boundary_vs_interior(self):
        g = Grid((0.0, 1.0, 2.0))
        assert list(g.facets()) == [Facet(0, 0, 0), Facet(0, 1, 0), Facet(0, 2, 0)]
        assert list(g.facets(interior_only=True)) == [Facet(0, 1, 0)]

    def test_two_dimensional_enumeration(self):
        g = Grid((0.0, 1.0), (0.0, 1.0, 2.0))
        got = set(g.facets())
        want = {
            Facet(0, 0, 0), Facet(0, 0, 1), Facet(0, 1, 0), Facet(0, 1, 1),
            Facet(1, 0, 0), Facet(1, 1, 0), Facet(1, 2, 0),
        }
        assert got == want

    def test_facet_cells(self):
        g = Grid((-INF, 0.0, 1.0, INF))
        assert g.facet_cells(Facet(0, 1, 0)) == ((0,), (1,))
        g2 = Grid((0.0, 1.0, 2.0))
        assert g2.facet_cells(Facet(0, 0, 0)) == (None, (0,))
        assert g2.facet_cells(Facet(0, 2, 0)) == ((1,), None)

    def test_facet_cells_two_dimensional(self):
        g = Grid((0.0, 1.0, 2.0), (0.0, 1.0, 2.0))
        assert g.facet_cells(Facet(0, 1, 1)) == ((0, 1), (1, 1))
        assert g.facet_cells(Facet(1, 1, 1)) == ((1, 0), (1, 1))

    def test_facet_validation(self):
        g = Grid((-INF, 0.0, INF))
        for bad in [Facet(1, 0, 0), Facet(0, 3, 0), Facet(0, 1, 1)]:
            with pytest.raises(GridError):
                g.facet_cells(bad)
            with pytest.raises(GridError):
                g.facet_gauss(bad)
            with pytest.raises(GridError):
                g.facet_lebesgue(bad)
        with pytest.raises(GridError):
            Grid((0.0, 1.0), (0.0, 1.0, 2.0)).facet_gauss(Facet(0, 1, -1))
        with pytest.raises(GridError):
            Grid((0.0, 1.0), (0.0, 1.0, 2.0)).facet_lebesgue(Facet(0, 1, -1))

    def test_coordinate_and_span(self):
        g = Grid((-INF, 0.5, INF))
        assert g.facet_coordinate(Facet(0, 1, 0)) == 0.5
        assert g.facet_span(Facet(0, 1, 0)) is None
        g2 = Grid((0.0, 1.0), (2.0, 3.0, 5.0))
        assert g2.facet_span(Facet(0, 0, 1)) == Interval(3.0, 5.0)
        assert g2.facet_span(Facet(1, 1, 0)) == Interval(0.0, 1.0)

    def test_coordinate_and_span_reject_off_grid_facets(self):
        g = Grid((0.0, 1.0), (0.0, 1.0, 2.0))
        with pytest.raises(GridError):
            g.facet_coordinate(Facet(0, 1, -1))
        with pytest.raises(GridError):
            g.facet_span(Facet(0, 7, 0))
        with pytest.raises(GridError):
            g.facet_span(Facet(0, 1, -1))

    def test_facet_gauss_point(self):
        g = Grid((-INF, 0.0, 1.0, INF))
        assert g.facet_gauss(Facet(0, 1, 0)) == 1.0
        assert g.facet_gauss(Facet(0, 2, 0)) == pytest.approx(
            math.exp(-0.5), rel=1e-15
        )

    def test_facet_gauss_segment(self):
        from ehrhard.intervals import IntervalSet

        g = Grid((-INF, 1.0, INF), (-1.0, 1.0))
        want = math.exp(-0.5) * gamma1(IntervalSet.of(-1.0, 1.0))
        assert g.facet_gauss(Facet(0, 1, 0)) == pytest.approx(want, rel=1e-14)

    def test_facet_lebesgue(self):
        g = Grid((-INF, 0.0, INF))
        assert g.facet_lebesgue(Facet(0, 1, 0)) == 1.0
        g2 = Grid((0.0, 1.0), (2.0, 4.5))
        assert g2.facet_lebesgue(Facet(0, 1, 0)) == 2.5


class TestRefinement:
    def test_refine_with_merges_breakpoints(self):
        a = Grid((-INF, 0.0, INF))
        b = Grid((-INF, -1.0, 0.0, 2.0, INF))
        assert a.refine_with(b) == b
        assert b.refine_with(a) == b

    def test_refine_dimension_mismatch(self):
        with pytest.raises(GridError):
            Grid((0.0, 1.0)).refine_with(Grid((0.0, 1.0), (0.0, 1.0)))

    def test_axis_parent(self):
        g = Grid((-INF, 0.0, 2.0, INF))
        assert g.axis_parent(0, -INF) == 0
        assert g.axis_parent(0, 0.0) == 1
        assert g.axis_parent(0, 1.0) == 1
        assert g.axis_parent(0, 2.0) == 2
        assert g.axis_parent(0, INF) is None

    @given(
        st.lists(
            st.floats(min_value=-3.0, max_value=3.0, allow_nan=False),
            min_size=2,
            max_size=6,
            unique=True,
        )
    )
    def test_refinement_preserves_total_mass(self, pts):
        bps = (-INF, *sorted(pts), INF)
        g = Grid(bps)
        total = math.fsum(g.cell_gauss(c) for c in g.cells())
        assert total == pytest.approx(1.0, abs=1e-14)

    def test_facet_gauss_matches_weight_helper(self):
        g = Grid((-INF, 0.7, INF))
        assert g.facet_gauss(Facet(0, 1, 0)) == gauss_weight(0.7)


def _side_gauss(bps, i):
    return phi(bps[i]) - phi(bps[i + 1])


def _cell_gauss_formula(g, cid):
    out = 1.0
    for axis, c in enumerate(cid):
        out *= _side_gauss(g.axes[axis], c)
    return out


def _cell_lebesgue_formula(g, cid):
    out = 1.0
    for axis, c in enumerate(cid):
        out *= g.cell_side(axis, c).length
    return out


def random_grid(rng, base_dim):
    return Grid(*(random_breakpoints(rng, 6, p_inf=0.5) for _ in range(base_dim)))


class TestTables:
    """The table-backed measures equal the per-call formulas bit for bit."""

    @pytest.mark.parametrize("base_dim", [1, 2])
    def test_adjacency_matches_facet_queries(self, base_dim):
        """Position k of the edge walk is the k-th facet with its
        ``facet_cells``, the exterior (None) as cell index ``len(cells)``."""
        rng = random.Random(41 + base_dim)
        for _ in range(60):
            g = random_grid(rng, base_dim)
            cells = [*g.cells(), None]
            below, above = g.edges()
            facets = list(g.facets())
            assert [g.edge_facet(k) for k in range(len(below))] == facets
            assert [(cells[i], cells[j]) for i, j in zip(below, above)] == [
                g.facet_cells(f) for f in facets
            ]
            assert list(g.facets(interior_only=True)) == [
                f for f in facets if None not in g.facet_cells(f)
            ]

    @pytest.mark.parametrize("base_dim", [1, 2])
    def test_facet_gauss_matches_formula(self, base_dim):
        rng = random.Random(43 + base_dim)
        for _ in range(60):
            g = random_grid(rng, base_dim)
            for f in g.facets():
                z = g.facet_coordinate(f)
                w = math.exp(-0.5 * z * z)
                span = g.facet_span(f)
                if span is not None:
                    w *= phi(span.lo) - phi(span.hi)
                assert g.facet_gauss(f) == w

    @pytest.mark.parametrize("base_dim", [1, 2])
    def test_facet_gauss_on_every_line(self, base_dim):
        """Bit for bit the weight of the facet's line times the gamma1 mass
        of its span, on every facet the grid admits: 0.0 on an infinite
        line, and the value its edge position reads elsewhere."""
        rng = random.Random(53 + base_dim)
        for _ in range(60):
            g = random_grid(rng, base_dim)
            lats = [1] if base_dim == 1 else g.shape[::-1]
            for axis, bps in enumerate(g.axes):
                for line, z in enumerate(bps):
                    for lat in range(lats[axis]):
                        f = Facet(axis, line, lat)
                        want = 0.0 if math.isinf(z) else math.exp(-0.5 * z * z)
                        if base_dim == 2:
                            want *= _side_gauss(g.axes[1 - axis], lat)
                        got = g.facet_gauss(f)
                        assert repr(got) == repr(want)
                        k = g.edge_index(f)
                        if k is not None:
                            assert repr(got) == repr(g._edge_measures(k)[0])

    @pytest.mark.parametrize("base_dim", [1, 2])
    def test_cell_measures_match_formulas(self, base_dim):
        rng = random.Random(47 + base_dim)
        for _ in range(60):
            g = random_grid(rng, base_dim)
            for cid in g.cells():
                assert g.cell_gauss(cid) == _cell_gauss_formula(g, cid)
                assert g.cell_lebesgue(cid) == _cell_lebesgue_formula(g, cid)

    def test_infinite_end_lines(self):
        g = Grid((-INF, 0.0, INF), (-INF, 1.0, 2.0))
        assert g.facet_gauss(Facet(0, 0, 1)) == 0.0
        assert g.facet_lebesgue(Facet(0, 2, 0)) == 0.0
        # no facet on an infinite line; the finite boundary line 2 of axis 1
        # has the exterior (index 4) above it
        assert list(g.facets()) == [
            Facet(0, 1, 0), Facet(0, 1, 1), Facet(1, 1, 0), Facet(1, 1, 1), Facet(1, 2, 0), Facet(1, 2, 1)
        ]
        assert [list(a) for a in g.edges()] == [[0, 1, 0, 2, 1, 3], [2, 3, 1, 3, 4, 4]]


class TestEdges:
    """The integer edge arrays are every facet's neighbours on cell indices,
    with the exterior as one more cell."""

    @pytest.mark.parametrize("base_dim", [1, 2])
    def test_edges_match_facet_cells(self, base_dim):
        rng = random.Random(53 + base_dim)
        for _ in range(60):
            g = random_grid(rng, base_dim)
            cells = list(g.cells())
            assert [g.cell_index(c) for c in cells] == list(range(len(cells)))
            index = {c: g.cell_index(c) for c in cells}
            index[None] = len(cells)  # the exterior
            below, above = g.edges()
            facets = list(g.facets())
            assert list(zip(below, above)) == [
                tuple(index[c] for c in g.facet_cells(f)) for f in facets
            ]
            assert [g.edge_index(f) for f in facets] == list(range(len(facets)))
            assert g.edges() is g.edges()

    @pytest.mark.parametrize(
        "axes",
        [
            ((0.0, 1.0),),
            ((-INF, -1.0, 0.5, 2.0, INF),),
            ((0.0, 1.0), (0.0, 1.0)),
            ((0.0, 1.0), (-INF, 0.0, 1.0, 2.0, INF)),
            ((-INF, 0.0, 1.0, 2.0, INF), (0.0, 1.0)),
            ((0.0, 1.0, 2.0), (-INF, 0.0, 1.0, INF)),
        ],
        ids=["1-D single cell", "1-D infinite ends", "1x1", "1xn", "nx1", "2x3"],
    )
    def test_edge_facet_inverts_edge_index(self, axes):
        g = Grid(*axes)
        facets = list(g.facets())
        assert len(facets) == len(g.edges()[0])
        assert [g.edge_facet(k) for k in range(len(facets))] == facets
        assert [g.edge_index(g.edge_facet(k)) for k in range(len(facets))] == list(
            range(len(facets))
        )
        for k in (-1, len(facets)):
            with pytest.raises(GridError):
                g.edge_facet(k)

    @pytest.mark.parametrize("base_dim", [1, 2])
    def test_edge_facet_on_random_grids(self, base_dim):
        rng = random.Random(59 + base_dim)
        for _ in range(60):
            g = random_grid(rng, base_dim)
            facets = list(g.facets())
            assert [g.edge_facet(k) for k in range(len(facets))] == facets

    def test_edge_index_rejects_other_facets(self):
        g = Grid((0.0, 1.0, 2.0), (-INF, 0.0, 1.0, INF))
        # axis 0: finite lines 0..2 of 3 facets each; axis 1: lines 1, 2 of 2
        assert g.edge_index(Facet(0, 0, 0)) == 0
        assert g.edge_index(Facet(0, 1, 2)) == 3 + 2
        assert g.edge_index(Facet(0, 2, 0)) == 6
        assert g.edge_index(Facet(1, 2, 1)) == 9 + 2 + 1
        for f in (Facet(1, 0, 0), Facet(1, 3, 0), Facet(0, 3, 0), Facet(0, -1, 0),
                  Facet(0, 1, 3), Facet(1, 1, 2), Facet(2, 1, 0)):
            assert g.edge_index(f) is None
        line = Grid((0.0, 1.0, 2.0))
        assert line.edge_index(Facet(0, 1, 0)) == 1
        assert line.edge_index(Facet(0, 1, 1)) is None
        assert line.edge_index(Facet(1, 0, 0)) is None
        assert [list(a) for a in line.edges()] == [[2, 0, 1], [0, 1, 2]]

    @pytest.mark.parametrize("base_dim", [1, 2])
    def test_edge_columns_match_the_per_edge_reads(self, base_dim):
        """The columns of ascending positions are ``_edge_place`` and the
        Gaussian half of ``_edge_measures`` at each, bit for bit; so are
        those of every position, of none and of one."""
        rng = random.Random(61 + base_dim)
        for _ in range(60):
            g = random_grid(rng, base_dim)
            n = len(g.edges()[0])
            every = list(range(n))
            subsets = [every, [], sorted(rng.sample(every, rng.randint(0, n)))]
            subsets += [[k] for k in rng.sample(every, min(n, 2))]
            for ks in subsets:
                *places, gauss = g._edge_columns(ks)
                assert list(zip(*places)) == [g._edge_place(k) for k in ks]
                want = [g._edge_measures(k)[0] for k in ks]
                assert gauss == want
                assert list(map(repr, gauss)) == list(map(repr, want))

    def test_line_grids_share_edges(self):
        assert Grid((0, 1, 2)).edges() is Grid((5, 6, 7)).edges()
        assert Grid((0, 1, 2)).edges() is not Grid((0, 1, 2, 3)).edges()
        assert Grid((0, 1, 2)).edges() is not Grid((-INF, 1, 2)).edges()

    @pytest.mark.parametrize("base_dim", [1, 2])
    def test_links_match_brute_force(self, base_dim):
        """``_links`` picks, in ascending order, the edges whose cells'
        labels (the exterior's last) meet the relation, less the cut: on
        bool and small int labels, with ``and_`` and ``ne``."""
        rng = random.Random(67 + base_dim)
        for _ in range(60):
            g = random_grid(rng, base_dim)
            edges = list(enumerate(zip(*g.edges())))
            for kind in (bool, int):
                labels = [kind(rng.randrange(3)) for _ in range(math.prod(g.shape) + 1)]
                cut = set(rng.sample(range(len(edges)), rng.randint(0, len(edges))))
                for relation in (and_, ne):
                    want = [
                        (k, i, j)
                        for k, (i, j) in edges
                        if relation(labels[i], labels[j]) and k not in cut
                    ]
                    assert list(g._links(labels, cut, relation)) == want
                assert list(g._links(labels)) == list(g._links(labels, (), and_))
