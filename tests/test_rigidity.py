import json
import math
import random
from contextlib import suppress
from dataclasses import replace
from functools import partial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ehrhard.connectedness
import ehrhard.rigidity
from ehrhard import (
    ColumnarSet,
    EhrhardError,
    Facet,
    Grid,
    IntervalSet,
    PartitionError,
    Profile,
    PerimeterCheck,
    ProfileError,
    SearchBoundError,
    SingularAnnotation,
    SymdiffCheck,
    Verdict,
    build_counterexample,
    certificate_for,
    check_gino,
    check_pino,
    default_levels,
    essentially_disconnects,
    exhaustive_search,
    from_profile,
    gauss_perimeter,
    psi,
    reflect,
    rigidity_verdict,
    rigidity_verdict_planar,
    scene,
    symdiff_volume,
    verify_equality_case,
)
from ehrhard.catalog import run_entry
from ehrhard.cli import main
from ehrhard.columnar import restrict
from ehrhard.connectedness import (
    _one_piece,
    complement_indecomposable,
    decompose_ids,
    indecomposable,
)
from ehrhard.jsonio import profile_to_json
from ehrhard.render import render_profile
from conftest import (
    assert_same_repr,
    complement_one_piece,
    random_annotated,
    random_profile_1d,
    random_profile_2d,
    reference_links,
    reference_pino,
    reference_search,
    set_one_piece,
)
from test_exhaustive import FAMILIES

INF = math.inf

THREE = Grid((-INF, -1.0, 1.0, INF))


def three_column(a, b, c, annotations=()):
    return Profile(THREE, {(0,): a, (1,): b, (2,): c}, annotations)


def crossing_cost(sc, minus):
    minus = set(minus)
    return math.fsum(
        sf.gauss * 2.0 * min(sf.wedge, 1.0 - sf.vee)
        for sf in sc.facets
        if (sf.cells[0] in minus) != (sf.cells[1] in minus)
    )


class TestVerdicts:
    def test_full_middle_column_is_nonrigid(self):
        report = rigidity_verdict(three_column(0.3, 1.0, 0.6))
        assert report.verdict is Verdict.NONRIGID
        assert report.method == "theorem"
        assert not report.annotated
        assert report.certificate.minus_cells == ((0,),)
        assert report.certificate.separating

    def test_nonrigid_competitor_ties_perimeter(self):
        report = rigidity_verdict(three_column(0.3, 1.0, 0.6))
        assert report.perimeter_check.difference == pytest.approx(0.0, abs=1e-12)
        assert report.symdiff_check.vs_symmetral > 1e-12
        assert report.symdiff_check.vs_reflected > 1e-12

    def test_empty_middle_column_is_nonrigid(self):
        report = rigidity_verdict(three_column(0.3, 0.0, 0.6))
        assert report.verdict is Verdict.NONRIGID

    def test_contiguous_g_is_rigid(self):
        p = Profile(Grid((-INF, 0.0, INF)), {(0,): 0.3, (1,): 0.7})
        report = rigidity_verdict(p)
        assert report.verdict is Verdict.RIGID
        assert report.connectivity.tree_facets == (Facet(0, 1, 0),)

    def test_no_g_cells_vacuously_rigid(self):
        report = rigidity_verdict(three_column(0.0, 1.0, 0.0))
        assert report.rigid
        assert any("vacuously" in n for n in report.notes)

    def test_blocking_annotation_flips_verdict(self):
        p = Profile(Grid((-INF, 0.0, INF)), {(0,): 0.3, (1,): 0.7})
        assert rigidity_verdict(p).rigid
        ann = SingularAnnotation(Facet(0, 1, 0), 0.0, 0.5)
        q = Profile(p.grid, p.values, [ann])
        report = rigidity_verdict(q)
        assert not report.rigid
        assert report.annotated
        assert any("asymptotically" in n for n in report.notes)

    def test_planar_route_agrees(self):
        for p in (
            three_column(0.3, 1.0, 0.6),
            three_column(0.3, 0.5, 0.6),
            three_column(0.3, 0.0, 0.6),
        ):
            report = rigidity_verdict_planar(p)
            assert report.verdict is rigidity_verdict(p).verdict
            assert report.method == "planar-theorem"

    def test_planar_route_needs_one_dimension(self):
        g = Grid((0.0, 1.0), (0.0, 1.0))
        p = Profile(g, {(0, 0): 0.5})
        with pytest.raises(ProfileError):
            rigidity_verdict_planar(p)


class TestCounterexample:
    def test_mirrors_minus_side_only(self):
        p = three_column(0.3, 1.0, 0.6)
        cert = rigidity_verdict(p).certificate
        e = build_counterexample(p, cert)
        assert e.section((0,)) == IntervalSet.below(-psi(0.3))
        assert e.section((1,)) == IntervalSet.line()
        assert e.section((2,)) == IntervalSet.above(psi(0.6))

    def test_rejects_overlapping_sides(self):
        p = three_column(0.3, 1.0, 0.6)
        sc = scene(p)
        cert = certificate_for(sc, [(0,)])
        bad = replace(
            cert,
            plus_cells=((0,), (2,)),
            minus_cells=((0,),),
            interface_facets=(),
            unblocked_interface_measure=0.0,
            plus_gauss=1.0,
            minus_gauss=1.0,
        )
        with pytest.raises(PartitionError):
            build_counterexample(p, bad)

    def test_rejects_partial_partition(self):
        p = three_column(0.3, 0.5, 0.6)
        cert = certificate_for(scene(p), [(0,)])
        partial = replace(
            cert,
            plus_cells=((2,),),
            minus_cells=((0,),),
            interface_facets=(),
            unblocked_interface_measure=0.0,
            plus_gauss=1.0,
            minus_gauss=1.0,
        )
        with pytest.raises(PartitionError):
            build_counterexample(p, partial)

    def test_partition_pricing_identity(self):
        # The perimeter excess of a mirrored competitor equals the summed
        # closed-form cost of its crossing interfaces.
        rng = random.Random(31)
        tested = 0
        while tested < 60:
            p = random_profile_1d(rng, max_cells=8)
            if p.annotations:
                continue
            g = p.g_cells()
            if len(g) < 2:
                continue
            minus = [cid for cid in g if rng.random() < 0.5]
            if not minus or len(minus) == len(g):
                continue
            tested += 1
            sc = scene(p)
            cert = certificate_for(sc, minus)
            e = build_counterexample(p, cert)
            f = from_profile(p)
            excess = gauss_perimeter(e).total_gauss - gauss_perimeter(f).total_gauss
            assert excess == pytest.approx(crossing_cost(sc, minus), abs=1e-10)


class TestEqualityCase:
    def test_grid_mismatch_rejected(self):
        p = three_column(0.3, 1.0, 0.6)
        e = ColumnarSet(Grid((-INF, 0.0, INF)), {})
        with pytest.raises(PartitionError):
            verify_equality_case(e, p)

    def test_mirrored_competitor_passes(self):
        p = three_column(0.3, 1.0, 0.6)
        report = rigidity_verdict(p)
        check = verify_equality_case(report.counterexample, p)
        assert check.passed
        assert check.is_distributed and check.max_distribution_error <= 1e-12
        assert check.equality
        assert check.halfline_total is True
        assert check.symdiff_check.vs_symmetral > 1e-12

    def test_model_set_passes_trivially(self):
        p = three_column(0.3, 0.5, 0.6)
        check = verify_equality_case(from_profile(p), p)
        assert check.passed
        assert check.symdiff_check.vs_symmetral == 0.0

    def test_wrong_masses_fail(self):
        p = three_column(0.3, 1.0, 0.6)
        e = ColumnarSet(
            p.grid,
            {
                (0,): IntervalSet.above(0.0),
                (1,): IntervalSet.line(),
                (2,): IntervalSet.above(psi(0.6)),
            },
        )
        check = verify_equality_case(e, p)
        assert not check.is_distributed
        assert not check.passed

    def test_right_masses_wrong_shape_fail(self):
        p = three_column(0.3, 1.0, 0.6)
        a = psi(0.35)  # centered interval (-a, a) carries mass 0.3
        e = ColumnarSet(
            p.grid,
            {
                (0,): IntervalSet.of(-a, a),
                (1,): IntervalSet.line(),
                (2,): IntervalSet.above(psi(0.6)),
            },
        )
        check = verify_equality_case(e, p)
        assert check.is_distributed
        assert not check.equality
        assert check.halfline_total is None
        assert not check.passed

    def test_tolerance_parameter(self):
        # Mirroring across an unblocked interface of value 1e-7 costs about
        # 2e-7 in perimeter: inside the loose tolerance, outside the default.
        p = Profile(Grid((-INF, 0.0, INF)), {(0,): 1e-7, (1,): 1e-7})
        cert = certificate_for(scene(p), [(0,)])
        e = build_counterexample(p, cert)
        assert not verify_equality_case(e, p).equality
        loose = verify_equality_case(e, p, tolerance=1e-6)
        assert loose.equality
        assert loose.halfline_total is None
        assert not loose.passed


class TestExhaustiveSearch:
    def test_counts_all_partitions_when_rigid(self):
        p = Profile(Grid((-INF, 0.0, INF)), {(0,): 0.3, (1,): 0.7})
        report = exhaustive_search(p)
        assert report.rigid
        assert report.method == "exhaustive-search"
        assert report.partitions_checked == 2

    def test_finds_certificate_when_nonrigid(self):
        report = exhaustive_search(three_column(0.3, 1.0, 0.6))
        assert not report.rigid
        assert report.certificate.separating
        assert report.partitions_checked >= 1

    def test_agrees_with_theorem_on_random_profiles(self):
        rng = random.Random(32)
        for _ in range(120):
            p = random_profile_1d(rng, max_cells=8)
            assert exhaustive_search(p).rigid == rigidity_verdict(p).rigid

    @pytest.mark.parametrize(
        "axes",
        [
            ((-INF, 0.0, 40.0, 41.0, INF),),
            ((-INF, 0.0, 40.0, 41.0, INF), (-INF, 0.0, INF)),
        ],
        ids=["1d", "2d"],
    )
    def test_far_tail_grid_agrees_with_theorem(self, axes):
        # facet weights exp(-z*z/2) at z = 40, 41 underflow to 0.0; the
        # facets still have positive measure and keep G connected
        g = Grid(*axes)
        p = Profile(g, {cid: 0.5 for cid in g.cells()})
        assert any(sf.gauss == 0.0 for sf in scene(p).facets)
        assert rigidity_verdict(p).rigid
        assert exhaustive_search(p).rigid

    def test_refuses_oversized_instances(self):
        n = 13
        g = Grid(Grid.regular(-2.0, 2.0, n))
        p = Profile(g, {(i,): 0.5 for i in range(n)})
        with pytest.raises(SearchBoundError):
            exhaustive_search(p)
        assert exhaustive_search(p, max_cells=13).rigid

    @pytest.mark.parametrize(
        "n, cut, accepted",
        [(13, 12, 4095), (14, 12, 4095), (14, 13, 8191), (16, 15, 32767), (15, None, None)],
    )
    def test_forced_blocks_match_the_walk(self, n, cut, accepted):
        # v = 0.5 everywhere; a blocked facet after the first `cut` cells
        # makes those cells the first accepted minus side, which lies on
        # or past the first 4,096-mask block edge
        g = Grid(Grid.regular(-2.0, 2.0, n))
        anns = [] if cut is None else [SingularAnnotation(Facet(0, cut, 0), 0.0, 0.5)]
        p = Profile(g, dict.fromkeys(g.cells(), 0.5), anns)
        report = exhaustive_search(p, max_cells=16)
        got = (report.partitions_checked, report.certificate)
        assert_same_repr(got, reference_search(p))
        assert report.partitions_checked == (2**n - 2 if cut is None else accepted)

    def test_forced_2d_search_matches_the_walk(self):
        # 4x4 cells at 0.5 with the axis-1 line 3 blocked: cell (i, j) is
        # bit 4i + j, so the accepted minus side {j < 3} is mask 0x7777
        g = Grid((-INF, -1.0, 0.0, 1.0, INF), (-INF, -1.0, 0.0, 1.0, INF))
        anns = [SingularAnnotation(Facet(1, 3, i), 0.0, 0.5) for i in range(4)]
        p = Profile(g, dict.fromkeys(g.cells(), 0.5), anns)
        report = exhaustive_search(p, max_cells=16)
        assert report.partitions_checked == 0x7777
        assert_same_repr((report.partitions_checked, report.certificate), reference_search(p))

    def test_column_table_matches_its_definition(self):
        columns = ehrhard.rigidity._COLUMNS
        assert len(columns) == 13
        for w, row in enumerate(columns):
            assert len(row) == w
            for k, col in enumerate(row):
                assert col == sum(1 << m for m in range(2**w) if m >> k & 1), (w, k)

    def test_takes_no_tolerance(self):
        # the cheap-crossing allowance is gone: its NonRigid reports did not separate
        g = Grid((-INF, 0.0, 3.0, INF))
        p = Profile(g, dict.fromkeys(g.cells(), 0.5))
        assert rigidity_verdict(p).rigid and exhaustive_search(p).rigid
        with pytest.raises(TypeError):
            exhaustive_search(p, tolerance=0.5)


@st.composite
def far_tail_profiles_1d(draw, max_cells=8):
    """1-D profiles with breakpoints out to +-45, where cell masses and
    facet weights underflow, and values that include 0 and 1."""
    pts = draw(
        st.lists(
            st.floats(min_value=-45.0, max_value=45.0, allow_nan=False),
            min_size=2,
            max_size=max_cells + 1,
            unique=True,
        )
    )
    bps = sorted(pts)
    if draw(st.booleans()):
        bps[0] = -INF
    if draw(st.booleans()):
        bps[-1] = INF
    grid = Grid(tuple(bps))
    value = st.one_of(st.sampled_from((0.0, 1.0)), st.floats(min_value=0.0, max_value=1.0))
    return Profile(grid, {cid: draw(value) for cid in grid.cells()})


class TestFarTail:
    """Both routes decide from structure: a cell or an interior facet has
    positive measure even where its float measure underflows to 0.0."""

    def test_underflowed_component_separates(self):
        # G = {0, 2}; cell 2 has gamma mass phi(40) - phi(41) == 0.0
        g = Grid((-INF, 0.0, 40.0, 41.0, INF))
        p = Profile(g, {(0,): 0.5, (1,): 1.0, (2,): 0.5, (3,): 0.0})
        assert g.cell_gauss((2,)) == 0.0
        theorem, search = rigidity_verdict(p), exhaustive_search(p)
        assert not theorem.rigid and not search.rigid
        assert theorem.certificate == search.certificate
        assert theorem.certificate.plus_gauss == 0.0
        assert theorem.certificate.separating

    def test_unblocked_facet_is_never_free(self):
        # the facet at 6.5 prices at about 6.7e-10, under the old 1e-9 default
        g = Grid((-INF, 6.0, 6.5, INF))
        p = Profile(g, {cid: 0.5 for cid in g.cells()})
        assert rigidity_verdict(p).rigid
        assert exhaustive_search(p).rigid

    @settings(deadline=None)
    @given(far_tail_profiles_1d())
    def test_routes_agree_and_certificates_separate(self, p):
        theorem, search = rigidity_verdict(p), exhaustive_search(p)
        assert theorem.verdict is search.verdict
        for report in (theorem, search):
            if not report.rigid:
                assert report.certificate.separating


@st.composite
def family_profiles(draw):
    """A profile of the conftest families: 1-D or 2-D, bare or annotated."""
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        p = random_profile_1d(rng, max_cells=8)
    else:
        p = random_profile_2d(rng)
    if draw(st.booleans()):
        p = random_annotated(rng, p)
    return p


def route_reports(p):
    """The reports of every verdict route on ``p``: the theorem, the planar
    criterion on a 1-D base and the search within its bound."""
    reports = [rigidity_verdict(p)]
    if p.grid.base_dim == 1:
        reports.append(rigidity_verdict_planar(p))
    if len(p.g_cells()) <= 12:
        reports.append(exhaustive_search(p))
    return reports


class TestNonRigidSeparates:
    """Every NonRigid report, on every route, carries a certificate that
    separates: no unblocked interface crosses it and both sides are
    non-empty."""

    @settings(deadline=None, max_examples=300)
    @given(st.one_of(family_profiles(), far_tail_profiles_1d()))
    def test_random_families(self, p):
        for report in route_reports(p):
            assert report.rigid or report.certificate.separating, (report.method, p)

    @pytest.mark.parametrize("family", sorted(FAMILIES))
    def test_small_scope_families(self, family):
        for p in FAMILIES[family]():
            for report in route_reports(p):
                assert report.rigid or report.certificate.separating, (report.method, p)


def interval_pino(p, levels):
    """check_pino's passes on the interval route: generic pieces of the
    restricted model set, at levels that keep every G-cell."""
    f = from_profile(p)
    g = set(p.g_cells())
    passed = []
    for t in levels:
        keep = [cid for cid in p.grid.cells() if t < p.value(cid) < 1.0 - t]
        severed = [a.facet for a in p.annotations if a.wedge <= t or a.vee >= 1.0 - t]
        passed.append(g <= set(keep) and len(decompose_ids(restrict(f, keep), severed)) == 1)
    return tuple(passed)


class TestModelSetKernel:
    """check_pino, check_gino and the one-piece checks decide on cells;
    generic decompose_ids on from_profile/restrict/complement is the oracle."""

    @settings(deadline=None, max_examples=150)
    @given(st.one_of(family_profiles(), far_tail_profiles_1d()), st.data())
    def test_matches_interval_route(self, p, data):
        auto = default_levels(p)
        assert all(t > 0.0 for t in auto)
        assert all(a > b for a, b in zip(auto, auto[1:]))
        report = check_pino(p)
        assert report.levels == auto
        assert report.passed == interval_pino(p, auto)
        assert report.overall == (bool(auto) and all(report.passed))
        drawn = data.draw(st.lists(st.floats(1e-6, 0.499), min_size=1, max_size=3))
        levels = tuple(sorted(set(drawn), reverse=True))
        assert check_pino(p, levels).passed == interval_pino(p, levels)

        f = from_profile(p)
        facets = list(p.grid.facets())
        severed = data.draw(st.lists(st.sampled_from(facets), max_size=4)) if facets else []
        assert set_one_piece(p, severed) == indecomposable(f, severed)
        assert complement_one_piece(p, severed) == complement_indecomposable(f, severed)

        # the bands' own cuts: on a 1-D grid an edge keeps its position on
        # the extended grid, so only a 2-D profile shows the complement's cut
        # moved onto the wrong facets
        low = [a.facet for a in p.annotations if a.wedge == 0.0]
        high = [a.facet for a in p.annotations if a.vee == 1.0]
        assert _one_piece(*p._band(0.0, INF)) == indecomposable(f, low)
        assert _one_piece(*p._complement_band()) == complement_indecomposable(f, high)
        if p.grid.base_dim == 1:
            gino = check_gino(p)
            assert gino.set_indecomposable == indecomposable(f, low)
            assert gino.complement_indecomposable == complement_indecomposable(f, high)


@pytest.fixture
def priced(monkeypatch):
    """Count the evidence calls made through ehrhard.rigidity; ``_mirror``
    builds the competitor from the model set, and ``_symdiff_walk`` prices
    each of the two symmetric differences."""
    counts = dict.fromkeys(("_mirror", "gauss_perimeter", "_symdiff_walk"), 0)
    for name in counts:
        real = getattr(ehrhard.rigidity, name)

        def counted(*args, _real=real, _name=name, **kwargs):
            counts[_name] += 1
            return _real(*args, **kwargs)

        monkeypatch.setattr(ehrhard.rigidity, name, counted)
    return counts


class TestLazyEvidence:
    def test_verdicts_price_nothing(self, priced):
        p = three_column(0.3, 1.0, 0.6)
        reports = (rigidity_verdict(p), exhaustive_search(p), rigidity_verdict_planar(p))
        assert all(r.certificate.separating for r in reports)
        assert set(priced.values()) == {0}

    def test_perimeter_check_prices_no_symdiff(self, priced):
        report = rigidity_verdict(three_column(0.3, 1.0, 0.6))
        assert report.perimeter_check.difference == 0.0
        assert priced == {"_mirror": 1, "gauss_perimeter": 2, "_symdiff_walk": 0}

    def test_each_field_priced_once(self, priced):
        p = three_column(0.3, 1.0, 0.6)
        report = exhaustive_search(p)
        first = (report.counterexample, report.perimeter_check, report.symdiff_check)
        second = (report.counterexample, report.perimeter_check, report.symdiff_check)
        assert all(a is b for a, b in zip(first, second))
        assert priced == {"_mirror": 1, "gauss_perimeter": 2, "_symdiff_walk": 2}

    def test_values_match_eager_pricing(self):
        p = three_column(0.3, 0.0, 0.6, [SingularAnnotation(Facet(0, 1, 0), 0.0, 0.5)])
        report = rigidity_verdict(p)
        e, f = build_counterexample(p, report.certificate), from_profile(p)
        pe, pf = gauss_perimeter(e).total_gauss, gauss_perimeter(f).total_gauss
        assert report.counterexample == e
        assert report.perimeter_check == PerimeterCheck(pe, pf, pe - pf)
        assert report.symdiff_check == SymdiffCheck(
            symdiff_volume(e, f), symdiff_volume(e, reflect(f))
        )

    @settings(deadline=None, max_examples=200)
    @given(st.one_of(family_profiles(), far_tail_profiles_1d()))
    def test_competitor_equals_public_one(self, p):
        report = rigidity_verdict(p)
        if report.rigid:
            return
        public = build_counterexample(p, report.certificate)
        assert report.counterexample == public
        # == alone equates 0.0 and -0.0
        assert repr(sorted(report.counterexample.sections.items())) == repr(
            sorted(public.sections.items())
        )

    def test_rigid_report_has_no_evidence(self, priced):
        report = rigidity_verdict(three_column(0.3, 0.5, 0.6))
        assert report.rigid
        assert report.counterexample is None
        assert report.perimeter_check is None
        assert report.symdiff_check is None
        assert set(priced.values()) == {0}

    def test_nonrigid_report_hashes(self):
        # hashing prices the evidence, the competitor included
        report = rigidity_verdict(three_column(0.3, 1.0, 0.6))
        assert hash(report) == hash(rigidity_verdict(three_column(0.3, 1.0, 0.6)))
        assert report.counterexample is not None

    def test_planar_report_carries_evidence(self):
        p = three_column(0.3, 1.0, 0.6)
        planar, theorem = rigidity_verdict_planar(p), rigidity_verdict(p)
        assert planar.method == "planar-theorem"
        assert planar.counterexample == theorem.counterexample
        assert planar.perimeter_check == theorem.perimeter_check
        assert planar.symdiff_check == theorem.symdiff_check


class TestLevelRestriction:
    def test_default_levels(self):
        p = Profile(Grid((-INF, 0.0, INF)), {(0,): 0.3, (1,): 0.7})
        assert default_levels(p) == (0.15, 0.0375, 0.0375 / 4.0)
        assert default_levels(three_column(0.0, 1.0, 0.0)) == (0.25,)

    @pytest.mark.parametrize(
        "v, levels", [(5e-324, ()), (1e-323, (5e-324,)), (2e-323, (1e-323,))]
    )
    def test_subnormal_margin_keeps_positive_levels(self, v, levels):
        # b/4 and b/16 round to 0 here; b itself does for v = 5e-324
        p = Profile(Grid((-INF, 0.0, INF)), {(0,): v, (1,): 0.5})
        assert default_levels(p) == levels
        report = check_pino(p)
        assert report.levels == levels
        assert report.passed == interval_pino(p, levels)
        assert report.overall == bool(levels)

    def test_level_dropping_a_g_cell_fails(self):
        # at t = 5e-324 the restriction keeps only the 0.5 column, which is
        # one piece, but G is split by the empty middle column
        p = Profile(Grid((-INF, 0.0, 1.0, INF)), {(0,): 5e-324, (1,): 0.0, (2,): 0.5})
        assert not rigidity_verdict(p).rigid
        report = check_pino(p, levels=(5e-324,))
        assert report.passed == (False,)
        assert not report

    def test_level_validation(self):
        p = Profile(Grid((-INF, 0.0, INF)), {(0,): 0.3, (1,): 0.7})
        with pytest.raises(ProfileError):
            check_pino(p, levels=[])
        with pytest.raises(ProfileError):
            check_pino(p, levels=[0.6])
        with pytest.raises(ProfileError):
            check_pino(p, levels=[0.1, 0.2])
        with pytest.raises(ProfileError):
            check_pino(p, levels=[0.1, float("nan")])

    def test_passes_on_rigid_profile(self):
        p = Profile(Grid((-INF, 0.0, INF)), {(0,): 0.3, (1,): 0.7})
        report = check_pino(p)
        assert report
        assert report.overall and all(report.passed)
        assert report.levels == default_levels(p)

    def test_fails_across_gap(self):
        report = check_pino(three_column(0.3, 1.0, 0.6))
        assert not report
        assert not any(report.passed)

    def test_explicit_coarse_level_can_fail(self):
        p = three_column(0.5, 0.05, 0.5)
        assert check_pino(p)
        coarse = check_pino(p, levels=[0.1])
        assert not coarse.overall

    def test_annotation_severs_restriction(self):
        p = Profile(Grid((-INF, 0.0, INF)), {(0,): 0.5, (1,): 0.5})
        assert check_pino(p)
        ann = SingularAnnotation(Facet(0, 1, 0), 0.0, 0.5)
        q = Profile(p.grid, p.values, [ann])
        assert not check_pino(q)


class TestPinoMemo:
    """check_pino asks _one_piece once per distinct cut, seen here as its
    sorted edge positions; its reports equal the per-level loop's."""

    @pytest.fixture
    def asked(self, monkeypatch):
        calls = []
        real = ehrhard.rigidity._one_piece

        def spy(grid, inside, cut=()):
            calls.append(sorted(cut))
            return real(grid, inside, cut)

        monkeypatch.setattr(ehrhard.rigidity, "_one_piece", spy)
        return calls

    def test_levels_severing_the_same_facets_ask_once(self, asked):
        p = run_entry("mistico", resolution=1 / 16).profile
        asked.clear()  # the catalog entry runs its own checks
        report = check_pino(p)
        assert len(report.levels) == 3
        assert len(asked) == 1
        assert report == reference_pino(p)

    def test_levels_severing_different_facets_ask_each(self, asked):
        anns = [
            SingularAnnotation(Facet(0, 1, 0), 0.3, 0.5),
            SingularAnnotation(Facet(0, 2, 0), 0.15, 0.5),
        ]
        p = Profile(Grid((-INF, -1.0, 1.0, INF)), dict.fromkeys([(0,), (1,), (2,)], 0.5), anns)
        report = check_pino(p, levels=(0.4, 0.2, 0.1))
        first, second = map(p.grid.edge_index, (Facet(0, 1, 0), Facet(0, 2, 0)))
        assert asked == [[first, second], [second], []]
        assert report.passed == (False, False, True)
        assert report == reference_pino(p, (0.4, 0.2, 0.1))

    def test_matches_per_level_loop(self):
        rng = random.Random(1717)
        for k in range(600):
            bare = random_profile_1d(rng, max_cells=8) if k % 2 else random_profile_2d(rng)
            p = random_annotated(rng, bare, p_annotate=0.5)
            for levels in (None, (0.45, 0.3, 0.1), (0.2,), (0.3, 0.01)):
                assert_same_repr(check_pino(p, levels), reference_pino(p, levels))


def value_complement(p):
    """The profile with each value v as 1 - v and each annotation's limits
    (wedge, vee) as (1 - vee, 1 - wedge)."""
    return Profile(
        p.grid,
        {cid: 1.0 - v for cid, v in p.values.items()},
        [SingularAnnotation(a.facet, 1.0 - a.vee, 1.0 - a.wedge) for a in p.annotations],
    )


class TestValueComplement:
    """The value complement q of p has p's Ehrhard band, its band below 1 is
    p's band above 0 (the complement half of check_gino is the set half of
    p's), and the verdict does not see the swap.

    Checked on the conftest families only: their values are 0, 1 or at
    least 1e-5 from both, and their annotation limits are 0, 1 or multiples
    of 2**-53, so 1 - (1 - x) == x. A positive value or wedge below 2**-54
    has 1 - x == 1.0, so in q a G-cell would leave G or an unblocked
    interface would block.
    """

    def test_conftest_families(self):
        rng = random.Random(2204)
        for k in range(1500):
            base = random_profile_1d(rng, max_cells=8) if k % 2 else random_profile_2d(rng)
            p = random_annotated(rng, base) if k % 3 == 2 else base
            q = value_complement(p)
            assert q._band(0.0, 1.0) == p._band(0.0, 1.0), p
            assert q._band(-INF, 1.0) == p._band(0.0, INF), p
            got, want = rigidity_verdict(q), rigidity_verdict(p)
            assert_same_repr(
                (got.verdict, got.certificate, got.connectivity),
                (want.verdict, want.certificate, want.connectivity),
            )


def transpose(p):
    """The 2-D profile with its axes swapped: cell (i, j) as (j, i) and the
    facet (axis, line, lateral) as (1 - axis, line, lateral)."""
    return Profile(
        Grid(*p.grid.axes[::-1]),
        {cid[::-1]: v for cid, v in p.values.items()},
        [SingularAnnotation(transposed(a.facet), a.wedge, a.vee) for a in p.annotations],
    )


def transposed(f):
    return Facet(1 - f.axis, f.line, f.lateral)


def reflect_axis0(p):
    """The profile mirrored by x -> -x on axis 0: its breakpoints b as -b in
    reverse order, cell i as n - 1 - i, an axis-0 facet on line l on line
    n - l, and an axis-1 facet's lateral i as n - 1 - i; annotations follow
    their facets."""
    axes, n = p.grid.axes, p.grid.shape[0]
    return Profile(
        Grid(tuple(-b for b in reversed(axes[0])), *axes[1:]),
        {reflected_cell(n, cid): v for cid, v in p.values.items()},
        [SingularAnnotation(reflected_facet(n, a.facet), a.wedge, a.vee) for a in p.annotations],
    )


def reflected_cell(n, cid):
    return (n - 1 - cid[0], *cid[1:])


def reflected_facet(n, f):
    if f.axis == 0:
        return Facet(0, n - f.line, f.lateral)
    return Facet(1, f.line, n - 1 - f.lateral)


def same(x):
    return x


def keyed_rows(sc, cell=same, facet=same):
    """The rows of the scene ``sc`` as tuples of their fields, the Gaussian
    mass last, keyed by ``cell(id)`` and by ``facet(facet)``. A facet's two
    cells are mapped by ``cell`` and sorted again into (below, above)."""
    rows = {cell(c.id): (c.value, c.in_g, c.lebesgue, c.gauss) for c in sc.cells}
    for f in sc.facets:
        ends = tuple(sorted(map(cell, f.cells)))
        rows[facet(f.facet)] = (ends, f.wedge, f.vee, f.blocked, f.annotated, f.gauss)
    return rows


MASSES = ("unblocked_interface_measure", "plus_gauss", "minus_gauss")


def assert_relation(p, q, cell, facet, tolerance=0.0):
    """``q`` is ``p`` with its cells mapped by ``cell`` and its facets by
    ``facet`` (each map its own inverse), and everything the verdict and the
    scene say maps along: the verdict, the certificates, the spanning cells
    and both kinds' scene rows. Gaussian masses may differ by ``tolerance``;
    all else is equal.

    The first G-cell in row-major order can change, and with it the
    component a certificate takes for its minus side; so each certificate,
    mapped onto the other profile, must be the certificate of the same
    minus side there (:func:`certificate_for`).
    """
    got, want = rigidity_verdict(q), rigidity_verdict(p)
    assert got.verdict is want.verdict, p
    for a, cert in ((p, got.certificate), (q, want.certificate)):
        if cert is not None:
            mapped = certificate_for(scene(a), map(cell, cert.minus_cells))
            assert mapped.separating and cert.separating
            for name in MASSES:
                assert abs(getattr(mapped, name) - getattr(cert, name)) <= tolerance, p
            assert_same_repr(
                mapped,
                replace(
                    cert,
                    plus_cells=tuple(sorted(map(cell, cert.plus_cells))),
                    minus_cells=tuple(sorted(map(cell, cert.minus_cells))),
                    interface_facets=tuple(sorted(map(facet, cert.interface_facets))),
                    **{name: getattr(mapped, name) for name in MASSES},
                ),
            )
    if want.connectivity is not None:
        assert sorted(map(cell, got.connectivity.cells)) == list(want.connectivity.cells)
    for kind in ("ehrhard", "steiner"):
        rows, want_rows = keyed_rows(scene(q, kind), cell, facet), keyed_rows(scene(p, kind))
        assert rows.keys() == want_rows.keys(), p
        for key, row in rows.items():
            assert row[:-1] == want_rows[key][:-1], (p, key)
            assert abs(row[-1] - want_rows[key][-1]) <= tolerance, (p, key)


class TestTransposition:
    """Swapping the axes of a 2-D profile, with its values and annotations,
    swaps the axes of everything the verdict and the scene say
    (:func:`assert_relation`). The cell and facet masses are one product of
    the two axes' table entries, taken in the other order, so every float
    is compared exactly.
    """

    def test_conftest_families(self):
        rng = random.Random(2404)
        for k in range(600):
            p = random_profile_2d(rng)
            self.check(random_annotated(rng, p) if k % 2 else p)

    @pytest.mark.parametrize("family", ["2x2", "2x3"])
    def test_small_scope_families(self, family):
        for p in FAMILIES[family]():
            self.check(p)

    @staticmethod
    def check(p):
        assert_relation(p, transpose(p), lambda c: c[::-1], transposed)


class TestReflection:
    """Mirroring axis 0 of a profile, with its cells, facets and annotations,
    mirrors everything the verdict and the scene say
    (:func:`assert_relation`).

    Values, limits, flags and Lebesgue measures map exactly: a mirrored side
    length (-a) - (-b) is b - a in floats. Gaussian masses do not, because
    ``phi(-t)`` and ``1 - phi(t)`` round differently: a mirrored cell's
    gamma1 mass is phi(-b) - phi(-a) for phi(a) - phi(b), two upper tails of
    at most 1 each rounded to within an ulp of 1.0. So masses, and the fsum
    of them, agree within a few ulps of 1.0 (4 * 2**-52), not of the mass
    itself: a narrow cell near 3 differs by up to 3e-12 of its mass.
    """

    def test_conftest_families(self):
        rng = random.Random(2504)
        for k in range(800):
            base = random_profile_1d(rng, max_cells=8) if k % 2 else random_profile_2d(rng)
            self.check(random_annotated(rng, base) if k % 4 >= 2 else base)

    @pytest.mark.parametrize("family", sorted(FAMILIES))
    def test_small_scope_families(self, family):
        for p in FAMILIES[family]():
            self.check(p)

    @staticmethod
    def check(p):
        n = p.grid.shape[0]
        cell, facet = partial(reflected_cell, n), partial(reflected_facet, n)
        assert_relation(p, reflect_axis0(p), cell, facet, tolerance=4 * 2.0**-52)


class TestComplementSplit:
    def test_needs_one_dimension(self):
        p = Profile(Grid((0.0, 1.0), (0.0, 1.0)), {(0, 0): 0.5})
        with pytest.raises(ProfileError):
            check_gino(p)

    def test_passes_on_rigid_profile(self):
        p = Profile(Grid((-INF, 0.0, INF)), {(0,): 0.3, (1,): 0.7})
        report = check_gino(p)
        assert report
        assert report.set_indecomposable and report.complement_indecomposable

    def test_full_column_splits_complement(self):
        report = check_gino(three_column(0.3, 1.0, 0.6))
        assert report.set_indecomposable
        assert not report.complement_indecomposable
        assert not report

    def test_empty_column_splits_set(self):
        report = check_gino(three_column(0.3, 0.0, 0.6))
        assert not report.set_indecomposable
        assert report.complement_indecomposable

    def test_annotations_sever_each_side(self):
        grid = Grid((-INF, 0.0, INF))
        vals = {(0,): 0.5, (1,): 0.5}
        pinch = SingularAnnotation(Facet(0, 1, 0), 0.0, 0.5)
        assert not check_gino(Profile(grid, vals, [pinch])).set_indecomposable
        bulge = SingularAnnotation(Facet(0, 1, 0), 0.5, 1.0)
        assert not check_gino(Profile(grid, vals, [bulge])).complement_indecomposable

    def test_sufficient_for_rigidity_on_random_profiles(self):
        rng = random.Random(33)
        for _ in range(150):
            p = random_profile_1d(rng, max_cells=8)
            if check_gino(p):
                assert rigidity_verdict(p).rigid


@pytest.fixture
def scene_builds(monkeypatch):
    """Count scene rows built: a SceneCell per cell and a SceneFacet per
    G-G interface, made on the first read of a Scene's rows."""
    count = [0]

    def counting(real):
        def counted(*args, **kwargs):
            count[0] += 1
            return real(*args, **kwargs)

        return counted

    module = ehrhard.connectedness
    for name in ("SceneCell", "SceneFacet"):
        monkeypatch.setattr(module, name, counting(getattr(module, name)))
    return count


class TestSceneFree:
    """The verdict, the search, render_profile, a scene's G-cells and the
    sufficient conditions decide on flat edge data; a Scene's rows are
    built only where a caller reads them."""

    def test_decisions_build_no_scene(self, scene_builds):
        rng = random.Random(88)
        for _ in range(30):
            for base in (random_profile_1d(rng, max_cells=8), random_profile_2d(rng)):
                p = random_annotated(rng, base)
                report = rigidity_verdict(p)
                with suppress(SearchBoundError):
                    exhaustive_search(p)
                if p.grid.base_dim == 1:
                    rigidity_verdict_planar(p)
                    check_gino(p)
                render_profile(p)
                render_profile(p, report)
                assert scene(p).g_cells() == p.g_cells()
                check_pino(p)
        assert scene_builds[0] == 0
        sc = scene(p)
        assert scene_builds[0] == 0
        assert len(sc.facets) == len(reference_links(p)[1])
        assert scene_builds[0] == len(list(p.grid.cells())) + len(sc.facets)

    def test_connectedness_command_builds_a_scene(self, scene_builds, tmp_path, capsys):
        infile = tmp_path / "profile.json"
        infile.write_text(json.dumps(profile_to_json(three_column(0.3, 0.5, 0.6))))
        assert main(["connectedness", "--in", str(infile)]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["disconnects"] is False
        assert (len(doc["scene"]["cells"]), len(doc["scene"]["facets"])) == (3, 2)
        assert scene_builds[0] == 0  # the writer writes the rows from the profile


def drawn_blocked(p):
    """The facets render_profile(p) draws as blocked, in drawing order."""
    seen = []
    real = Grid.facet_coordinate

    def spy(grid, f):
        seen.append(f)
        return real(grid, f)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(Grid, "facet_coordinate", spy)
        render_profile(p)
    return seen


class TestFlatRoutes:
    """The flat routes agree with the public scene API."""

    @settings(deadline=None, max_examples=150)
    @given(st.one_of(family_profiles(), far_tail_profiles_1d()))
    def test_match_scene_api(self, p):
        sc = scene(p)
        disconnected, witness = essentially_disconnects(sc)
        theorem = rigidity_verdict(p)
        assert theorem.rigid == (not disconnected)
        if theorem.rigid:
            assert theorem.connectivity == witness
        else:
            assert theorem.certificate == witness
        reports = [theorem]
        if len(p.g_cells()) <= 12:
            reports.append(exhaustive_search(p))
        for report in reports:
            if not report.rigid:
                cert = report.certificate
                assert cert == certificate_for(sc, cert.minus_cells)
        assert drawn_blocked(p) == [sf.facet for sf in sc.facets if sf.blocked]
