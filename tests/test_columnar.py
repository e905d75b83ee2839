import copy
import dataclasses
import functools
import math
import pickle
import random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from ehrhard import (
    ColumnarSet,
    DomainError,
    Facet,
    Grid,
    GridError,
    HalflineClass,
    HorizontalFace,
    IntervalSet,
    SymdiffCheck,
    VerticalFace,
    common_refinement,
    complement,
    complement_facet_map,
    ehrhard_symmetral,
    from_profile,
    gamma1,
    gauss_perimeter,
    gauss_volume,
    gauss_weight,
    halfline_classification,
    isoperimetric_bound,
    lebesgue_volume,
    on_grid,
    psi,
    reflect,
    restrict,
    rigidity_verdict,
    steiner_symmetral,
    symdiff_volume,
)
from ehrhard.catalog import _mistico_profile
from ehrhard.columnar import _symdiff_walk
from ehrhard.connectedness import complement_indecomposable
from ehrhard.intervals import _lebesgue_sum
from ehrhard.jsonio import _dumps
from conftest import (
    assert_same_perimeter,
    assert_same_repr,
    holding_side,
    random_annotated,
    random_breakpoints,
    random_columnar,
    random_interval_set,
    random_profile_1d,
    random_profile_2d,
    reference_perimeter,
    reference_symdiff,
)

INF = math.inf

LINE_GRID = Grid((-INF, INF))
SPLIT_GRID = Grid((-INF, 0.0, INF))


def upper(mass):
    return IntervalSet.above(psi(mass))


class TestConstruction:
    def test_rejects_non_grid(self):
        with pytest.raises(GridError):
            ColumnarSet((-INF, INF), {})

    def test_rejects_non_interval_section(self):
        with pytest.raises(DomainError):
            ColumnarSet(LINE_GRID, {(0,): (0.0, 1.0)})

    def test_rejects_bad_cell(self):
        with pytest.raises(GridError):
            ColumnarSet(LINE_GRID, {(1,): IntervalSet.line()})

    def test_drops_empty_sections(self):
        e = ColumnarSet(SPLIT_GRID, {(0,): IntervalSet.empty(), (1,): IntervalSet.line()})
        assert e.support() == [(1,)]
        assert e.section((0,)).is_empty

    def test_equality(self):
        a = ColumnarSet(LINE_GRID, {(0,): IntervalSet.of(0.0, 1.0)})
        b = ColumnarSet(LINE_GRID, {(0,): IntervalSet.of(0.0, 1.0)})
        assert a == b
        assert a != ColumnarSet(LINE_GRID, {})
        assert a != "not a set"

    def test_hash_agrees_with_equality(self):
        for e in lazy_sets():
            twin = ColumnarSet(e.grid, e.sections)
            assert twin == e and hash(twin) == hash(e)
            assert {e: 1}[twin] == 1
        # == equates -0.0 and 0.0, and so does the hash
        signed = ColumnarSet(SPLIT_GRID, {(0,): IntervalSet.above(-0.0)})
        assert hash(signed) == hash(ColumnarSet(SPLIT_GRID, {(0,): IntervalSet.above(0.0)}))

    def test_is_empty(self):
        assert ColumnarSet(LINE_GRID, {}).is_empty
        assert not ColumnarSet(LINE_GRID, {(0,): IntervalSet.line()}).is_empty


class TestVolumes:
    def test_gauss_volume_of_half_spaces(self):
        assert gauss_volume(ColumnarSet(LINE_GRID, {(0,): IntervalSet.above(0.0)})) == 0.5
        e = ColumnarSet(LINE_GRID, {(0,): upper(0.3)})
        assert gauss_volume(e) == pytest.approx(0.3, rel=1e-12)

    def test_gauss_volume_of_vertical_half_space(self):
        e = ColumnarSet(SPLIT_GRID, {(1,): IntervalSet.line()})
        assert gauss_volume(e) == 0.5

    def test_whole_space_has_unit_mass(self):
        e = ColumnarSet(SPLIT_GRID, {(0,): IntervalSet.line(), (1,): IntervalSet.line()})
        assert gauss_volume(e) == 1.0

    def test_lebesgue_volume(self):
        g = Grid((0.0, 1.0, 3.0))
        e = ColumnarSet(g, {(0,): IntervalSet.of(0.0, 2.0), (1,): IntervalSet.of(0.0, 0.5)})
        assert lebesgue_volume(e) == 3.0
        unbounded = ColumnarSet(g, {(0,): IntervalSet.above(0.0)})
        assert lebesgue_volume(unbounded) == INF


class TestPerimeter:
    def test_horizontal_half_space(self):
        e = ColumnarSet(LINE_GRID, {(0,): IntervalSet.above(1.0)})
        b = gauss_perimeter(e)
        assert len(b.horizontal) == 1 and not b.vertical
        assert b.total_gauss == gauss_weight(1.0)
        face = b.horizontal[0]
        assert face.level == 1.0 and face.normal == -1

    def test_matches_isoperimetric_bound_exactly_for_half_space(self):
        for v in (0.1, 0.25, 0.5, 0.9):
            e = ColumnarSet(LINE_GRID, {(0,): upper(v)})
            assert gauss_perimeter(e).total_gauss == isoperimetric_bound(v)

    def test_vertical_half_space(self):
        e = ColumnarSet(SPLIT_GRID, {(1,): IntervalSet.line()})
        b = gauss_perimeter(e)
        assert not b.horizontal and len(b.vertical) == 1
        assert b.total_gauss == 1.0
        assert b.vertical[0].facet == Facet(0, 1, 0)
        assert b.vertical[0].normal == 1

    def test_strip(self):
        e = ColumnarSet(LINE_GRID, {(0,): IntervalSet.of(-1.0, 1.0)})
        assert gauss_perimeter(e).total_gauss == pytest.approx(
            1.2130613194252668, rel=1e-15
        )

    def test_quadrant(self):
        e = ColumnarSet(SPLIT_GRID, {(1,): IntervalSet.above(0.0)})
        b = gauss_perimeter(e)
        assert b.horizontal_gauss == 0.5
        assert b.vertical_gauss == 0.5
        assert b.total_gauss == 1.0

    def test_octant_over_planar_base(self):
        g = Grid((-INF, 0.0, INF), (-INF, 0.0, INF))
        e = ColumnarSet(g, {(1, 1): IntervalSet.above(0.0)})
        b = gauss_perimeter(e)
        assert b.horizontal_gauss == 0.25
        assert b.vertical_gauss == 0.5
        assert b.total_gauss == 0.75

    def test_exterior_counts_as_empty(self):
        g = Grid((0.0, 1.0))
        e = ColumnarSet(g, {(0,): IntervalSet.of(0.0, 1.0)})
        b = gauss_perimeter(e)
        by_facet = {f.facet: f for f in b.vertical}
        assert set(by_facet) == {Facet(0, 0, 0), Facet(0, 1, 0)}
        assert b.total_lebesgue == pytest.approx(4.0)

    def test_perimeter_of_empty_set(self):
        b = gauss_perimeter(ColumnarSet(LINE_GRID, {}))
        assert b.total_gauss == 0.0 and not b.horizontal and not b.vertical

    def test_isoperimetric_inequality_on_random_sets(self):
        rng = random.Random(11)
        for _ in range(50):
            e = random_columnar(rng)
            v = gauss_volume(e)
            if not 0.0 < v < 1.0:
                continue
            assert gauss_perimeter(e).total_gauss >= isoperimetric_bound(v) - 1e-9


# few endpoints, so neighbouring sections share, touch and cross them often
ENDPOINTS = (-INF, -1.5, -0.0, 0.0, 0.5, 1.5, INF)
POOLED_GRIDS = (
    LINE_GRID,
    SPLIT_GRID,
    Grid((-1.0, 0.0, 1.0, 2.0)),
    Grid((-INF, 0.0, INF), (-1.0, 0.5, INF)),
    Grid((0.0, 1.0), (-INF, -1.0, 0.0, 1.0)),
)


@st.composite
def pooled_sections(draw):
    pts = sorted(draw(st.lists(st.sampled_from(ENDPOINTS), max_size=6)))
    return IntervalSet.from_pairs((lo, hi) for lo, hi in zip(pts[::2], pts[1::2]) if lo < hi)


@st.composite
def pooled_columnar(draw):
    """Sets whose sections come from a palette of at most three, so that
    neighbours are often equal; -0.0 and 0.0 both occur as endpoints."""
    grid = draw(st.sampled_from(POOLED_GRIDS))
    palette = draw(st.lists(pooled_sections(), min_size=1, max_size=3))
    return ColumnarSet(grid, {cid: draw(st.sampled_from(palette)) for cid in grid.cells()})


seeded_columnar = st.integers(0, 2**32 - 1).map(lambda seed: random_columnar(random.Random(seed)))


class TestPerimeterBitIdentity:
    """gauss_perimeter equals the per-facet symdiff loop bit for bit."""

    @settings(deadline=None, max_examples=400)
    @given(st.one_of(pooled_columnar(), seeded_columnar))
    def test_matches_reference(self, e):
        assert_same_perimeter(e)

    @settings(deadline=None, max_examples=60)
    @given(st.integers(0, 2**32 - 1))
    def test_matches_reference_on_model_sets(self, seed):
        rng = random.Random(seed)
        p = random_annotated(rng, random_profile_2d(rng))
        f = from_profile(p)
        report = rigidity_verdict(p)
        for e in (f, complement(f), report.counterexample):
            if e is not None:
                assert_same_perimeter(e)

    def test_matches_reference_on_a_catalog_grid(self):
        p = _mistico_profile(1 / 16)
        f = from_profile(p)
        for e in (f, rigidity_verdict(p).counterexample, complement(f), reflect(f)):
            assert_same_perimeter(e)

    @pytest.mark.parametrize(
        "a, b",
        [
            ((-INF, 0.0), (-INF, -0.0)),  # equal up to the sign of zero
            ((-INF, 0.0), (-0.0, INF)),  # touching at a signed zero
            ((-INF, 1.0), (1.0, INF)),  # touching: the full line
            ((-1.0, 0.5), (0.5, 1.5)),  # touching at a finite point
            ((0.0, 1.0), (0.0, 2.0)),  # shared lower end
            ((-1.0, INF), (0.5, INF)),  # shared upper end
            ((-1.0, 0.5), (0.0, 1.5)),  # overlapping
            ((-1.0, 1.5), (0.0, 0.5)),  # nested
            ((-INF, -1.0), (1.0, INF)),  # disjoint
        ],
    )
    def test_single_interval_neighbours(self, a, b):
        for lo, hi in ((a, b), (b, a)):
            e = ColumnarSet(SPLIT_GRID, {(0,): IntervalSet.of(*lo), (1,): IntervalSet.of(*hi)})
            assert_same_perimeter(e)


@st.composite
def pooled_pairs(draw):
    """Two sets on one pooled grid, each from its own palette."""
    grid = draw(st.sampled_from(POOLED_GRIDS))
    palette = draw(st.lists(pooled_sections(), min_size=1, max_size=4))
    return tuple(
        ColumnarSet(grid, {cid: draw(st.sampled_from(palette)) for cid in grid.cells()})
        for _ in range(2)
    )


def seeded_pair(seed):
    """A conftest columnar set and a second set on its grid."""
    rng = random.Random(seed)
    e = random_columnar(rng)
    other = random_columnar(rng)
    sections = dict(zip(e.grid.cells(), [*other.sections.values(), *e.sections.values()]))
    return e, ColumnarSet(e.grid, sections)


def assert_same_symdiff(e, f):
    """The walk, plain and mirrored, is the definition by ``repr``."""
    assert_same_repr(symdiff_volume(e, f), reference_symdiff(e, f))
    assert_same_repr(_symdiff_walk(e, f), reference_symdiff(e, f))
    assert_same_repr(_symdiff_walk(e, f, mirrored=True), reference_symdiff(e, reflect(f)))


class TestSymdiffWalk:
    """symdiff_volume and its mirrored walk equal the per-cell definition."""

    @settings(deadline=None, max_examples=400)
    @given(st.one_of(pooled_pairs(), st.integers(0, 2**32 - 1).map(seeded_pair)))
    def test_matches_definition(self, pair):
        e, f = pair
        assert_same_symdiff(e, f)
        assert_same_symdiff(f, e)

    @settings(deadline=None, max_examples=60)
    @given(st.integers(0, 2**32 - 1))
    def test_matches_definition_on_model_sets(self, seed):
        rng = random.Random(seed)
        make = random_profile_1d if rng.random() < 0.5 else random_profile_2d
        p = random_annotated(rng, make(rng))
        f = from_profile(p)
        report = rigidity_verdict(p)
        assert_same_symdiff(f, f)
        assert_same_symdiff(f, reflect(f))
        if not report.rigid:
            e = report.counterexample
            assert_same_symdiff(e, f)
            assert_same_repr(
                report.symdiff_check,
                SymdiffCheck(reference_symdiff(e, f), reference_symdiff(e, reflect(f))),
            )

    def test_matches_definition_on_a_catalog_grid(self):
        p = _mistico_profile(1 / 16)
        report = rigidity_verdict(p)
        assert_same_symdiff(report.counterexample, from_profile(p))

    @pytest.mark.parametrize(
        "a, b",
        [
            ((-INF, 0.0), (-INF, -0.0)),  # equal up to the sign of zero
            ((-0.0, INF), (0.0, INF)),
            ((-INF, 0.0), (-0.0, INF)),  # touching at a signed zero
            ((0.0, 1.5), (-1.5, -0.0)),  # mirror images
            ((-INF, INF), (-1.5, INF)),
            ((-INF, -1.5), (1.5, INF)),
        ],
    )
    def test_signed_zero_and_infinite_endpoints(self, a, b):
        for lo, hi in ((a, b), (b, a)):
            e = ColumnarSet(SPLIT_GRID, {(0,): IntervalSet.of(*lo), (1,): IntervalSet.of(*hi)})
            f = ColumnarSet(SPLIT_GRID, {(0,): IntervalSet.of(*hi), (1,): IntervalSet.of(*lo)})
            assert_same_symdiff(e, f)
            assert_same_symdiff(e, e)

    @settings(deadline=None, max_examples=100)
    @given(pooled_columnar(), pooled_columnar())
    def test_across_grids_refines_first(self, e, f):
        assume(e.grid.base_dim == f.grid.base_dim)
        assert_same_repr(symdiff_volume(e, f), reference_symdiff(*common_refinement(e, f)))


def nonrigid_reports(make_profile, seeds=range(40)):
    """NonRigid theorem reports of annotated conftest profiles."""
    reports = []
    for seed in seeds:
        rng = random.Random(seed)
        report = rigidity_verdict(random_annotated(rng, make_profile(rng)))
        if not report.rigid:
            reports.append(report)
    assert reports
    return reports


@functools.cache
def lazy_sets():
    """Model sets and competitors of mistico h=1/16 and of NonRigid
    conftest profiles, with a few random columnar sets."""
    sets = []
    for report in [rigidity_verdict(_mistico_profile(1 / 16))] + nonrigid_reports(
        random_profile_2d, range(10)
    ):
        sets += [report._model, report.counterexample]
    rng = random.Random(17)
    return tuple(sets + [random_columnar(rng) for _ in range(10)])


def count_constructions(monkeypatch):
    """From now on, count every HorizontalFace, VerticalFace and Facet built."""
    counts = {}
    for cls in (HorizontalFace, VerticalFace, Facet):

        def spy(self, *args, _init=cls.__init__, _name=cls.__name__, **kwargs):
            counts[_name] = counts.get(_name, 0) + 1
            _init(self, *args, **kwargs)

        monkeypatch.setattr(cls, "__init__", spy)
    return counts


class TestLazyFaces:
    """gauss_perimeter prices its totals without building a face, and the
    faces it builds on first read match the totals and the eager faces."""

    def test_spy_sees_faces(self, monkeypatch):
        pb = gauss_perimeter(ColumnarSet(SPLIT_GRID, {(1,): IntervalSet.above(0.0)}))
        counts = count_constructions(monkeypatch)
        assert pb.vertical[0].facet == Facet(0, 1, 0)
        # one face of each kind, one Facet for the face, one for the comparison
        assert counts == {"HorizontalFace": 1, "VerticalFace": 1, "Facet": 2}

    @pytest.mark.parametrize(
        "reports",
        [
            pytest.param(lambda: [rigidity_verdict(_mistico_profile(1 / 16))], id="mistico"),
            pytest.param(lambda: nonrigid_reports(random_profile_1d), id="1d"),
            pytest.param(lambda: nonrigid_reports(random_profile_2d), id="2d"),
        ],
    )
    def test_perimeter_check_builds_no_face(self, monkeypatch, reports):
        reports = reports()
        counts = count_constructions(monkeypatch)
        for report in reports:
            assert report.perimeter_check is not None
        assert counts == {}

    def test_totals_match_lazy_faces(self):
        for e in lazy_sets():
            pb = gauss_perimeter(e)
            totals = (pb.horizontal_gauss, pb.vertical_gauss, pb.total_lebesgue)
            assert "horizontal" not in vars(pb) and "vertical" not in vars(pb)
            faces = (
                math.fsum(face.gauss for face in pb.horizontal),
                math.fsum(face.gauss for face in pb.vertical),
                _lebesgue_sum(face.lebesgue for face in pb.horizontal + pb.vertical),
            )
            assert_same_repr(totals, faces)
            assert_same_repr(pb, reference_perimeter(e))

    def test_copies_keep_faces(self):
        for e in lazy_sets():
            want = reference_perimeter(e)
            for copy_of in (lambda pb: pickle.loads(pickle.dumps(pb)), copy.copy):
                pb = gauss_perimeter(e)
                twin = copy_of(pb)
                assert "horizontal" not in vars(twin)
                assert_same_repr(twin, want)
                assert_same_repr(pb, want)
                assert hash(twin) == hash(pb)
            pb = gauss_perimeter(e)
            bumped = dataclasses.replace(pb, total_gauss=-1.0)
            assert (bumped.horizontal, bumped.vertical) == (pb.horizontal, pb.vertical)
            assert bumped.total_gauss == -1.0

    def test_json_matches_eager(self):
        for e in lazy_sets():
            assert _dumps(gauss_perimeter(e)) == _dumps(reference_perimeter(e))


class TestReflect:
    def test_involution_exact(self):
        rng = random.Random(12)
        for _ in range(25):
            e = random_columnar(rng)
            assert reflect(reflect(e)) == e

    def test_preserves_measures(self):
        # Interval masses re-evaluate phi at negated endpoints, so agreement
        # is to an ulp rather than bit-for-bit.
        rng = random.Random(13)
        for _ in range(25):
            e = random_columnar(rng)
            assert gauss_volume(reflect(e)) == pytest.approx(
                gauss_volume(e), rel=1e-13, abs=1e-15
            )
            assert gauss_perimeter(reflect(e)).total_gauss == pytest.approx(
                gauss_perimeter(e).total_gauss, rel=1e-13, abs=1e-15
            )


class TestEhrhardSymmetral:
    def test_sections_become_upper_half_lines(self):
        rng = random.Random(14)
        for _ in range(25):
            s = ehrhard_symmetral(random_columnar(rng))
            for cid in s.support():
                sec = s.section(cid)
                assert len(sec) == 1
                assert sec.intervals[0].hi == INF

    def test_volume_conserved(self):
        rng = random.Random(15)
        for _ in range(25):
            e = random_columnar(rng)
            assert gauss_volume(ehrhard_symmetral(e)) == pytest.approx(
                gauss_volume(e), rel=1e-11, abs=1e-13
            )

    def test_full_and_empty_columns_exact(self):
        e = ColumnarSet(SPLIT_GRID, {(0,): IntervalSet.line()})
        s = ehrhard_symmetral(e)
        assert s.section((0,)) == IntervalSet.line()
        assert s.section((1,)).is_empty

    def test_perimeter_never_increases(self):
        rng = random.Random(16)
        for _ in range(50):
            e = random_columnar(rng)
            before = gauss_perimeter(e).total_gauss
            after = gauss_perimeter(ehrhard_symmetral(e)).total_gauss
            assert after <= before + 1e-9


class TestSteinerSymmetral:
    def test_sections_are_centered(self):
        rng = random.Random(17)
        for _ in range(25):
            s = steiner_symmetral(random_columnar(rng, bounded=True))
            for cid in s.support():
                sec = s.section(cid)
                assert len(sec) == 1
                iv = sec.intervals[0]
                assert iv.lo == -iv.hi

    def test_lebesgue_volume_conserved_exactly(self):
        rng = random.Random(18)
        for _ in range(25):
            e = random_columnar(rng, bounded=True)
            assert lebesgue_volume(steiner_symmetral(e)) == lebesgue_volume(e)

    def test_unbounded_column_becomes_full_line(self):
        e = ColumnarSet(SPLIT_GRID, {(0,): IntervalSet.above(2.0)})
        assert steiner_symmetral(e).section((0,)) == IntervalSet.line()

    def test_lebesgue_perimeter_never_increases(self):
        rng = random.Random(19)
        for _ in range(50):
            e = random_columnar(rng, bounded=True)
            before = gauss_perimeter(e).total_lebesgue
            after = gauss_perimeter(steiner_symmetral(e)).total_lebesgue
            assert after <= before + 1e-9


# two finite columns whose lengths sum past the float range
WIDE = IntervalSet.from_pairs([(0, 1e308), (-1e308, -1)])
WIDE_CELLS = Grid((-1e308, -1.0, 1.0, 1e308))


class TestLebesgueOverflow:
    """Lebesgue sums that pass the float range read inf (math.fsum raises)."""

    def test_volume_and_steiner_symmetral(self):
        e = ColumnarSet(Grid((0.0, 1.0)), {(0,): WIDE})
        assert lebesgue_volume(e) == INF
        assert steiner_symmetral(e).section((0,)) == IntervalSet.line()

    def test_volume_over_wide_cells(self):
        e = ColumnarSet(WIDE_CELLS, {(0,): IntervalSet.of(0.0, 1.0), (2,): IntervalSet.of(0.0, 1.0)})
        assert lebesgue_volume(e) == INF

    def test_perimeter_of_a_wide_column(self):
        e = ColumnarSet(Grid((0.0, 1.0, 2.0)), {(0,): WIDE})
        assert gauss_perimeter(e).total_lebesgue == INF
        assert_same_perimeter(e)

    def test_perimeter_over_wide_cells(self):
        e = ColumnarSet(WIDE_CELLS, {(0,): IntervalSet.of(0.0, 1.0), (2,): IntervalSet.of(0.0, 1.0)})
        b = gauss_perimeter(e)
        assert all(face.lebesgue < INF for face in b.horizontal + b.vertical)
        assert b.total_lebesgue == INF


class TestSetOperations:
    def test_restrict(self):
        e = ColumnarSet(SPLIT_GRID, {(0,): IntervalSet.line(), (1,): IntervalSet.above(0.0)})
        r = restrict(e, [(1,)])
        assert r.support() == [(1,)]
        with pytest.raises(GridError):
            restrict(e, [(7,)])

    def test_complement_masses(self):
        rng = random.Random(20)
        for _ in range(25):
            e = random_columnar(rng)
            assert gauss_volume(e) + gauss_volume(complement(e)) == pytest.approx(
                1.0, abs=1e-12
            )

    def test_double_complement_is_identity_in_measure(self):
        rng = random.Random(21)
        for _ in range(25):
            e = random_columnar(rng)
            assert symdiff_volume(complement(complement(e)), e) == 0.0

    def test_complement_extends_grid(self):
        g = Grid((0.0, 1.0))
        e = ColumnarSet(g, {(0,): IntervalSet.above(0.0)})
        c = complement(e)
        assert c.grid.axes[0] == (-INF, 0.0, 1.0, INF)
        assert c.section((0,)) == IntervalSet.line()
        assert c.section((1,)) == IntervalSet.below(0.0)
        assert c.section((2,)) == IntervalSet.line()

    def test_complement_facet_map(self):
        g = Grid((0.0, 1.0))
        big = complement(ColumnarSet(g, {})).grid
        assert complement_facet_map(g, big, Facet(0, 0, 0)) == Facet(0, 1, 0)
        sym = Grid((-INF, 0.0, INF))
        assert complement_facet_map(sym, sym, Facet(0, 1, 0)) == Facet(0, 1, 0)

    def test_complement_facet_map_needs_the_original_held(self):
        with pytest.raises(GridError):
            complement_facet_map(Grid((0.0, 1.0)), Grid((5.0, 6.0)), Facet(0, 0))
        # a grid that holds only some breakpoints of the original
        with pytest.raises(GridError):
            complement_facet_map(Grid((0.0, 1.0, 2.0)), Grid((-INF, 0.0, 0.5, INF)), Facet(0, 1))

    def test_complement_facet_map_lateral_shift(self):
        g = Grid((0.0, 1.0, 2.0), (0.0, 1.0))
        big = complement(ColumnarSet(g, {})).grid
        f = complement_facet_map(g, big, Facet(0, 1, 0))
        assert f == Facet(0, 2, 1)

    def test_facets_outside_the_grid_shift_and_sever_nothing(self):
        g = Grid((0.0, 1.0, 2.0), (0.0, 1.0))
        big = complement(ColumnarSet(g, {})).grid
        outside = {Facet(0, 9, 0): Facet(0, 10, 1), Facet(1, 1, 5): Facet(1, 2, 6)}
        for f, moved in outside.items():
            assert complement_facet_map(g, big, f) == moved
            assert big.edge_index(moved) is None
        rng = random.Random(24)
        for _ in range(20):
            e = ColumnarSet(g, {cid: random_interval_set(rng) for cid in g.cells()})
            assert complement_indecomposable(e, list(outside)) == complement_indecomposable(e)


class TestRegridding:
    def test_on_grid_preserves_measures(self):
        rng = random.Random(22)
        for _ in range(25):
            e = random_columnar(rng)
            fine = e.grid.refine_with(
                Grid(tuple(sorted(set(e.grid.axes[0]) | {0.123, -0.456})))
            )
            e2 = on_grid(e, fine)
            assert gauss_volume(e2) == pytest.approx(gauss_volume(e), abs=1e-14)
            assert gauss_perimeter(e2).total_gauss == pytest.approx(
                gauss_perimeter(e).total_gauss, rel=1e-12, abs=1e-14
            )

    def test_on_grid_refined_on_both_axes(self):
        rng = random.Random(25)
        for _ in range(25):
            coarse = Grid(random_breakpoints(rng, 4), random_breakpoints(rng, 4))
            e = ColumnarSet(coarse, {cid: random_interval_set(rng) for cid in coarse.cells()})
            fine = Grid(*(
                sorted({*bps, *(rng.uniform(max(bps[0], -4.0), min(bps[-1], 4.0)) for _ in range(3))})
                for bps in coarse.axes
            ))
            e2 = on_grid(e, fine)
            assert e2.grid == fine
            for cid in fine.cells():
                parent = tuple(
                    holding_side(coarse.axes[axis], *fine.axes[axis][c : c + 2])
                    for axis, c in enumerate(cid)
                )
                assert e2.section(cid) == e.section(parent)
            assert gauss_volume(e2) == pytest.approx(gauss_volume(e), abs=1e-14)
            assert gauss_perimeter(e2).total_gauss == pytest.approx(
                gauss_perimeter(e).total_gauss, rel=1e-12, abs=1e-14
            )

    def test_on_grid_rejects_another_base_dimension(self):
        plane = ColumnarSet(Grid((0.0, 1.0), (0.0, 1.0)), {(0, 0): IntervalSet.line()})
        with pytest.raises(GridError, match="1-D grid on a 2-D"):
            on_grid(plane, Grid((0.0, 0.5, 1.0)))

    def test_common_refinement(self):
        a = ColumnarSet(Grid((-INF, 0.0, INF)), {(1,): IntervalSet.line()})
        b = ColumnarSet(Grid((-INF, 1.0, INF)), {(0,): IntervalSet.line()})
        a2, b2 = common_refinement(a, b)
        assert a2.grid == b2.grid == Grid((-INF, 0.0, 1.0, INF))
        assert symdiff_volume(a, b) == pytest.approx(
            gamma1(IntervalSet.empty().union(IntervalSet.of(-INF, 0.0)))
            + gamma1(IntervalSet.above(1.0)),
            rel=1e-12,
        )

    def test_symdiff_volume_self_is_zero(self):
        rng = random.Random(23)
        for _ in range(25):
            e = random_columnar(rng)
            assert symdiff_volume(e, e) == 0.0

    def test_symdiff_volume_against_disjoint(self):
        e = ColumnarSet(SPLIT_GRID, {(0,): IntervalSet.above(0.0)})
        f = ColumnarSet(SPLIT_GRID, {(1,): IntervalSet.below(0.0)})
        assert symdiff_volume(e, f) == pytest.approx(0.5, rel=1e-14)


class TestHalflineClassification:
    def test_labels(self):
        g = Grid((-INF, -1.0, 0.0, 1.0, 2.0, INF))
        e = ColumnarSet(
            g,
            {
                (0,): IntervalSet.above(1.5),
                (1,): IntervalSet.below(-0.5),
                (2,): IntervalSet.line(),
                (4,): IntervalSet.of(-1.0, 1.0),
            },
        )
        c = halfline_classification(e)
        assert c.labels[(0,)] is HalflineClass.PLUS
        assert c.labels[(1,)] is HalflineClass.MINUS
        assert c.labels[(2,)] is HalflineClass.FULL
        assert c.labels[(3,)] is HalflineClass.NULL
        assert c.labels[(4,)] is HalflineClass.OTHER
        assert not c.total
        assert c.count(HalflineClass.NULL) == 1

    def test_symmetral_output_is_total(self):
        rng = random.Random(24)
        for _ in range(25):
            s = ehrhard_symmetral(random_columnar(rng))
            c = halfline_classification(s)
            assert c.total
            assert c.count(HalflineClass.MINUS) == 0

    def test_near_halfline_within_tolerance(self):
        e = ColumnarSet(LINE_GRID, {(0,): IntervalSet.above(0.5)})
        loose = halfline_classification(e, tolerance=1e-6)
        assert loose.labels[(0,)] is HalflineClass.PLUS
        assert loose.tolerance == 1e-6
