import copy
import dataclasses
import functools
import itertools
import math
import pickle
import random

import pytest

import ehrhard.catalog
from ehrhard import (
    ColumnarSet,
    Facet,
    Grid,
    IntervalSet,
    PartitionCertificate,
    PartitionError,
    Profile,
    SingularAnnotation,
    SpanningStructure,
    Verdict,
    certificate_for,
    complement_indecomposable,
    decompose,
    essentially_disconnects,
    exhaustive_search,
    gauss_perimeter,
    gauss_volume,
    indecomposable,
    rigidity_verdict,
    scene,
    symdiff_volume,
)
from ehrhard.connectedness import _join, decompose_ids
from ehrhard.jsonio import _dumps
from ehrhard.render import render_profile
from conftest import (
    assert_same_repr,
    assert_same_text,
    random_annotated,
    random_profile_1d,
    random_profile_2d,
    reference_certificate,
    reference_decide,
    reference_render,
    reference_scene_repr,
    reference_search,
)
from test_columnar import count_constructions
from test_exhaustive import FAMILIES

INF = math.inf


def brute_force_disconnects(s):
    """Independent oracle: try every two-coloring of the G-cells."""
    g = s.g_cells()
    for r in range(1, len(g)):
        for minus in itertools.combinations(g, r):
            cert = certificate_for(s, minus)
            if cert.separating:
                return True
    return False


def sets_of(roots):
    """The sets of a _join result, each ascending, in order of first member."""
    out = {}
    for x, root in enumerate(roots):
        out.setdefault(root, []).append(x)
    return list(out.values())


class TestJoin:
    def test_union_and_groups(self):
        links = [("a", 3, 1), ("b", 1, 3), ("c", 4, 2)]
        roots, joined = _join(5, links)
        assert joined == ["a", "c"]
        assert sets_of(roots) == [[0], [1, 3], [2, 4]]
        roots, joined = _join(5, [*links, ("d", 4, 3)])
        assert joined == ["a", "c", "d"]
        assert sets_of(roots) == [[0], [1, 2, 3, 4]]

    def test_roots_are_smallest_members(self):
        chain = [(k, a, b) for k, (a, b) in enumerate(((5, 4), (4, 3), (3, 2), (2, 1)))]
        assert _join(6, chain) == ([0, 1, 1, 1, 1, 1], [0, 1, 2, 3])
        roots, joined = _join(6, [*chain, (4, 5, 0)])
        assert roots == [0] * 6 and joined == [0, 1, 2, 3, 4]

    def test_matches_components(self):
        """Against relabelled components: every root is the smallest member
        of its set, and the keys that joined two sets come in link order."""
        rng = random.Random(17)
        for _ in range(300):
            n = rng.randint(1, 12)
            links = [(k, rng.randrange(n), rng.randrange(n)) for k in range(rng.randint(0, 15))]
            label = list(range(n))
            tree = []
            for key, a, b in links:
                if label[a] != label[b]:
                    tree.append(key)
                    old, new = max(label[a], label[b]), min(label[a], label[b])
                    label = [new if x == old else x for x in label]
            assert _join(n, iter(links)) == (label, tree), links

    def test_deep_chain_resolves_to_zero(self):
        # n - 1 hangs under n - 2, ..., 1 under 0: a path of depth n - 1
        n = 2000
        links = [(k, k, k - 1) for k in range(n - 1, 0, -1)]
        roots, joined = _join(n, [*links, (-1, n - 1, 0)])
        assert roots == [0] * n
        assert joined == list(range(n - 1, 0, -1))

    def test_empty(self):
        assert _join(0, []) == ([], [])


class TestSceneConnectivity:
    def grid(self):
        return Grid((-INF, -1.0, 0.0, 1.0, INF))

    def profile(self, values, annotations=()):
        cells = {(i,): v for i, v in enumerate(values)}
        return Profile(self.grid(), cells, annotations)

    def test_contiguous_g_is_connected(self):
        flag, witness = essentially_disconnects(scene(self.profile((0.3, 0.5, 0.6, 0.4))))
        assert not flag
        assert isinstance(witness, SpanningStructure)
        assert len(witness.cells) == 4
        assert len(witness.tree_facets) == 3

    def test_gap_in_g_disconnects(self):
        flag, witness = essentially_disconnects(scene(self.profile((0.3, 1.0, 0.6, 0.4))))
        assert flag
        assert isinstance(witness, PartitionCertificate)
        assert witness.separating
        assert witness.minus_cells == ((0,),)
        assert witness.plus_cells == ((2,), (3,))
        assert witness.unblocked_interface_measure == 0.0
        assert witness.plus_gauss > 0.0 and witness.minus_gauss > 0.0

    def test_blocking_annotation_disconnects(self):
        ann = SingularAnnotation(Facet(0, 2, 0), 0.0, 0.5)
        flag, witness = essentially_disconnects(
            scene(self.profile((0.3, 0.5, 0.6, 0.4), [ann]))
        )
        assert flag
        assert witness.minus_cells == ((0,), (1,))
        assert witness.interface_facets == (Facet(0, 2, 0),)

    def test_saturating_annotation_disconnects_ehrhard_only(self):
        ann = SingularAnnotation(Facet(0, 2, 0), 0.5, 1.0)
        p = self.profile((0.3, 0.5, 0.6, 0.4), [ann])
        assert essentially_disconnects(scene(p))[0]
        assert not essentially_disconnects(scene(p, kind="steiner"))[0]

    def test_empty_g_vacuous(self):
        p = self.profile((0.0, 1.0, 0.0, 1.0))
        flag, witness = essentially_disconnects(scene(p))
        assert not flag
        assert witness == SpanningStructure(cells=(), tree_facets=())

    def test_certificate_for_validates_minus_side(self):
        s = scene(self.profile((0.3, 0.5, 0.6, 0.4)))
        with pytest.raises(PartitionError):
            certificate_for(s, [(9,)])

    def test_underflowed_unblocked_facet_does_not_separate(self):
        # the facet at 40 weighs exp(-800) == 0.0 but is unblocked
        p = Profile(Grid((-INF, 40.0, 41.0, INF)), {(i,): 0.5 for i in range(3)})
        s = scene(p)
        cert = certificate_for(s, [(0,)])
        assert cert.unblocked_interface_measure == 0.0
        assert cert.interface_facets == (Facet(0, 1, 0),)
        assert cert._unblocked_crossings == 1
        assert not cert.separating
        assert not essentially_disconnects(s)[0]

    def test_non_separating_certificate(self):
        s = scene(self.profile((0.3, 0.5, 0.6, 0.4)))
        cert = certificate_for(s, [(0,), (2,)])
        assert not cert.separating
        assert cert.unblocked_interface_measure > 0.0
        assert len(cert.interface_facets) == 3

    def test_matches_brute_force_oracle(self):
        rng = random.Random(404)
        for _ in range(120):
            p = random_profile_1d(rng, max_cells=8)
            s = scene(p)
            facets = [sf.facet for sf in s.facets]
            anns = [
                SingularAnnotation(f, 0.0, 0.5)
                for f in facets
                if rng.random() < 0.25
            ]
            if anns:
                p = Profile(p.grid, p.values, anns)
                s = scene(p)
            assert essentially_disconnects(s)[0] == brute_force_disconnects(s)


class TestDecompose:
    def grid(self):
        return Grid((-INF, 0.0, 1.0, INF))

    def test_stacked_intervals_are_separate_pieces(self):
        e = ColumnarSet(
            Grid((-INF, INF)),
            {(0,): IntervalSet.from_pairs([(0.0, 1.0), (2.0, 3.0)])},
        )
        assert decompose_ids(e) == [[((0,), 0)], [((0,), 1)]]
        assert not indecomposable(e)

    def test_bridge_column_joins_pieces(self):
        e = ColumnarSet(
            self.grid(),
            {
                (0,): IntervalSet.from_pairs([(0.0, 1.0), (2.0, 3.0)]),
                (1,): IntervalSet.of(0.5, 2.5),
            },
        )
        assert len(decompose_ids(e)) == 1
        assert indecomposable(e)

    def test_touching_sections_do_not_connect(self):
        e = ColumnarSet(
            self.grid(),
            {(0,): IntervalSet.of(0.0, 1.0), (1,): IntervalSet.of(1.0, 2.0)},
        )
        assert len(decompose_ids(e)) == 2

    def test_severed_facet_disconnects(self):
        e = ColumnarSet(
            self.grid(),
            {(0,): IntervalSet.of(0.0, 1.0), (1,): IntervalSet.of(0.0, 1.0)},
        )
        assert indecomposable(e)
        assert not indecomposable(e, severed_facets=[Facet(0, 1, 0)])

    def test_far_tail_pieces_count(self):
        # gamma1((200, 201)) underflows to 0.0, but the interval is
        # non-degenerate, so it has positive measure and is a piece
        far = IntervalSet.of(200.0, 201.0)
        e = ColumnarSet(self.grid(), {(0,): far})
        assert decompose_ids(e) == [[((0,), 0)]]
        assert indecomposable(e)

    def test_far_tail_overlap_connects(self):
        # the overlap (200, 201) of the two columns is non-degenerate
        e = ColumnarSet(
            self.grid(),
            {(0,): IntervalSet.of(199.0, 201.0), (1,): IntervalSet.of(200.0, 202.0)},
        )
        assert decompose_ids(e) == [[((0,), 0), ((1,), 0)]]

    def test_empty_set_decomposable(self):
        assert not indecomposable(ColumnarSet(self.grid(), {}))

    def test_far_tail_facets_connect(self):
        # the facets at 40 and 41 weigh exp(-z*z/2), which underflows to 0.0,
        # but they have positive measure and must join the full columns
        g = Grid((-INF, 0.0, 40.0, 41.0, INF))
        assert g.facet_gauss(Facet(0, 2, 0)) == 0.0
        e = ColumnarSet(g, {cid: IntervalSet.line() for cid in g.cells()})
        assert indecomposable(e)

    def test_decompose_partitions_the_set(self):
        e = ColumnarSet(
            self.grid(),
            {
                (0,): IntervalSet.from_pairs([(-2.0, -1.0), (1.0, 2.0)]),
                (1,): IntervalSet.of(1.5, 3.0),
            },
        )
        parts = decompose(e)
        assert len(parts) == 2
        union_volume = sum(gauss_volume(q) for q in parts)
        assert union_volume == pytest.approx(gauss_volume(e), abs=1e-14)
        rebuilt = {}
        for q in parts:
            for cid in q.support():
                rebuilt[cid] = rebuilt.get(cid, IntervalSet.empty()).union(q.section(cid))
        assert symdiff_volume(ColumnarSet(e.grid, rebuilt), e) == 0.0

    def test_perimeter_additivity(self):
        e = ColumnarSet(
            self.grid(),
            {
                (0,): IntervalSet.from_pairs([(-2.0, -1.0), (1.0, 2.0)]),
                (1,): IntervalSet.from_pairs([(-2.5, -0.5), (3.0, 4.0)]),
            },
        )
        parts = decompose(e)
        total = math.fsum(gauss_perimeter(q).total_gauss for q in parts)
        assert total == pytest.approx(gauss_perimeter(e).total_gauss, abs=1e-12)


class TestComplementSide:
    def test_half_space_complement_connected(self):
        e = ColumnarSet(Grid((-INF, INF)), {(0,): IntervalSet.above(0.0)})
        assert complement_indecomposable(e)

    def test_strip_complement_splits(self):
        e = ColumnarSet(Grid((-INF, INF)), {(0,): IntervalSet.of(-1.0, 1.0)})
        assert not complement_indecomposable(e)

    def test_box_complement_connected(self):
        g = Grid((0.0, 1.0))
        e = ColumnarSet(g, {(0,): IntervalSet.of(0.0, 1.0)})
        assert complement_indecomposable(e)

    def test_severed_facets_are_remapped(self):
        g = Grid((0.0, 1.0))
        e = ColumnarSet(g, {})
        assert complement_indecomposable(e)
        assert not complement_indecomposable(e, severed_facets=[Facet(0, 0, 0)])


def random_family(name):
    """200 conftest profiles: 1-D, 2-D, or annotated (half of them 1-D)."""
    rng = random.Random(f"cut-{name}")
    if name == "1d":
        return [random_profile_1d(rng) for _ in range(200)]
    if name == "2d":
        return [random_profile_2d(rng) for _ in range(200)]
    make = (random_profile_1d, random_profile_2d)
    return [random_annotated(rng, make[k % 2](rng)) for k in range(200)]


CUT_FAMILIES = {
    **{f"conftest-{n}": functools.partial(random_family, n) for n in ("1d", "2d", "annotated")},
    **{f"exhaustive-{n}": make for n, make in FAMILIES.items()},
}
CATALOG = {
    "mistico-h16": lambda: [ehrhard.catalog._mistico_profile(1 / 16)],
    "koch-h8": lambda: [ehrhard.catalog._koch_profile(2, 1 / 8)],
}


class TestAnnotationCut:
    """Two G-cells have values in (0, 1), or (0, 1] for Steiner, so only an
    annotation blocks the interface between them, and the decisions, the
    search, the certificates, the scenes and the drawing read the blocked
    interfaces as that annotation cut. Each is compared by ``repr`` with
    the walk that prices the blocked rule on every G-G interface
    (``conftest.reference_links``)."""

    @pytest.mark.parametrize("family", sorted(CUT_FAMILIES))
    def test_only_annotations_block(self, family):
        for p in CUT_FAMILIES[family]():
            for kind in ("ehrhard", "steiner"):
                for sf in scene(p, kind).facets:
                    assert sf.blocked == (sf.wedge == 0.0 or (kind == "ehrhard" and sf.vee == 1.0))
                    assert sf.annotated or not sf.blocked, (p, sf)

    @pytest.mark.parametrize("family", sorted(CUT_FAMILIES) + sorted(CATALOG))
    def test_routes_match_the_walk(self, family):
        rng = random.Random(family)
        for p in {**CUT_FAMILIES, **CATALOG}[family]():
            report = rigidity_verdict(p)
            witness = report.certificate or report.connectivity
            assert_same_repr((not report.rigid, witness), reference_decide(p))
            for kind in ("ehrhard", "steiner"):
                s = scene(p, kind)
                assert_same_text(repr(s), reference_scene_repr(p, kind))
                assert_same_repr(essentially_disconnects(s), reference_decide(p, kind))
                g = [i for i, c in enumerate(s.cells) if c.in_g]
                minus = {i for i in g if rng.random() < 0.5}
                got = certificate_for(s, [s.cells[i].id for i in minus])
                assert_same_repr(got, reference_certificate(p, kind, minus))
            if len(p.g_cells()) <= 12:
                search = exhaustive_search(p)
                got = (search.partitions_checked, search.certificate)
                assert_same_repr(got, reference_search(p))
            assert render_profile(p, report) == reference_render(p, report)


def theorem_witness(report):
    """The certificate of a NonRigid theorem report, else its connectivity."""
    return report.certificate if report.certificate is not None else report.connectivity


def lazy_witnesses(family):
    """``(make, want)`` for every witness of a conftest family: ``make()``
    builds the witness afresh, unpriced, through one route (the theorem,
    the search, or ``certificate_for`` on a random minus side), and
    ``want`` is its reference."""
    rng = random.Random(f"lazy-{family}")
    out = []
    for p in random_family(family):
        want = reference_decide(p)[1]
        out.append((lambda p=p: essentially_disconnects(scene(p))[1], want))
        out.append((lambda p=p: theorem_witness(rigidity_verdict(p)), want))
        if len(p.g_cells()) <= 12:
            out.append((lambda p=p: exhaustive_search(p).certificate, reference_search(p)[1]))
        g = [i for i, cid in enumerate(p.grid.cells()) if 0.0 < p.value(cid) < 1.0]
        minus = {i for i in g if rng.random() < 0.5}
        ids = [cid for i, cid in enumerate(p.grid.cells()) if i in minus]
        out.append(
            (lambda p=p, ids=ids: certificate_for(scene(p), ids), reference_certificate(p, "ehrhard", minus))
        )
    return [(make, want) for make, want in out if want is not None]


CERTIFICATE_GROUPS = (
    ("plus_cells", "minus_cells"),
    ("interface_facets", "unblocked_interface_measure"),
    ("plus_gauss", "minus_gauss"),
)

LAZY_FIELDS = [name for group in CERTIFICATE_GROUPS for name in group] + ["cells", "tree_facets"]


class TestLazyWitnesses:
    """Certificates and spanning structures from the routes price their
    fields on first read, one group at a time, and then equal their
    references under every reading of the fields."""

    @pytest.mark.parametrize("family", ["1d", "2d", "annotated"])
    def test_equal_the_references(self, family):
        for make, want in lazy_witnesses(family):
            assert make() == want
            assert_same_repr(make(), want)
            assert hash(make()) == hash(want)
            assert _dumps(make()) == _dumps(want)
            for copy_of in (
                lambda w: pickle.loads(pickle.dumps(w)),
                copy.copy,
                dataclasses.replace,
            ):
                twin = copy_of(make())
                assert twin == want
                assert_same_repr(twin, want)
                assert hash(twin) == hash(want)
            if isinstance(want, PartitionCertificate):
                got = make()
                assert got._sides == (len(want.plus_cells), len(want.minus_cells))
                assert got._unblocked_crossings == want._unblocked_crossings
                assert got.separating == want.separating
                assert copy.copy(got).separating == pickle.loads(pickle.dumps(got)).separating

    @pytest.mark.parametrize("family", ["1d", "2d", "annotated"])
    def test_each_group_prices_alone(self, family):
        for make, want in lazy_witnesses(family):
            names = dataclasses.fields(want)
            if {f.name for f in names} <= vars(make()).keys():
                continue  # the vacuous structure, built whole
            if isinstance(want, SpanningStructure):
                groups = [("cells",), ("tree_facets",)]
            else:
                groups = CERTIFICATE_GROUPS
            for group in groups:
                got = make()
                assert getattr(got, group[0]) == getattr(want, group[0])
                priced = {f.name for f in names} & vars(got).keys() - {"_unblocked_crossings"}
                assert priced == set(group), (group, priced)

    @pytest.mark.parametrize("family", ["1d", "2d", "annotated"])
    def test_verdict_and_separating_build_no_facet_or_cells(self, monkeypatch, family):
        profiles = random_family(family)
        searched = [p for p in profiles if len(p.g_cells()) <= 12]
        want = [reference_decide(p)[0] for p in profiles + searched]
        counts = count_constructions(monkeypatch)
        reports = [rigidity_verdict(p) for p in profiles] + list(map(exhaustive_search, searched))
        for report, disconnected in zip(reports, want):
            assert (report.verdict is Verdict.NONRIGID) == disconnected
            if disconnected:
                assert report.certificate.separating
            # no field is priced but the vacuous structure's empty ones
            for witness in (report.certificate, report.connectivity):
                held = vars(witness) if witness is not None else {}
                assert all(held.get(name, ()) == () for name in LAZY_FIELDS)
        assert counts == {}

    def test_vacuous_structure_from_the_flags(self):
        p = Profile(Grid((0.0, 1.0, 2.0)), {(0,): 0.0, (1,): 1.0})
        report = rigidity_verdict(p)
        assert report.notes == ("no cells with 0 < v < 1: rigid vacuously",)
        assert report.connectivity == SpanningStructure(cells=(), tree_facets=())
        # one G-cell: connected, with a one-cell tree and a note-free report
        report = rigidity_verdict(Profile(Grid((0.0, 1.0, 2.0)), {(0,): 0.5, (1,): 1.0}))
        assert "cells" not in vars(report.connectivity) and report.notes == ()
        assert report.connectivity == SpanningStructure(cells=((0,),), tree_facets=())
