import json
import math
import random
from dataclasses import dataclass
from typing import Optional

import pytest
from hypothesis import given, settings

from ehrhard import (
    ColumnarSet,
    Facet,
    FormatError,
    Grid,
    IntervalSet,
    Profile,
    SceneCell,
    SceneFacet,
    SingularAnnotation,
    Verdict,
    check_gino,
    check_pino,
    ehrhard_symmetral,
    essentially_disconnects,
    exhaustive_search,
    gauss_perimeter,
    rigidity_verdict,
    rigidity_verdict_planar,
    run_entry,
    scene,
    from_profile,
    steiner_symmetral,
)
from ehrhard.catalog import _mistico_profile, catalog_names
from ehrhard.cli import main
from ehrhard.jsonio import (
    _BATCH,
    _dump,
    _dumps,
    columnar_from_json,
    columnar_to_json,
    decode_number,
    encode_number,
    facet_from_json,
    facet_to_json,
    grid_from_json,
    grid_to_json,
    interval_set_from_json,
    interval_set_to_json,
    profile_from_json,
    profile_to_json,
)
from conftest import (
    assert_same_text,
    random_annotated,
    random_columnar,
    random_profile_1d,
    random_profile_2d,
    reference_json,
)
from test_rigidity import far_tail_profiles_1d

INF = math.inf


def through_json(doc):
    return json.loads(json.dumps(doc))


class TestNumbers:
    def test_sentinels(self):
        assert encode_number(INF) == "inf"
        assert encode_number(-INF) == "-inf"
        assert encode_number(1.5) == 1.5
        assert decode_number("inf") == INF
        assert decode_number("-inf") == -INF
        assert decode_number(2) == 2.0

    def test_rejects_non_numbers(self):
        for bad in (True, None, "x", [1]):
            with pytest.raises(FormatError):
                decode_number(bad)


class TestIntervalSets:
    def test_round_trip_exact(self):
        rng = random.Random(41)
        for _ in range(50):
            pairs = sorted(rng.uniform(-5, 5) for _ in range(4))
            s = IntervalSet.from_pairs([(pairs[0], pairs[1]), (pairs[2], pairs[3])])
            s = s.union(IntervalSet.above(6.0))
            assert interval_set_from_json(through_json(interval_set_to_json(s))) == s

    def test_infinite_ends(self):
        s = IntervalSet.below(-2.0)
        doc = interval_set_to_json(s)
        assert doc == [["-inf", -2.0]]
        assert interval_set_from_json(doc) == s

    def test_format_errors(self):
        for bad in ("x", [[1.0]], [[1.0, 2.0, 3.0]], [1.0]):
            with pytest.raises(FormatError):
                interval_set_from_json(bad)


class TestGrids:
    def test_round_trip_exact(self):
        for g in (
            Grid((-INF, -1.0, 0.5, INF)),
            Grid((0.0, 1.0), (-INF, 0.25, INF)),
        ):
            assert grid_from_json(through_json(grid_to_json(g))) == g

    def test_base_dim_checked(self):
        doc = grid_to_json(Grid((0.0, 1.0)))
        doc["base_dim"] = 2
        with pytest.raises(FormatError):
            grid_from_json(doc)

    def test_format_errors(self):
        for bad in ("x", {}, {"breakpoints": []}, {"breakpoints": ["x"]}):
            with pytest.raises(FormatError):
                grid_from_json(bad)


class TestFacets:
    def test_round_trip(self):
        f = Facet(1, 3, 2)
        assert facet_from_json(facet_to_json(f), base_dim=2) == f

    def test_line_shorthand(self):
        assert facet_from_json([4], base_dim=1) == Facet(0, 4, 0)
        with pytest.raises(FormatError):
            facet_from_json([4], base_dim=2)

    def test_format_errors(self):
        for bad in ("x", [1, 2], [1.5, 2, 3]):
            with pytest.raises(FormatError):
                facet_from_json(bad, base_dim=2)

    def test_rejects_bool_entries(self):
        with pytest.raises(FormatError):
            facet_from_json([True], base_dim=1)
        with pytest.raises(FormatError):
            facet_from_json([0, False, 1], base_dim=2)


class TestProfiles:
    def test_round_trip_exact_1d(self):
        rng = random.Random(42)
        for _ in range(25):
            p = random_profile_1d(rng)
            assert profile_from_json(through_json(profile_to_json(p))) == p

    def test_round_trip_exact_2d(self):
        rng = random.Random(43)
        for _ in range(10):
            p = random_profile_2d(rng)
            assert profile_from_json(through_json(profile_to_json(p))) == p

    def test_annotations_round_trip(self):
        g = Grid((-INF, 0.0, INF))
        ann = SingularAnnotation(Facet(0, 1, 0), 0.0, 0.625)
        p = Profile(g, {(0,): 0.5, (1,): 0.5}, [ann])
        q = profile_from_json(through_json(profile_to_json(p)))
        assert q == p and q.annotations == (ann,)

    def test_format_errors(self):
        with pytest.raises(FormatError):
            profile_from_json("x")
        doc = profile_to_json(Profile(Grid((0.0, 1.0)), {(0,): 0.5}))
        short = dict(doc, values=[])
        with pytest.raises(FormatError):
            profile_from_json(short)
        missing = {k: v for k, v in doc.items() if k != "values"}
        with pytest.raises(FormatError):
            profile_from_json(missing)
        bad_ann = dict(doc, annotations=["x"])
        with pytest.raises(FormatError):
            profile_from_json(bad_ann)

    def test_values_must_be_lists(self):
        doc = profile_to_json(Profile(Grid((0.0, 1.0)), {(0,): 0.5}))
        with pytest.raises(FormatError):
            profile_from_json(dict(doc, values={"0": 0.5}))
        g = Grid((0.0, 1.0), (0.0, 1.0))
        doc = profile_to_json(Profile(g, {(0, 0): 0.5}))
        with pytest.raises(FormatError):
            profile_from_json(dict(doc, values=[{"0": 0.5}]))
        doc = columnar_to_json(ColumnarSet(Grid((0.0, 1.0)), {}))
        with pytest.raises(FormatError):
            columnar_from_json(dict(doc, sections={"0": []}))
        # a 2-D nesting of the wrong shape names what is wrong
        for key, doc, decode, item in (
            ("values", profile_to_json(Profile(g, {(0, 0): 0.5})), profile_from_json, 0.5),
            ("sections", columnar_to_json(ColumnarSet(g, {})), columnar_from_json, []),
        ):
            with pytest.raises(FormatError, match=f"^{key}: expected 1 rows, got 2$"):
                decode(dict(doc, **{key: [[item], [item]]}))
            with pytest.raises(FormatError, match=f"^{key}: row 0 has 2 entries, expected 1$"):
                decode(dict(doc, **{key: [[item, item]]}))

    def test_annotations_must_be_a_list(self):
        doc = profile_to_json(Profile(Grid((0.0, 1.0)), {(0,): 0.5}))
        for bad in (5, None, 1.5):
            with pytest.raises(FormatError):
                profile_from_json(dict(doc, annotations=bad))

    @pytest.mark.parametrize("digits", [400, 5000])
    def test_huge_integers(self, digits):
        # past 4,300 digits str() of an int raises, so the message must not use it
        huge = 10**digits
        doc = profile_to_json(Profile(Grid((0.0, 1.0)), {(0,): 0.5}))
        with pytest.raises(FormatError, match="out of float range"):
            profile_from_json(dict(doc, values=[huge]))
        with pytest.raises(FormatError, match="out of float range"):
            profile_from_json(dict(doc, breakpoints=[[0.0, huge]]))
        with pytest.raises(FormatError, match="out of float range"):
            grid_from_json({"base_dim": 1, "breakpoints": [[0.0, huge]]})


class TestColumnar:
    def test_round_trip_exact(self):
        rng = random.Random(44)
        for _ in range(25):
            e = random_columnar(rng)
            assert columnar_from_json(through_json(columnar_to_json(e))) == e

    def test_two_dimensional_nesting(self):
        g = Grid((0.0, 1.0, 2.0), (0.0, 1.0))
        e = ColumnarSet(g, {(1, 0): IntervalSet.above(0.0)})
        doc = columnar_to_json(e)
        assert doc["sections"] == [[[]], [[[0.0, "inf"]]]]
        assert columnar_from_json(doc) == e

    def test_format_errors(self):
        with pytest.raises(FormatError):
            columnar_from_json({"sections": []})
        g = Grid((0.0, 1.0))
        doc = columnar_to_json(ColumnarSet(g, {}))
        with pytest.raises(FormatError):
            columnar_from_json(dict(doc, sections=[[], []]))


class TestReports:
    def profile(self):
        return Profile(
            Grid((-INF, -1.0, 1.0, INF)), {(0,): 0.3, (1,): 1.0, (2,): 0.6}
        )

    def test_rigidity_report_serializes(self):
        report = rigidity_verdict(self.profile())
        doc = json.loads(_dumps(report))
        assert doc["verdict"] == "NonRigid"
        assert doc["method"] == "theorem"
        assert doc["certificate"]["minus_cells"] == [[0]]
        assert "counterexample" in doc and "perimeter_check" in doc

    def test_rigid_report_serializes(self):
        p = Profile(Grid((-INF, 0.0, INF)), {(0,): 0.3, (1,): 0.7})
        doc = json.loads(_dumps(rigidity_verdict(p)))
        assert doc["verdict"] == "Rigid"
        assert doc["connectivity"]["tree_facets"] == [[0, 1, 0]]

    def test_scene_and_breakdown_serialize(self):
        p = self.profile()
        doc = json.loads(_dumps(scene(p)))
        assert doc["kind"] == "ehrhard"
        assert [c["in_g"] for c in doc["cells"]] == [True, False, True]
        bd = json.loads(_dumps(gauss_perimeter(from_profile(p))))
        assert bd["total_gauss"] == pytest.approx(
            gauss_perimeter(from_profile(p)).total_gauss
        )
        assert bd["total_lebesgue"] == "inf"

    def test_check_reports_serialize(self):
        p = self.profile()
        lev = json.loads(_dumps(check_pino(p)))
        assert lev["overall"] is False and len(lev["levels"]) == len(lev["passed"])
        comp = json.loads(_dumps(check_gino(p)))
        assert comp == {
            "set_indecomposable": True,
            "complement_indecomposable": False,
            "overall": False,
        }


@dataclass(frozen=True)
class _Inner:
    facet: Facet
    width: float


@dataclass(frozen=True)
class _Outer:
    kind: Verdict
    inner: tuple[_Inner, ...]
    cells: tuple[tuple[int, ...], ...]
    missing: Optional[_Inner] = None
    count: int = 0
    _private: str = "never encoded"


class TestEncoder:
    def test_encoding_rule(self):
        inner = (_Inner(Facet(0, 2, 0), INF), _Inner(Facet(1, 1, 3), -INF))
        doc = json.loads(_dumps(_Outer(Verdict.RIGID, inner, ((0,), (1, 2)))))
        assert doc == {
            "kind": "Rigid",
            "inner": [
                {"facet": [0, 2, 0], "width": "inf"},
                {"facet": [1, 1, 3], "width": "-inf"},
            ],
            "cells": [[0], [1, 2]],
            "count": 0,
        }


def dumped(x):
    """The reference text of the report writer."""
    return json.dumps(reference_json(x), indent=2, sort_keys=True)


def cli_reports(p):
    """Every report object the CLI writes for the profile ``p`` and its model set."""
    yield rigidity_verdict(p)
    if p.grid.base_dim == 1:
        yield rigidity_verdict_planar(p)
    if len(p.g_cells()) <= 12:
        yield exhaustive_search(p)
    for kind in ("ehrhard", "steiner"):
        sc = scene(p, kind=kind)
        disconnected, witness = essentially_disconnects(sc)
        yield {"scene": sc, "disconnects": disconnected, "witness": witness}
    model = from_profile(p)
    yield gauss_perimeter(model)
    for e in (model, ehrhard_symmetral(model), steiner_symmetral(model)):
        yield e
        yield columnar_to_json(e)


EDGE_SCALARS = [
    -0.0, 5e-324, 1e308, -1e-308, math.nan, INF, -INF, 0, -(2**70), True, False, None,
    "", "plain", "non-ASCII: \u00e9\u2603\U0001f600", "\x00\"\\\n\u2028",
    [], (), {}, [[]], {"e": {}}, ([], ()),
]

# A scene row written on its own takes the generic writer, whatever its
# leaf types. A tuple of two or more cell ids (tuples of one length of
# exact ints) fills one template per id; every other array, a list of
# cell ids or a tuple of ids with a bool, a float, a nested tuple or
# another length among them, takes the generic path. Both must write the
# same text.
ROWS_AND_INT_ARRAYS = [
    SceneCell((0,), 0.5, True, 0.25, 1.0),
    SceneCell((2, 3), 0.0, False, 5e-324, 0.125),
    SceneCell((1,), 1.0, False, math.nan, INF),
    SceneCell((0, 1), -0.0, True, -INF, math.nan),
    SceneCell((4,), 1, True, 0.5, 2.0),
    SceneCell((True, 1), 0.5, True, 0.5, 2.0),
    SceneCell((1, 2, 3), 0.5, True, 0.5, 2.0),
    SceneCell((), 0.5, True, 0.5, 2.0),
    SceneFacet(Facet(0, 1, 0), ((0,), (1,)), 0.25, 0.0, 1.0, True, False),
    SceneFacet(Facet(1, 2, 3), ((3, 1), (3, 2)), INF, -INF, math.nan, False, True),
    SceneFacet(Facet(0, 1, 0), ((0,), (1,)), 1, 0.0, 1.0, True, False),
    SceneFacet(Facet(0, 1, 0), ((0,), (1,)), 0.25, 0.0, 1.0, 0, 1),
    SceneFacet(Facet(0, 1, 2), ((0, 2), (1,)), 0.25, 0.0, 1.0, True, False),
    SceneFacet(Facet(True, 1, 0), ((0,), (1,)), 0.25, 0.0, 1.0, True, False),
    (True, 1),
    (1, True),
    (),
    [-0],
    [2**70, -3, 0],
    [1, 2.0],
    ((0, 1), (2, 3), (0, 1)),
    ((2**70, -3), (0, -0)),
    ((5,), (7,)),
    ((True, 1), (0, 1)),
    ((0, 1), (0, False)),
    ((0.5, 1), (1, 2)),
    ((0,), (1, 2)),
    (((0,), 1), ((1,), 2)),
    ((0, (1,)), (2, 3)),
    [(0, 1), (2, 3)],
    ((0, 1),),
    ((3,),),
    ((), ()),
    ((0, 1), [2, 3]),
]


def signed_zero_sets():
    """Columnar sets whose endpoints mix 0.0, -0.0 and the infinities, with
    empty sections and sections of several intervals, on 1-D and 2-D bases,
    and the empty set on each."""
    below, above, line = IntervalSet.below, IntervalSet.above, IntervalSet.line
    several = IntervalSet.from_pairs([(-INF, -0.0), (0.5, 1.0), (2.0, INF)])
    two = IntervalSet.from_pairs([(-1.0, 0.0), (0.25, 0.5)])
    flat = Grid((-INF, -1.0, 0.0, 1.0, INF))
    plane = Grid((-INF, 0.0, INF), (-1.0, 0.0, 1.0, 2.0))
    return [
        ColumnarSet(flat, {(0,): below(-0.0), (1,): several, (3,): above(0.0)}),
        ColumnarSet(flat, {(1,): above(-0.0), (2,): two, (3,): line()}),
        ColumnarSet(plane, {(0, 0): several, (0, 2): below(0.0), (1, 1): above(-0.0), (1, 2): two}),
        ColumnarSet(plane, {(1, 0): IntervalSet.of(-0.0, 1.0), (0, 1): above(0.0)}),
        ColumnarSet(flat, {}),
        ColumnarSet(plane, {}),
    ]


SIGNED_ZERO_SETS = signed_zero_sets()


class TestWriter:
    """``_dumps(x)`` is ``json.dumps(reference_json(x), indent=2, sort_keys=True)``."""

    @pytest.mark.parametrize("x", EDGE_SCALARS, ids=repr)
    def test_edge_scalars(self, x):
        assert_same_text(_dumps(x), dumped(x))
        assert_same_text(_dumps([x, {"k": x}]), dumped([x, {"k": x}]))

    @pytest.mark.parametrize("x", ROWS_AND_INT_ARRAYS, ids=repr)
    def test_rows_and_int_arrays(self, x):
        for doc in (x, [x], [{"row": x}]):
            assert_same_text(_dumps(doc), dumped(doc))

    def test_random_families(self):
        rng = random.Random(45)
        profiles = [random_profile_1d(rng) for _ in range(20)]
        profiles += [random_profile_2d(rng) for _ in range(8)]
        profiles += [random_annotated(rng, random_profile_2d(rng)) for _ in range(8)]
        for p in profiles:
            for x in cli_reports(p):
                assert_same_text(_dumps(x), dumped(x))
        for _ in range(10):
            e = random_columnar(rng)
            assert_same_text(_dumps(e), dumped(e))
            assert_same_text(dumped(e), dumped(columnar_to_json(e)))

    @pytest.mark.parametrize(
        "e", SIGNED_ZERO_SETS, ids=["1d", "1d-line", "2d", "2d-two", "1d-empty", "2d-empty"]
    )
    def test_columnar_sets(self, e):
        """Every endpoint's text comes from one per-set memo, in which 0.0
        and -0.0 are one key; each must still print its own sign."""
        for doc in (e, [e], {"set": e, "again": [e]}):
            assert_same_text(_dumps(doc), dumped(doc))

    def test_mistico(self):
        for x in cli_reports(_mistico_profile(1 / 16)):
            assert_same_text(_dumps(x), dumped(x))

    @pytest.mark.parametrize("name", catalog_names())
    def test_catalog_payload(self, name):
        result = run_entry(name)
        payload = {
            "name": result.name,
            "passed": result.passed,
            "checks": result.checks,
            "extras": result.extras,
            "report": result.report,
        }
        written = {
            **payload,
            "checks": reference_json(result.checks),
            "report": reference_json(result.report),
        }
        assert_same_text(_dumps(payload), dumped(payload))
        assert_same_text(_dumps(payload), json.dumps(written, indent=2, sort_keys=True))

    def test_encoding_rule(self):
        inner = (_Inner(Facet(0, 2, 0), INF), _Inner(Facet(1, 1, 3), -INF))
        x = _Outer(Verdict.RIGID, inner, ((0,), (1, 2)), count=3)
        assert_same_text(_dumps(x), dumped(x))

    def test_dict_values_follow_the_rule(self):
        inner = _Inner(Facet(0, 2, 0), INF)
        x = {"b": inner, "a": [inner, Verdict.NONRIGID], "c": None}
        want = {"b": reference_json(inner), "a": [reference_json(inner), "NonRigid"], "c": None}
        assert _dumps(x) == json.dumps(want, indent=2, sort_keys=True)

    def test_unknown_types_rejected(self):
        with pytest.raises(TypeError):
            _dumps({1, 2})
        with pytest.raises(TypeError):
            _dumps({1: "a"})
        with pytest.raises(TypeError):
            _dumps([{"ok": 1, 2: "int key"}])

    def test_private_fields_never_read(self):
        x = _Watched(1.5)
        assert _dumps(x) == '{\n  "shown": 1.5\n}'
        assert _dumps([x, {"w": x}]) == dumped([x, {"w": x}])


@dataclass(frozen=True)
class _Watched:
    shown: float
    _hidden: float = 0.0

    def __getattribute__(self, name):
        if name.startswith("_") and not name.startswith("__"):
            raise AssertionError(f"private field {name} read")
        return object.__getattribute__(self, name)


def signed_zero_profiles():
    """1-D and 2-D profiles whose values mix 0.0 and -0.0, one of them with
    a blocking annotation of wedge -0.0, and one with empty G."""
    flat = Grid((-INF, -1.0, 0.0, 1.0, INF))
    plane = Grid((-INF, -1.0, 0.0, 1.0, INF), (-1.0, 0.0, 1.0))
    pinch = [SingularAnnotation(Facet(0, 1, 0), -0.0, 0.5)]
    rows = [[0.5, 0.5], [0.5, -0.0], [0.0, 0.5], [0.25, 0.5]]
    values = {(i, j): v for i, row in enumerate(rows) for j, v in enumerate(row)}
    return [
        Profile(flat, {(0,): 0.5, (1,): 0.5, (2,): -0.0, (3,): 0.0}, pinch),
        Profile(flat, {(0,): -0.0, (1,): 0.5, (2,): 0.0, (3,): 0.75}),
        Profile(plane, values, pinch),
        Profile(plane, values, [SingularAnnotation(Facet(1, 1, 3), -0.0, 0.0)]),
        Profile(flat, {(0,): -0.0, (1,): 1.0, (2,): 0.0, (3,): -0.0}),
    ]


SIGNED_ZERO_PROFILES = signed_zero_profiles()


def assert_scene_written(p):
    """``_dumps`` of a scene of each kind of ``p``, before and after its rows
    are read, is the reference text of its rows, and writing builds no row."""
    for kind in ("ehrhard", "steiner"):
        sc = scene(p, kind)
        unread = _dumps(sc)
        assert "cells" not in vars(sc) and "facets" not in vars(sc)
        want = dumped(sc)  # reads the rows
        assert_same_text(unread, want)
        assert_same_text(_dumps(sc), want)
        assert_same_text(_dumps([{"scene": sc}]), dumped([{"scene": sc}]))


class TestSceneWriter:
    """A scene is written straight from the profile it views, with no row
    built, as the generic rule writes the rows it builds when read."""

    @pytest.mark.parametrize("family", ["1d", "2d", "annotated"])
    def test_conftest_families(self, family):
        rng = random.Random(f"scene-writer-{family}")
        for k in range(60):
            if family == "1d":
                p = random_profile_1d(rng)
            elif family == "2d":
                p = random_profile_2d(rng)
            else:
                p = random_annotated(rng, (random_profile_1d, random_profile_2d)[k % 2](rng))
            assert_scene_written(p)

    @settings(deadline=None, max_examples=100)
    @given(far_tail_profiles_1d())
    def test_far_tail(self, p):
        assert_scene_written(p)

    def test_mistico(self):
        assert_scene_written(_mistico_profile(1 / 16))

    def test_empty_g(self):
        p = Profile(Grid((-INF, 0.0, INF)), {(0,): 0.0, (1,): 1.0})
        assert_scene_written(p)
        assert json.loads(_dumps(scene(p)))["facets"] == []

    @pytest.mark.parametrize(
        "p", SIGNED_ZERO_PROFILES, ids=["1d-pinch", "1d", "2d-pinch", "2d-lateral", "1d-empty-g"]
    )
    def test_signed_zeros(self, p):
        """A column's texts come from one memo in which 0.0 and -0.0 are one
        key; values and wedges of either sign must print their own."""
        assert_scene_written(p)
        for x in cli_reports(p):
            assert_same_text(_dumps(x), dumped(x))


# A chunk holds at most ``_BATCH`` pieces (leaves, keys, brackets, rows) and
# those of one nesting path. No piece of these reports reaches 1 KiB, so no
# chunk reaches this many characters, whatever the size of the report.
CHUNK_BOUND = _BATCH * 1024


def assert_chunked(x):
    """The chunks of ``x`` joined are ``_dumps(x)`` and the reference text,
    and none is over :data:`CHUNK_BOUND`; returns the chunks."""
    chunks = []
    _dump(x, chunks.append)
    text = "".join(chunks)
    assert_same_text(text, _dumps(x))
    assert_same_text(text, dumped(x))
    assert max(map(len, chunks)) <= CHUNK_BOUND
    return chunks


class TestChunks:
    """``_dump(x, write)`` hands the text of ``x`` to ``write`` in chunks of
    bounded length, whose join is the text."""

    @pytest.mark.parametrize("family", ["1d", "2d", "annotated"])
    def test_conftest_families(self, family):
        rng = random.Random(f"chunks-{family}")
        for k in range(12):
            if family == "1d":
                p = random_profile_1d(rng)
            elif family == "2d":
                p = random_profile_2d(rng)
            else:
                p = random_annotated(rng, (random_profile_1d, random_profile_2d)[k % 2](rng))
            for x in cli_reports(p):
                assert_chunked(x)

    def test_scene_of_many_batches(self):
        sc = scene(_mistico_profile(1 / 32))
        disconnected, witness = essentially_disconnects(sc)
        chunks = assert_chunked({"scene": sc, "disconnects": disconnected, "witness": witness})
        assert len(chunks) > len(sc.facets) // _BATCH > 4

    def test_long_generic_array(self):
        """An array the generic writer writes item by item is passed on in
        chunks as well."""
        rows = [{"k": k, "x": [k / 7, -k / 3]} for k in range(6000)]
        assert len(assert_chunked(rows)) > 4
        assert len(assert_chunked(tuple(rows))) > 4

    @pytest.mark.parametrize(
        "command", ["rigidity", "counterexample", "connectedness", "perimeter", "symmetrize"]
    )
    def test_out_file_is_stdout_less_its_newline(self, tmp_path, capsys, command):
        """A file takes the text chunk by chunk, stdout whole: the same bytes."""
        p = _mistico_profile(1 / 16)
        doc = columnar_to_json(from_profile(p)) if command in ("perimeter", "symmetrize") else None
        infile = tmp_path / "in.json"
        infile.write_text(json.dumps(doc or profile_to_json(p)), encoding="utf-8")
        out = tmp_path / "out.json"
        assert main([command, "--in", str(infile)]) == 0
        printed = capsys.readouterr().out
        assert main([command, "--in", str(infile), "--out", str(out)]) == 0
        assert printed.endswith("}\n")
        assert_same_text(out.read_text(encoding="utf-8"), printed[:-1])
