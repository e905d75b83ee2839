"""The contract of the types whose fields are priced on first read
(``intervals._Lazy``): a lazily built instance holds none of its lazy
fields until one is read, keeps each group it prices, and under
equality, ``repr``, hashing, pickle, copies and ``dataclasses.replace``
behaves as its twin with every field priced."""

import copy
import dataclasses
import pickle
import random

import pytest

from ehrhard import (
    PartitionCertificate,
    PerimeterBreakdown,
    RigidityReport,
    Scene,
    SpanningStructure,
    Verdict,
    exhaustive_search,
    from_profile,
    gauss_perimeter,
    rigidity_verdict,
    scene,
)
from conftest import assert_same_repr, random_annotated, random_profile_2d


def annotated_2d(seed):
    rng = random.Random(seed)
    return random_annotated(rng, random_profile_2d(rng))


# a 4x4 profile split into NonRigid parts, and a 2x4 one whose G is
# connected by a tree of 5 unblocked interfaces; both carry annotations
NONRIGID, RIGID = annotated_2d(0), annotated_2d(1)

# each lazy type -> its fields priced on first read
LAZY = {
    Scene: {"cells", "facets"},
    PartitionCertificate: {
        "plus_cells",
        "minus_cells",
        "interface_facets",
        "unblocked_interface_measure",
        "plus_gauss",
        "minus_gauss",
    },
    SpanningStructure: {"cells", "tree_facets"},
    PerimeterBreakdown: {"horizontal", "vertical"},
    RigidityReport: {"counterexample", "perimeter_check", "symdiff_check"},
}

CASES = {
    "scene-ehrhard": lambda: scene(NONRIGID, "ehrhard"),
    "scene-steiner": lambda: scene(NONRIGID, "steiner"),
    "certificate-theorem": lambda: rigidity_verdict(NONRIGID).certificate,
    "certificate-search": lambda: exhaustive_search(NONRIGID).certificate,
    "spanning-structure": lambda: rigidity_verdict(RIGID).connectivity,
    "perimeter-breakdown": lambda: gauss_perimeter(from_profile(NONRIGID)),
    "report-nonrigid": lambda: rigidity_verdict(NONRIGID),
    "report-rigid": lambda: rigidity_verdict(RIGID),
    "report-search-nonrigid": lambda: exhaustive_search(NONRIGID),
}

UNPRICED_COPIES = {
    "pickle": lambda x: pickle.loads(pickle.dumps(x)),
    "copy": copy.copy,
    "deepcopy": copy.deepcopy,
}
COPIES = {**UNPRICED_COPIES, "replace": dataclasses.replace}


def priced(x):
    """``x`` with every lazy field read."""
    for name in LAZY[type(x)]:
        getattr(x, name)
    return x


def test_cases_cover_both_verdicts():
    assert rigidity_verdict(NONRIGID).verdict is Verdict.NONRIGID
    assert rigidity_verdict(RIGID).verdict is Verdict.RIGID
    assert rigidity_verdict(RIGID).connectivity.tree_facets


@pytest.mark.parametrize("case", sorted(CASES))
def test_lazy_instance_behaves_as_its_priced_twin(case):
    make = CASES[case]
    lazy = LAZY[type(make())]
    assert lazy.isdisjoint(vars(make()))
    with pytest.raises(AttributeError):
        make().no_such_field
    eager = priced(make())
    assert lazy <= vars(eager).keys()  # every priced group is kept
    assert make() == eager
    assert_same_repr(make(), eager)
    assert hash(make()) == hash(eager)
    for name, copy_of in COPIES.items():
        twin = copy_of(make())
        if name in UNPRICED_COPIES:
            assert lazy.isdisjoint(vars(twin)), name
        assert twin == eager, name
        assert_same_repr(twin, eager)
        assert hash(twin) == hash(eager), name
        assert_same_repr(copy_of(eager), eager)
