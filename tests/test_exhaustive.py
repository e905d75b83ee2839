"""Every small profile the types admit, over classes of extreme values.

Random generators rarely hit the extreme values (0, the least subnormal,
one ulp below 1, 1) or the annotation classes at the blocked rule's
edges. Here every profile up to a small size is enumerated over those
classes, so the two routes are checked to agree on all of them, not on a
sample (the small-scope hypothesis of bounded exhaustive checking).
"""

import itertools
import math

import pytest

from ehrhard import (
    Facet,
    Grid,
    Profile,
    SingularAnnotation,
    exhaustive_search,
    rigidity_verdict,
    rigidity_verdict_planar,
)
from ehrhard.jsonio import profile_from_json, profile_to_json

INF = math.inf

VALUES_1D = (0.0, 5e-324, 0.3, 0.5, 1.0 - 2.0**-53, 1.0)
VALUES_2D = (0.0, 5e-324, 0.5, 1.0)
# (wedge, vee) of an annotated facet; None leaves the facet unannotated
ANNOTATION_CLASSES = (None, (0.0, 0.0), (0.0, 0.5), (0.5, 1.0), (1.0, 1.0), (0.0, 1.0), (0.3, 0.7))


def line_grids(n):
    """An infinite-ended and a finite grid of n cells on the line."""
    inner = tuple(float(k) for k in range(1, n))
    return Grid((-INF, *inner, INF)), Grid((-2.0, *inner, n + 1.0))


def profiles_1d():
    for n in range(1, 5):
        for grid in line_grids(n):
            for values in itertools.product(VALUES_1D, repeat=n):
                yield Profile(grid, dict(zip(grid.cells(), values)))


def annotated_profiles_1d():
    for grid in line_grids(2):
        for values, limits in itertools.product(
            itertools.product(VALUES_1D, repeat=2), ANNOTATION_CLASSES[1:]
        ):
            ann = SingularAnnotation(Facet(0, 1, 0), *limits)
            yield Profile(grid, dict(zip(grid.cells(), values)), [ann])


def profiles_2x2():
    grid = Grid((-INF, 0.0, INF), (-1.0, 0.5, INF))
    for values in itertools.product(VALUES_2D, repeat=4):
        yield Profile(grid, dict(zip(grid.cells(), values)))


def rigid_by_rule(p):
    """The blocked rule restated on the values: G is connected across the
    G-G interfaces whose limits (min and max of the two values, or the
    annotation) stay off 0 and off 1."""
    g = set(p.g_cells())
    limits = {a.facet: (a.wedge, a.vee) for a in p.annotations}
    piece = {c: {c} for c in g}
    for f in p.grid.facets(interior_only=True):
        lo, hi = p.grid.facet_cells(f)
        if lo not in g or hi not in g:
            continue
        wedge, vee = limits.get(f, sorted((p.value(lo), p.value(hi))))
        if wedge > 0.0 and vee < 1.0 and piece[lo] is not piece[hi]:
            merged = piece[lo] | piece[hi]
            for c in merged:
                piece[c] = merged
    return len({id(cells) for cells in piece.values()}) <= 1


FAMILIES = {
    "1d": profiles_1d,
    "1d-annotated": annotated_profiles_1d,
    "2x2": profiles_2x2,
}


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_every_small_profile(family):
    for p in FAMILIES[family]():
        theorem = rigidity_verdict(p)
        search = exhaustive_search(p)
        assert theorem.verdict == search.verdict, p
        assert theorem.rigid == rigid_by_rule(p), p
        if p.grid.base_dim == 1:
            # the run criterion applies the blocked rule on its own and
            # raises where it disagrees with the scene route
            rigidity_verdict_planar(p)
        for report in (theorem, search):
            if not report.rigid:
                assert report.certificate.separating, p
        if not theorem.rigid and not p.annotations:
            assert abs(theorem.perimeter_check.difference) <= 1e-10, p
        assert profile_from_json(profile_to_json(p)) == p
