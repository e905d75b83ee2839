"""Check the verdict routes and the model-set kernels on every profile of
the larger small-scope families.

Usage::

    python3 tools/families.py

``tests/test_exhaustive.py`` enumerates every profile up to two annotated
cells or a 2x3 grid. The two families here are larger and run outside
the tier-1 suite:

- ``3-cell``: every profile of 3 cells on the line over the extreme
  values (0, the least subnormal, 0.3, 0.5, one ulp below 1, 1), with
  every annotation class on each of its 2 interior facets;
- ``3x3``: every profile of a 3x3 grid over {0, 0.5, 1}.

Each family runs on a grid with infinite ends and on one with finite
ends (on the 3x3 grid, all but the top of its second axis). On every
profile ``rigidity_verdict``, which decides on the union-find kernel,
must give the verdict of ``exhaustive_search``, which prices every
coloring, and each non-rigid report must carry a separating certificate.
``_set_one_piece`` and ``_complement_one_piece``, which decide on cells,
must agree with the generic ``indecomposable`` and
``complement_indecomposable`` of the model set, with no facet severed and
with the annotated facets severed as ``check_gino`` severs them. In the
scenes of both kinds, a facet is blocked exactly when its limits have
wedge 0 (or, for Ehrhard, vee 1), and only annotated facets are. The
script prints the count and time of each family and exits 1 at the first
disagreement, naming the profile.
"""

from __future__ import annotations

import itertools
import math
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from ehrhard import (  # noqa: E402
    Facet,
    Grid,
    Profile,
    SingularAnnotation,
    exhaustive_search,
    from_profile,
    rigidity_verdict,
    scene,
)
from ehrhard.connectedness import complement_indecomposable, indecomposable  # noqa: E402
from ehrhard.profiles import _complement_one_piece, _set_one_piece  # noqa: E402

INF = math.inf

VALUES_1D = (0.0, 5e-324, 0.3, 0.5, 1.0 - 2.0**-53, 1.0)
VALUES_2D = (0.0, 0.5, 1.0)
# (wedge, vee) of an annotated facet; None leaves the facet unannotated
ANNOTATION_CLASSES = (None, (0.0, 0.0), (0.0, 0.5), (0.5, 1.0), (1.0, 1.0), (0.0, 1.0), (0.3, 0.7))


def three_cells():
    for grid in (Grid((-INF, 1.0, 2.0, INF)), Grid((-2.0, 1.0, 2.0, 4.0))):
        for values in itertools.product(VALUES_1D, repeat=3):
            cells = dict(zip(grid.cells(), values))
            for classes in itertools.product(ANNOTATION_CLASSES, repeat=2):
                anns = [
                    SingularAnnotation(Facet(0, line, 0), *limits)
                    for line, limits in zip((1, 2), classes)
                    if limits is not None
                ]
                yield Profile(grid, cells, anns)


def three_by_three():
    for grid in (
        Grid((-INF, -1.0, 1.0, INF), (-INF, -1.0, 1.0, INF)),
        Grid((-3.0, -1.0, 1.0, 2.0), (-2.0, 0.0, 0.5, INF)),
    ):
        for values in itertools.product(VALUES_2D, repeat=9):
            yield Profile(grid, dict(zip(grid.cells(), values)))


FAMILIES = {"3-cell": three_cells, "3x3": three_by_three}


def disagreement(p: Profile) -> str | None:
    """What ``p`` fails, or None."""
    theorem, search = rigidity_verdict(p), exhaustive_search(p)
    if theorem.verdict is not search.verdict:
        return f"rigidity_verdict {theorem.verdict} but exhaustive_search {search.verdict}"
    for report in (theorem, search):
        if not report.rigid and not report.certificate.separating:
            return "a non-rigid report without a separating certificate"
    model = from_profile(p)
    low = [a.facet for a in p.annotations if a.wedge == 0.0]
    high = [a.facet for a in p.annotations if a.vee == 1.0]
    for set_cut, complement_cut in (((), ()), (low, high)):
        if _set_one_piece(p, set_cut) != indecomposable(model, set_cut):
            return f"_set_one_piece differs from indecomposable, severing {set_cut}"
        if _complement_one_piece(p, complement_cut) != complement_indecomposable(
            model, complement_cut
        ):
            return f"_complement_one_piece differs, severing {complement_cut}"
    for kind in ("ehrhard", "steiner"):
        for sf in scene(p, kind).facets:
            rule = sf.wedge == 0.0 or (kind == "ehrhard" and sf.vee == 1.0)
            if sf.blocked != rule or (sf.blocked and not sf.annotated):
                return f"{kind} scene facet {sf.facet} breaks the blocked rule"
    return None


def main() -> int:
    for name, family in FAMILIES.items():
        start, count = time.perf_counter(), 0
        for p in family():
            count += 1
            problem = disagreement(p)
            if problem is not None:
                print(f"{name}: {problem}: {p.grid.axes} {p.values} {p.annotations}")
                return 1
        print(f"{name}: {count} profiles agree in {time.perf_counter() - start:.1f} s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
