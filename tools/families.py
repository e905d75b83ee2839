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
The model set's one-piece questions, decided on cells by
``connectedness._one_piece`` over the bands of ``Profile._band`` (the band
``(0, inf)`` for the set, ``Profile._complement_band`` for its
complement), must agree with the generic ``indecomposable`` and
``complement_indecomposable`` of the model set, with no facet severed and
with the band's cut severed. On the 3-cell family ``check_gino`` must give
those generic answers with the annotations of wedge 0 and of vee 1
severed, and on both families ``check_pino`` at the levels ``LEVELS``
must give the passes of the interval route: generic pieces of the model
set restricted to each band ``(t, 1 - t)``, where the band keeps every
cell of G. In the scenes of both kinds, a facet is blocked exactly when
its limits have wedge 0 (or, for Ehrhard, vee 1), and only annotated
facets are. The script prints the count and time of each family, and on
lines of their own two sha256 digests, in enumeration order: the
``search digest`` of every search report's
``repr((partitions_checked, certificate))`` and the ``theorem digest`` of
the JSON text of every ``rigidity_verdict`` report (``jsonio._dumps``:
its verdict, witness, competitor and both checks), so two trees'
searches and theorem reports can be compared by their digest lines. It
exits 1 at the first disagreement, naming the profile.
"""

from __future__ import annotations

import hashlib
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
    check_gino,
    check_pino,
    exhaustive_search,
    from_profile,
    restrict,
    rigidity_verdict,
    scene,
)
from ehrhard.connectedness import (  # noqa: E402
    _one_piece,
    complement_indecomposable,
    decompose_ids,
    indecomposable,
)
from ehrhard.jsonio import _dumps  # noqa: E402

INF = math.inf

VALUES_1D = (0.0, 5e-324, 0.3, 0.5, 1.0 - 2.0**-53, 1.0)
VALUES_2D = (0.0, 0.5, 1.0)
# (wedge, vee) of an annotated facet; None leaves the facet unannotated
ANNOTATION_CLASSES = (None, (0.0, 0.0), (0.0, 0.5), (0.5, 1.0), (1.0, 1.0), (0.0, 1.0), (0.3, 0.7))
# check_pino's levels: 0.3 is a cell value and an annotation limit, and the
# band of 0.45 drops the cells of 0.3 but keeps those of 0.5
LEVELS = (0.45, 0.3, 0.2, 0.01)


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


def disagreement(p: Profile, digests: dict) -> str | None:
    """What ``p`` fails, or None; the search and theorem reports go into
    ``digests``."""
    theorem, search = rigidity_verdict(p), exhaustive_search(p)
    digests["search"].update(repr((search.partitions_checked, search.certificate)).encode())
    digests["theorem"].update(_dumps(theorem).encode())
    if theorem.verdict is not search.verdict:
        return f"rigidity_verdict {theorem.verdict} but exhaustive_search {search.verdict}"
    for report in (theorem, search):
        if not report.rigid and not report.certificate.separating:
            return "a non-rigid report without a separating certificate"
    model = from_profile(p)
    low = [a.facet for a in p.annotations if a.wedge == 0.0]
    high = [a.facet for a in p.annotations if a.vee == 1.0]
    got, want = [], []
    for (grid, inside, cut), generic, severed in (
        (p._band(0.0, INF), indecomposable, low),
        (p._complement_band(), complement_indecomposable, high),
    ):
        got += [_one_piece(grid, inside), _one_piece(grid, inside, cut)]
        want += [generic(model), generic(model, severed)]
    if got != want:
        return f"the set and complement bands give {got}, the generic route {want}"
    if p.grid.base_dim == 1:
        gino = check_gino(p)
        if [gino.set_indecomposable, gino.complement_indecomposable] != want[1::2]:
            return f"check_gino gives {gino}, the generic route {want[1::2]}"
    g = set(p.g_cells())
    for t, passed in zip(LEVELS, check_pino(p, LEVELS).passed):
        keep = [cid for cid in p.grid.cells() if t < p.value(cid) < 1.0 - t]
        severed = [a.facet for a in p.annotations if a.wedge <= t or a.vee >= 1.0 - t]
        pieces = decompose_ids(restrict(model, keep), severed)
        if passed != (g <= set(keep) and len(pieces) == 1):
            return f"check_pino at level {t} differs from the interval route"
    for kind in ("ehrhard", "steiner"):
        for sf in scene(p, kind).facets:
            rule = sf.wedge == 0.0 or (kind == "ehrhard" and sf.vee == 1.0)
            if sf.blocked != rule or (sf.blocked and not sf.annotated):
                return f"{kind} scene facet {sf.facet} breaks the blocked rule"
    return None


def main() -> int:
    for name, family in FAMILIES.items():
        start, count = time.perf_counter(), 0
        digests = {"search": hashlib.sha256(), "theorem": hashlib.sha256()}
        for p in family():
            count += 1
            problem = disagreement(p, digests)
            if problem is not None:
                print(f"{name}: {problem}: {p.grid.axes} {p.values} {p.annotations}")
                return 1
        print(f"{name}: {count} profiles agree in {time.perf_counter() - start:.1f} s")
        for kind, digest in digests.items():
            print(f"{name}: {kind} digest {digest.hexdigest()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
