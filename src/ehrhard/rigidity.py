"""Rigidity analysis for symmetrized model sets.

A profile is *rigid* when every set that matches its column masses and
ties the model set's Gaussian perimeter is, up to null sets and a global
mirror, the model set itself. The decision runs through essential
connectedness: the model set is rigid exactly when the singular
interfaces fail to disconnect the region G, and every essential
disconnection converts into an explicit competitor by mirroring the
columns on one side of the partition.

Each crossing interface of a candidate partition pays a computable
Gaussian cost (see :func:`ehrhard.gauss.gap`), which is zero exactly on
blocked interfaces. That identity powers both the theorem route (graph
connectivity) and the exhaustive route (enumerate all two-colorings and
price them); the two must always agree.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Any, Callable, Optional, Sequence

from .columnar import (
    ColumnarSet,
    ColumnClassification,
    _symdiff_walk,
    gauss_perimeter,
    halfline_classification,
)
from .connectedness import (
    PartitionCertificate,
    SpanningStructure,
    _certificate,
    _decide,
    _one_piece,
)
from .errors import (
    EhrhardError,
    PartitionError,
    ProfileError,
    SearchBoundError,
)
from .gauss import gamma1
from .grids import Facet
from .intervals import _Lazy
from .profiles import Profile, approx_limits, from_profile

__all__ = [
    "Verdict",
    "PerimeterCheck",
    "SymdiffCheck",
    "RigidityReport",
    "rigidity_verdict",
    "rigidity_verdict_planar",
    "build_counterexample",
    "EqualityCaseReport",
    "verify_equality_case",
    "exhaustive_search",
    "LevelRestrictionReport",
    "check_pino",
    "default_levels",
    "ComplementSplitReport",
    "check_gino",
]


class Verdict(Enum):
    RIGID = "Rigid"
    NONRIGID = "NonRigid"


@dataclass(frozen=True)
class PerimeterCheck:
    """Gaussian perimeters of a competitor and of the model set."""

    candidate: float
    symmetral: float
    difference: float


@dataclass(frozen=True)
class SymdiffCheck:
    """Distances (in symmetric-difference mass) to the model set and its mirror."""

    vs_symmetral: float
    vs_reflected: float


def _evidence(**prices: Callable[[RigidityReport], Any]) -> dict[str, Callable]:
    """The report's price table: each piece of evidence on its own, by its
    price, or None on a report without a certificate to mirror or a
    profile to mirror it from."""

    def group(name: str, price: Callable[[RigidityReport], Any]) -> Callable:
        return lambda r: {name: None if r._profile is None or r.certificate is None else price(r)}

    return {name: group(name, price) for name, price in prices.items()}


# ``_model`` is the model set, which the competitor mirrors and both checks read
_EVIDENCE = _evidence(
    counterexample=lambda r: _mirror(r._model, r.certificate),
    _model=lambda r: from_profile(r._profile),
    perimeter_check=lambda r: _perimeter_check(r.counterexample, r._model),
    symdiff_check=lambda r: _symdiff_check(r.counterexample, r._model),
)


@dataclass(frozen=True)
class RigidityReport(_Lazy):
    """Outcome of a rigidity decision.

    A NonRigid report carries the separating certificate, the mirrored
    competitor, its perimeter comparison against the model set, and its
    distances to the model set and to the fully mirrored set. A Rigid
    report from the theorem route carries the spanning structure that
    connects G, and no competitor or checks (they read None). For
    profiles without annotations the competitor ties the model perimeter
    exactly; with annotations the tie is asymptotic along refinements and
    the report's notes say so.

    The verdict, the certificate and the connectivity are eager; the
    competitor and its two checks are priced each on its own, from the
    profile the report keeps in ``_profile``. The competitor and the
    model set are priced once and shared by both checks, so a caller
    that reads only the certificate pays for none of them, and one that
    reads only ``perimeter_check`` prices no symmetric difference.
    """

    verdict: Verdict
    method: str
    annotated: bool
    certificate: Optional[PartitionCertificate] = None
    connectivity: Optional[SpanningStructure] = None
    counterexample: Optional[ColumnarSet] = field(init=False)
    perimeter_check: Optional[PerimeterCheck] = field(init=False)
    symdiff_check: Optional[SymdiffCheck] = field(init=False)
    partitions_checked: int = 0
    notes: tuple[str, ...] = ()
    _profile: Optional[Profile] = field(default=None, repr=False, compare=False)

    _PRICES = _EVIDENCE

    @property
    def rigid(self) -> bool:
        return self.verdict is Verdict.RIGID


def _perimeter_check(e: ColumnarSet, f: ColumnarSet) -> PerimeterCheck:
    pe = gauss_perimeter(e).total_gauss
    pf = gauss_perimeter(f).total_gauss
    return PerimeterCheck(pe, pf, pe - pf)


def _symdiff_check(e: ColumnarSet, f: ColumnarSet) -> SymdiffCheck:
    """``symdiff_volume`` of ``e`` against ``f`` and against ``reflect(f)``,
    for two sets on one grid."""
    return SymdiffCheck(
        vs_symmetral=_symdiff_walk(e, f),
        vs_reflected=_symdiff_walk(e, f, mirrored=True),
    )


def _report(
    p: Profile,
    method: str,
    certificate: Optional[PartitionCertificate] = None,
    connectivity: Optional[SpanningStructure] = None,
    checked: int = 0,
    notes: tuple[str, ...] = (),
) -> RigidityReport:
    """A route's report on ``p``: NonRigid with a certificate, whose
    evidence it prices from ``p``, else Rigid."""
    annotated, nonrigid = bool(p.annotations), certificate is not None
    if nonrigid and annotated:
        notes = (
            "annotated profile: the mirrored competitor ties the perimeter only "
            "asymptotically along refinements; the reported difference is for "
            "this grid",
        )
    return RigidityReport._held(
        verdict=Verdict.NONRIGID if nonrigid else Verdict.RIGID,
        method=method,
        annotated=annotated,
        certificate=certificate,
        connectivity=connectivity,
        partitions_checked=checked,
        notes=notes,
        _profile=p if nonrigid else None,
    )


def rigidity_verdict(p: Profile) -> RigidityReport:
    """Decide rigidity through essential connectedness of the scene graph.

    Decided on the grid's edges; no :class:`~ehrhard.connectedness.Scene`
    is built.
    """
    grid, in_g, blocked = p._band(0.0, 1.0)
    disconnected, witness = _decide(grid, in_g, blocked)
    if disconnected:
        return _report(p, "theorem", certificate=witness)
    notes = () if True in in_g else ("no cells with 0 < v < 1: rigid vacuously",)
    return _report(p, "theorem", connectivity=witness, notes=notes)


def _planar_rigid(p: Profile) -> bool:
    """Direct 1-D criterion: G is one contiguous run with no blocked interior facet."""
    g = [cid[0] for cid in p.g_cells()]
    if not g:
        return True
    if max(g) - min(g) + 1 != len(g):
        return False
    for line in range(min(g) + 1, max(g) + 1):
        wedge, vee = approx_limits(p, facet=Facet(0, line, 0))
        if wedge == 0.0 or vee == 1.0:
            return False
    return True


def rigidity_verdict_planar(p: Profile) -> RigidityReport:
    """Decide rigidity of a 1-D profile by the run criterion.

    The contiguous-run test is evaluated independently and cross-checked
    against the scene route on every call; a disagreement would be a bug
    in one of the routes and raises immediately.
    """
    if p.grid.base_dim != 1:
        raise ProfileError("planar rigidity criterion needs a 1-D base")
    report = rigidity_verdict(p)
    if _planar_rigid(p) != report.rigid:
        raise EhrhardError("planar run criterion disagrees with the scene route")
    return RigidityReport._held(**{**vars(report), "method": "planar-theorem"})


def build_counterexample(p: Profile, cert: PartitionCertificate) -> ColumnarSet:
    """Mirror the minus-side columns of the model set.

    Cells on the plus side keep their upper half-lines (psi(v), inf),
    minus-side cells flip to (-inf, -psi(v)), full cells stay full and
    empty cells stay empty. The result has the same column masses as the
    model set; it ties the perimeter exactly when the certificate's
    crossing interfaces are all blocked and the profile is unannotated.
    A report's ``counterexample`` is the same set, mirrored from the
    model set the report already holds.
    """
    g = set(p.g_cells())
    plus = {tuple(c) for c in cert.plus_cells}
    minus = {tuple(c) for c in cert.minus_cells}
    if plus & minus:
        raise PartitionError("certificate sides overlap")
    if (plus | minus) != g:
        raise PartitionError("certificate sides must partition the cells with 0 < v < 1")
    return _mirror(from_profile(p), cert)


def _mirror(model: ColumnarSet, cert: PartitionCertificate) -> ColumnarSet:
    """The model set with its minus-side columns reflected through height 0.

    Reflecting (psi(v), inf) gives (-inf, -psi(v)), the same floats as
    ``IntervalSet.below(-psi(v))``; every other column is shared. The
    model set shares one section per distinct value, and each is reflected
    once, keyed by identity (equal sections may differ in the sign of a
    zero endpoint).
    """
    minus = {tuple(c) for c in cert.minus_cells}
    shared = {id(s): s for cid, s in model._sections.items() if cid in minus}
    flipped = {key: s.reflect() for key, s in shared.items()}
    return ColumnarSet._of_cells(
        model.grid,
        {cid: flipped[id(s)] if cid in minus else s for cid, s in model._sections.items()},
    )


@dataclass(frozen=True)
class EqualityCaseReport:
    """Verification that a competitor realizes the equality case.

    ``halfline_total`` is None when the perimeter tie fails at 1e-9, in
    which case the column classification is not informative.
    """

    max_distribution_error: float
    is_distributed: bool
    perimeter_check: PerimeterCheck
    equality: bool
    classification: Optional[ColumnClassification]
    halfline_total: Optional[bool]
    symdiff_check: SymdiffCheck

    @property
    def passed(self) -> bool:
        return self.is_distributed and self.equality and self.halfline_total is True


def verify_equality_case(
    e: ColumnarSet, p: Profile, tolerance: float = 1e-10
) -> EqualityCaseReport:
    """Check a candidate equality case: masses, perimeter tie, column shapes."""
    if e.grid != p.grid:
        raise PartitionError("candidate and profile must share a grid")
    f = from_profile(p)
    max_err = max(
        abs(gamma1(e.section(cid)) - p.value(cid)) for cid in p.grid.cells()
    )
    perimeter = _perimeter_check(e, f)
    classification = None
    halfline_total = None
    if abs(perimeter.difference) <= 1e-9:
        classification = halfline_classification(e)
        halfline_total = classification.total
    return EqualityCaseReport(
        max_distribution_error=max_err,
        is_distributed=max_err <= 1e-12,
        perimeter_check=perimeter,
        equality=abs(perimeter.difference) <= tolerance,
        classification=classification,
        halfline_total=halfline_total,
        symdiff_check=_symdiff_check(e, f),
    )


def _mirror_cost(gauss: float, wedge: float, vee: float) -> float:
    """Perimeter cost of mirroring across an interface; 0 exactly when it is blocked."""
    return gauss * 2.0 * min(wedge, 1.0 - vee)


# masks priced per block: 2^_BLOCK_BITS of them, one bit each in an int
_BLOCK_BITS = 12
# _COLUMNS[w][k] is bit k's column over the masks 0..2^w - 1, as a 2^w-bit
# int whose bit m is mask m's bit k: runs of r = 2^k zeros, then r ones.
# One period, ((1 << r) - 1) << r, times the repunit of 2r-bit digits.
_COLUMNS = tuple(
    tuple(
        (((1 << r) - 1) << r) * (((1 << 2**w) - 1) // ((1 << 2 * r) - 1))
        for r in (2**k for k in range(w))
    )
    for w in range(_BLOCK_BITS + 1)
)


def exhaustive_search(p: Profile, max_cells: int = 12) -> RigidityReport:
    """Price every non-trivial two-coloring of the G-cells.

    Enumerates all 2^g - 2 colorings in ascending bitmask order (bit k is
    the k-th G-cell in lexicographic order; set bits form the minus side)
    and accepts the first that crosses no unblocked interface. Blocked
    interfaces cost exactly zero; an unblocked one has positive measure by
    its structure and is never free, even where its float price
    underflows to 0.0. Both sides of a coloring are non-empty, so an
    accepted coloring separates. Instances with more than ``max_cells``
    G-cells are refused outright to keep the enumeration honest.

    The masks are priced 4,096 at a time (all 2^g at once when g < 12) as
    bit columns: in a block, cell k's column is an int whose bit m is mask
    ``base + m``'s bit k, and the OR over the unblocked links of the XOR
    of their two columns marks every mask of the block that crosses one.
    There is no pruning: every mask is priced against every unblocked
    link, and ``partitions_checked`` counts the masks 1 through the
    accepted one (all 2^g - 2 when none is). The search picks the G-G
    links once and hands them to the accepted coloring's certificate,
    which recounts its unblocked crossings from them and picks nothing.
    """
    grid, in_g, blocked = p._band(0.0, 1.0)
    g = [i for i, inside in enumerate(in_g) if inside]
    n = len(g)
    if n > max_cells:
        raise SearchBoundError(
            f"exhaustive search over {n} cells with 0 < v < 1 exceeds the bound "
            f"of {max_cells}; pass a larger max_cells to force it"
        )
    pos = {i: k for k, i in enumerate(g)}
    links = list(grid._links(in_g))  # the G-G links, few as g <= max_cells
    unblocked = [(pos[i], pos[j]) for k, i, j in links if k not in blocked]
    width = min(n, _BLOCK_BITS)
    size, low = 1 << width, _COLUMNS[width]
    full = (1 << size) - 1
    for base in range(0, 1 << n, size):
        # past the low bits a mask's bits are base's, constant in the block
        col = [*low, *(full if base >> k & 1 else 0 for k in range(width, n))]
        bad = 0 if base else 1  # mask 0: the minus side is empty
        if base + size == 1 << n:
            bad |= 1 << (size - 1)  # mask 2^g - 1: the plus side is empty
        for a, b in unblocked:
            bad |= col[a] ^ col[b]
        free = full & ~bad
        if free:
            mask = base + (free & -free).bit_length() - 1
            minus = [i for i in g if mask >> pos[i] & 1]
            cert = _certificate(grid, in_g, blocked, minus, links)
            return _report(p, "exhaustive-search", certificate=cert, checked=mask)
    return _report(
        p,
        "exhaustive-search",
        checked=max((1 << n) - 2, 0),
        notes=("every non-trivial two-coloring pays positive interface cost",),
    )


# ----------------------------------------------------------------------
# sufficient conditions


@dataclass(frozen=True)
class LevelRestrictionReport:
    """Connectivity of the model set restricted between symmetric levels.

    For each level t the model set is cut down to the columns with
    t < v < 1 - t, interfaces whose declared limits leave that band are
    severed, and the restriction must be one essential piece; a level
    that drops a cell with 0 < v < 1 never passes. ``overall`` (and
    truthiness) requires at least one level, and every level to pass.
    """

    levels: tuple[float, ...]
    passed: tuple[bool, ...]
    overall: bool

    def __bool__(self) -> bool:
        return self.overall


def default_levels(p: Profile) -> tuple[float, ...]:
    """Up to three decreasing levels fitted under the profile's value range.

    The largest level ``b`` is half the distance from the G-values to
    {0, 1} (capped at 1/4), so even the coarsest restriction keeps every
    G-cell. The levels are the positive values among ``b, b/4, b/16``,
    which decrease strictly (a quarter of a positive double is smaller or
    0): where that distance is subnormal the quarters round to 0 and are
    left out, and where ``b`` itself rounds to 0 no level keeps every
    G-cell and there are none.
    """
    margins = [min(v, 1.0 - v) for v in p._values.values() if 0.0 < v < 1.0]
    if not margins:
        return (0.25,)
    b = min(0.25, min(margins) / 2.0)
    return tuple(t for t in (b, b / 4.0, b / 16.0) if t > 0.0)


def check_pino(p: Profile, levels: Optional[Sequence[float]] = None) -> LevelRestrictionReport:
    """Level-restriction connectivity check (sufficient for rigidity).

    A level passes only when it keeps every cell with 0 < v < 1; it
    severs at least every blocked interface, so the restricted piece
    graph is a subgraph of the scene graph on the same cells and a pass
    implies rigidity. A coarse level that drops a G-cell fails. The
    default levels keep every G-cell; where no positive level does (a
    G-value within a subnormal step of 0 or 1) they are empty and the
    report fails with no levels, while an explicit empty ``levels`` is an
    error. The converse fails either way; rigid profiles with tall thin
    features fail every reasonable level choice.
    """
    ts = default_levels(p) if levels is None else tuple(float(t) for t in levels)
    if not ts and levels is not None:
        raise ProfileError("need at least one level")
    for t in ts:
        if math.isnan(t) or not 0.0 < t < 0.5:
            raise ProfileError(f"level {t!r} outside (0, 1/2)")
    for a, b in zip(ts, ts[1:]):
        if not b < a:
            raise ProfileError("levels must be strictly decreasing")
    # a level keeps G exactly when its band's flags are G's, and then its
    # answer depends only on its cut: each distinct cut is asked once
    grid, in_g, _ = p._band(0.0, 1.0)
    answers: dict[frozenset[int], bool] = {}
    passed = []
    for t in ts:
        _, inside, cut = p._band(t, 1.0 - t)
        keeps_g = inside == in_g
        key = frozenset(cut)
        if keeps_g and key not in answers:
            answers[key] = _one_piece(grid, in_g, cut)
        passed.append(keeps_g and answers[key])
    return LevelRestrictionReport(
        levels=ts, passed=tuple(passed), overall=bool(passed) and all(passed)
    )


@dataclass(frozen=True)
class ComplementSplitReport:
    """Indecomposability of the model set and of its complement."""

    set_indecomposable: bool
    complement_indecomposable: bool
    overall: bool

    def __bool__(self) -> bool:
        return self.overall


def check_gino(p: Profile) -> ComplementSplitReport:
    """Two-sided indecomposability check for 1-D bases (sufficient for rigidity).

    The model set must be one essential piece with interfaces pinched to 0
    severed, and its complement one essential piece with interfaces
    saturated at 1 severed. Either failure leaves room for an essential
    disconnection, but a failure alone does not certify one: the check is
    sufficient, not necessary.
    """
    if p.grid.base_dim != 1:
        raise ProfileError("complement split check needs a 1-D base")
    set_ok = _one_piece(*p._band(0.0, math.inf))
    comp_ok = _one_piece(*p._complement_band())
    return ComplementSplitReport(
        set_indecomposable=set_ok,
        complement_indecomposable=comp_ok,
        overall=set_ok and comp_ok,
    )
