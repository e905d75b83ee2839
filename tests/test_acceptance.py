"""End-to-end acceptance suite: ten numbered criteria, one test each.

Each criterion pins its tolerances and (where stipulated) a wall-clock
budget, draws its randomness from a fixed seed, and ends by printing a
single ``PASS criterion NN`` line with the worst measured slack, so a
``pytest -v`` run shows one pass/fail line per criterion.

 1. Gaussian primitives: tail probability, symmetry, inverse round trip.
 2. Isoperimetric lower bound on random columnar sets; equality on
    half-spaces.
 3. Column symmetrization never increases Gaussian perimeter, conserves
    Gaussian volume, and is idempotent.
 4. The connectedness-based rigidity verdict agrees with pricing every
    two-coloring, over 10^4 random profiles.
 5. Every non-rigid verdict ships an exact-tie competitor made of
    half-line columns, distinct from the model set and from its mirror.
 6. The fiber-pair gap is positive, matches its closed form, and prices
    single-interface reflections exactly.
 7. The vertical part of the model set's perimeter equals the sum of
    jump-interface contributions.
 8. The vanishing-excess family ("mistico"): non-rigid at every
    resolution with an excess that decays linearly.
 9. The level-restriction and complement-split checks are sufficient for
    rigidity; the catalog carries rigid entries failing each check.
10. Steiner symmetrization sanity: Lebesgue perimeter monotone, volume
    conserved exactly, and decomposability matched by the scene graph.
"""

from __future__ import annotations

import math
import random
from time import perf_counter

from conftest import random_columnar, random_profile_1d, random_profile_2d

from ehrhard import (
    ColumnarSet,
    Facet,
    Grid,
    Interval,
    IntervalSet,
    Profile,
    SingularAnnotation,
    Verdict,
    build_counterexample,
    certificate_for,
    check_gino,
    check_pino,
    ehrhard_symmetral,
    essentially_disconnects,
    exhaustive_search,
    f_limits,
    from_profile,
    gamma1,
    gap,
    gauss_density,
    gauss_perimeter,
    gauss_volume,
    halfline_classification,
    indecomposable,
    isoperimetric_bound,
    jump_interfaces,
    lebesgue_volume,
    phi,
    psi,
    rigidity_verdict,
    run_entry,
    scene,
    steiner_symmetral,
)

INF = float("inf")


# ----------------------------------------------------------------------
# shared suites


def _columnar_suite() -> list[ColumnarSet]:
    """The 1000 random planar columnar sets shared by criteria 2 and 3:
    1-D base, at most 20 columns, at most 3 intervals per column."""
    rng = random.Random(20260203)
    return [
        random_columnar(rng, max_cells=20, max_intervals=3) for _ in range(1000)
    ]


_CACHE: dict[str, object] = {}


def _theorem_reports(suite):
    """Connectedness-route verdicts for the shared profile suite, computed
    once and reused by criteria 4, 5, and 9."""
    if "reports" not in _CACHE:
        _CACHE["reports"] = [rigidity_verdict(p) for p in suite]
    return _CACHE["reports"]


def _max_endpoint_shift(a: ColumnarSet, b: ColumnarSet) -> float:
    """Largest movement of a finite section endpoint between two sets on
    the same grid (sections must agree interval-for-interval)."""
    worst = 0.0
    for cid in sorted(set(a.support()) | set(b.support())):
        ea = [t for t, _ in a.section(cid).finite_endpoints()]
        eb = [t for t, _ in b.section(cid).finite_endpoints()]
        assert len(ea) == len(eb)
        for u, v in zip(ea, eb):
            worst = max(worst, abs(u - v))
    return worst


# ----------------------------------------------------------------------
# criteria


def test_criterion_01_gaussian_primitives():
    """phi is centered and symmetric; psi inverts it across [-6, 6]."""
    t0 = perf_counter()

    assert abs(phi(0.0) - 0.5) <= 1e-15

    worst_sym = 0.0
    for k in range(1000):
        t = -8.0 + 16.0 * k / 999.0
        worst_sym = max(worst_sym, abs(phi(t) + phi(-t) - 1.0))
    assert worst_sym <= 1e-14

    worst_ratio = 0.0
    for k in range(1000):
        t = -6.0 + 12.0 * k / 999.0
        err = abs(psi(phi(t)) - t)
        # Below 0 the tail probability is near 1 and a single ulp of it
        # moves the preimage by about eps/density(t); the round-trip bound
        # widens by exactly that quantization step, and by nothing above 0
        # where the tail value keeps full relative resolution.
        tol = 1e-9 + (1.2e-16 / gauss_density(t) if t < 0.0 else 0.0)
        assert err <= tol
        worst_ratio = max(worst_ratio, err / tol)

    elapsed = perf_counter() - t0
    assert elapsed < 1.0
    print(
        f"PASS criterion 01: gaussian primitives -- symmetry defect "
        f"{worst_sym:.3e} (<= 1e-14), worst round-trip at {worst_ratio:.2f} "
        f"of budget, {elapsed:.2f}s"
    )


def test_criterion_02_isoperimetric_bound():
    """Gaussian perimeter dominates the isoperimetric function of the
    volume on 1000 random columnar sets; half-spaces achieve equality."""
    t0 = perf_counter()

    min_slack = INF
    for e in _columnar_suite():
        v = gauss_volume(e)
        p = gauss_perimeter(e).total_gauss
        slack = p - isoperimetric_bound(v)
        min_slack = min(min_slack, slack)
        assert slack >= -1e-10

    rng = random.Random(20260204)
    worst_eq = 0.0
    for k in range(50):
        if k % 2 == 0:  # horizontal half-space of prescribed mass
            v = rng.uniform(0.01, 0.99)
            e = ColumnarSet(Grid((-INF, INF)), {(0,): IntervalSet.above(psi(v))})
        else:  # vertical half-space over a shifted breakpoint
            c = rng.uniform(-4.0, 4.0)
            e = ColumnarSet(Grid((-INF, c, INF)), {(1,): IntervalSet.line()})
        defect = abs(
            gauss_perimeter(e).total_gauss - isoperimetric_bound(gauss_volume(e))
        )
        worst_eq = max(worst_eq, defect)
        assert defect <= 1e-10

    elapsed = perf_counter() - t0
    assert elapsed < 10.0
    print(
        f"PASS criterion 02: isoperimetric bound -- min slack {min_slack:.3e} "
        f"(>= -1e-10), half-space equality defect {worst_eq:.3e} (<= 1e-10), "
        f"{elapsed:.2f}s"
    )


def test_criterion_03_symmetrization_inequality():
    """Column symmetrization: perimeter never increases, Gaussian volume
    is conserved, and the operation is idempotent, on the same suite."""
    t0 = perf_counter()

    min_drop = INF
    worst_vol = 0.0
    worst_idem = 0.0
    for e in _columnar_suite():
        s = ehrhard_symmetral(e)
        drop = gauss_perimeter(e).total_gauss - gauss_perimeter(s).total_gauss
        min_drop = min(min_drop, drop)
        assert drop >= -1e-10
        dv = abs(gauss_volume(e) - gauss_volume(s))
        worst_vol = max(worst_vol, dv)
        assert dv <= 1e-12
        shift = _max_endpoint_shift(s, ehrhard_symmetral(s))
        worst_idem = max(worst_idem, shift)
        assert shift <= 1e-9

    elapsed = perf_counter() - t0
    assert elapsed < 10.0
    print(
        f"PASS criterion 03: symmetrization -- min perimeter drop "
        f"{min_drop:.3e} (>= -1e-10), volume defect {worst_vol:.3e} "
        f"(<= 1e-12), idempotence shift {worst_idem:.3e} (<= 1e-9), "
        f"{elapsed:.2f}s"
    )


def test_criterion_04_verdict_agreement(verdict_suite):
    """The connectedness verdict agrees with exhaustively pricing every
    non-trivial two-coloring on 10^4 random 1-D profiles."""
    t0 = perf_counter()

    reports = _theorem_reports(verdict_suite)
    nonrigid = 0
    for p, rep in zip(verdict_suite, reports):
        srep = exhaustive_search(p)
        assert rep.verdict is srep.verdict
        if rep.verdict is Verdict.NONRIGID:
            nonrigid += 1

    elapsed = perf_counter() - t0
    assert elapsed < 120.0
    print(
        f"PASS criterion 04: verdict agreement -- 10000/10000 profiles "
        f"agree ({nonrigid} non-rigid), {elapsed:.2f}s"
    )


def test_criterion_05_counterexample_exactness(verdict_suite):
    """Every non-rigid verdict carries a competitor that ties the model
    perimeter to 1e-10, sits a positive distance from both the model set
    and its mirror, and is made entirely of half-line columns."""
    t0 = perf_counter()

    reports = _theorem_reports(verdict_suite)
    cases = 0
    worst_tie = 0.0
    min_dist = INF
    for rep in reports:
        if rep.verdict is not Verdict.NONRIGID:
            continue
        cases += 1
        tie = abs(rep.perimeter_check.difference)
        worst_tie = max(worst_tie, tie)
        assert tie <= 1e-10
        sd = rep.symdiff_check
        min_dist = min(min_dist, sd.vs_symmetral, sd.vs_reflected)
        assert sd.vs_symmetral > 1e-12
        assert sd.vs_reflected > 1e-12
        assert halfline_classification(rep.counterexample).total

    assert cases > 0
    elapsed = perf_counter() - t0
    print(
        f"PASS criterion 05: counterexample exactness -- {cases} non-rigid "
        f"cases, worst perimeter tie {worst_tie:.3e} (<= 1e-10), min "
        f"symmetric-difference mass {min_dist:.3e} (> 1e-12), {elapsed:.2f}s"
    )


def test_criterion_06_gap_positivity_and_pricing():
    """The fiber-pair gap is strictly positive for finite heights, matches
    the closed form 2*phi(max(beta, -alpha)), and prices the perimeter
    excess of a single-interface reflection through the facet weight."""
    t0 = perf_counter()

    rng = random.Random(20260206)
    worst_branch = 0.0
    for _ in range(10_000):
        a = rng.uniform(-5.0, 5.0)
        b = rng.uniform(-5.0, 5.0)
        if b < a:
            a, b = b, a
        g = gap(a, b)
        assert g > 0.0
        defect = abs(g - 2.0 * phi(max(b, -a)))
        worst_branch = max(worst_branch, defect)
        assert defect <= 1e-12

    worst_price = 0.0
    for _ in range(1000):
        c = rng.uniform(-2.0, 2.0)
        grid = Grid((-INF, c, INF))
        p = Profile(
            grid,
            {(0,): rng.uniform(0.05, 0.95), (1,): rng.uniform(0.05, 0.95)},
        )
        cert = certificate_for(scene(p), [(0,)])
        competitor = build_counterexample(p, cert)
        excess = (
            gauss_perimeter(competitor).total_gauss
            - gauss_perimeter(from_profile(p)).total_gauss
        )
        facet = Facet(0, 1, 0)
        expected = grid.facet_gauss(facet) * gap(*f_limits(p, facet))
        defect = abs(excess - expected)
        worst_price = max(worst_price, defect)
        assert defect <= 1e-12

    elapsed = perf_counter() - t0
    print(
        f"PASS criterion 06: gap positivity and pricing -- branch defect "
        f"{worst_branch:.3e}, reflection pricing defect {worst_price:.3e} "
        f"(both <= 1e-12), {elapsed:.2f}s"
    )


def test_criterion_07_vertical_perimeter_slicing():
    """The vertical part of the model set's Gaussian perimeter equals the
    sum over jump interfaces of facet weight times the one-dimensional
    mass between the two boundary heights, on 1-D and 2-D bases."""
    t0 = perf_counter()

    rng = random.Random(20260207)
    profiles = [random_profile_1d(rng) for _ in range(500)]
    profiles += [random_profile_2d(rng) for _ in range(500)]

    worst = 0.0
    for p in profiles:
        vertical = gauss_perimeter(from_profile(p)).vertical_gauss
        total = math.fsum(
            p.grid.facet_gauss(j.facet) * gamma1(Interval(psi(j.vee), psi(j.wedge)))
            for j in jump_interfaces(p)
        )
        defect = abs(vertical - total)
        worst = max(worst, defect)
        assert defect <= 1e-12

    elapsed = perf_counter() - t0
    print(
        f"PASS criterion 07: vertical perimeter slicing -- worst defect "
        f"{worst:.3e} (<= 1e-12) over 500 1-D and 500 2-D profiles, "
        f"{elapsed:.2f}s"
    )


def test_criterion_08_vanishing_excess_family():
    """The "mistico" family is non-rigid at every resolution with the
    witness splitting at the middle coordinate, stays in one essential
    piece on both sides, and its perimeter excess decays linearly."""
    t0 = perf_counter()

    resolutions = [1 / 8, 1 / 16, 1 / 32, 1 / 64]
    excesses = []
    for h in resolutions:
        res = run_entry("mistico", resolution=h)
        checks = {c.label: c.ok for c in res.checks}
        assert res.report.verdict is Verdict.NONRIGID
        assert checks["witness-splits-at-zero"]
        assert checks["set-one-piece"]
        assert checks["complement-one-piece"]
        assert res.passed, [c for c in res.checks if not c.ok]
        excesses.append(res.extras["excess"])

    for a, b in zip(excesses, excesses[1:]):
        assert b < a
    assert excesses[-1] < excesses[0] / 4.0

    elapsed = perf_counter() - t0
    assert elapsed < 60.0
    print(
        f"PASS criterion 08: vanishing excess -- non-rigid at h=1/8..1/64, "
        f"excess {excesses[0]:.6f} -> {excesses[-1]:.6f} "
        f"(ratio {excesses[-1] / excesses[0]:.3f} < 1/4), {elapsed:.2f}s"
    )


def test_criterion_09_sufficient_conditions(verdict_suite):
    """A pass of the level-restriction check or of the complement-split
    check implies rigidity on the shared suite; the catalog carries rigid
    entries on which each check individually fails."""
    t0 = perf_counter()

    reports = _theorem_reports(verdict_suite)
    pino_passes = 0
    gino_passes = 0
    for p, rep in zip(verdict_suite, reports):
        if check_pino(p):
            pino_passes += 1
            assert rep.verdict is Verdict.RIGID
        if check_gino(p):
            gino_passes += 1
            assert rep.verdict is Verdict.RIGID

    maria = run_entry("maria3")
    assert maria.passed, [c for c in maria.checks if not c.ok]
    assert maria.report.verdict is Verdict.RIGID
    assert not check_pino(maria.profile, maria.extras["declared_levels"])

    spikes = run_entry("spikes")
    assert spikes.passed, [c for c in spikes.checks if not c.ok]
    assert spikes.report.verdict is Verdict.RIGID
    assert not check_gino(spikes.profile)

    elapsed = perf_counter() - t0
    print(
        f"PASS criterion 09: sufficient conditions -- 0 violations "
        f"({pino_passes} level-restriction passes, {gino_passes} "
        f"complement-split passes, all rigid), {elapsed:.2f}s"
    )


def test_criterion_10_steiner_sanity():
    """Steiner symmetrization on bounded sets: Lebesgue perimeter never
    increases and Lebesgue volume is conserved exactly; decomposability
    of the centered model set matches the scene-graph verdict."""
    t0 = perf_counter()

    rng = random.Random(20260210)
    min_drop = INF
    for _ in range(1000):
        e = random_columnar(rng, max_cells=20, max_intervals=3, bounded=True)
        s = steiner_symmetral(e)
        drop = gauss_perimeter(e).total_lebesgue - gauss_perimeter(s).total_lebesgue
        min_drop = min(min_drop, drop)
        assert drop >= -1e-10
        assert lebesgue_volume(s) == lebesgue_volume(e)

    agreements = 0
    for _ in range(1000):
        while True:
            p = random_profile_1d(rng)
            if any(v > 0.0 for v in p.values.values()):
                break
        annotations = []
        for f in p.grid.facets(interior_only=True):
            if rng.random() < 0.3:
                vee = rng.uniform(0.0, 1.0)
                wedge = 0.0 if rng.random() < 0.5 else rng.uniform(0.0, vee)
                annotations.append(SingularAnnotation(f, wedge, vee))
        q = Profile(p.grid, p.values, annotations)

        centered = ColumnarSet(
            q.grid,
            {
                cid: IntervalSet.of(-0.5 * v, 0.5 * v)
                for cid, v in q.values.items()
                if v > 0.0
            },
        )
        severed = [a.facet for a in q.annotations if a.wedge == 0.0]
        one_piece = indecomposable(centered, severed)
        disconnected, _ = essentially_disconnects(scene(q, kind="steiner"))
        assert one_piece == (not disconnected)
        agreements += 1

    elapsed = perf_counter() - t0
    print(
        f"PASS criterion 10: steiner sanity -- min Lebesgue perimeter drop "
        f"{min_drop:.3e} (>= -1e-10), exact volume conservation, "
        f"{agreements}/1000 decomposability agreements, {elapsed:.2f}s"
    )
