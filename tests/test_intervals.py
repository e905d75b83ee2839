import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from ehrhard import DomainError, Interval, IntervalSet

INF = math.inf


def finite_points(n):
    return st.lists(
        st.floats(min_value=-50.0, max_value=50.0, allow_nan=False),
        min_size=n,
        max_size=n,
        unique=True,
    ).map(sorted)


@st.composite
def interval_sets(draw, max_intervals=4):
    k = draw(st.integers(min_value=0, max_value=max_intervals))
    if k == 0:
        return IntervalSet.empty()
    pts = draw(finite_points(2 * k))
    pairs = [(pts[2 * i], pts[2 * i + 1]) for i in range(k)]
    if draw(st.booleans()):
        pairs[0] = (-INF, pairs[0][1])
    if draw(st.booleans()):
        pairs[-1] = (pairs[-1][0], INF)
    return IntervalSet.from_pairs(pairs)


class TestInterval:
    def test_orders_and_lengths(self):
        iv = Interval(-1.0, 2.5)
        assert iv.length == 3.5
        assert 0.0 in iv
        assert -1.0 not in iv  # open

    def test_rejects_degenerate(self):
        with pytest.raises(DomainError):
            Interval(1.0, 1.0)
        with pytest.raises(DomainError):
            Interval(2.0, 1.0)
        with pytest.raises(DomainError):
            Interval(float("nan"), 1.0)

    def test_infinite_ends(self):
        assert Interval(-INF, INF).length == INF
        assert Interval(0.0, INF).length == INF


class TestCanonicalForm:
    def test_merges_touching_intervals(self):
        s = IntervalSet.from_pairs([(0.0, 1.0), (1.0, 2.0)])
        assert s.to_pairs() == [(0.0, 2.0)]

    def test_merges_overlapping_and_sorts(self):
        s = IntervalSet.from_pairs([(3.0, 5.0), (0.0, 4.0), (-2.0, -1.0)])
        assert s.to_pairs() == [(-2.0, -1.0), (0.0, 5.0)]

    def test_nested_intervals_collapse(self):
        s = IntervalSet.from_pairs([(0.0, 10.0), (2.0, 3.0)])
        assert s.to_pairs() == [(0.0, 10.0)]

    def test_rejects_non_intervals(self):
        with pytest.raises(DomainError):
            IntervalSet([(0.0, 1.0)])  # bare tuple, not Interval

    def test_constructors(self):
        assert IntervalSet.empty().is_empty
        assert IntervalSet.line().to_pairs() == [(-INF, INF)]
        assert IntervalSet.above(INF).is_empty
        assert IntervalSet.below(-INF).is_empty
        assert IntervalSet.above(1.0).to_pairs() == [(1.0, INF)]

    @given(interval_sets())
    def test_canonicalization_idempotent(self, s):
        assert IntervalSet(s.intervals) == s


class TestAlgebra:
    @given(interval_sets(), interval_sets())
    def test_union_contains_both(self, a, b):
        u = a.union(b)
        for s in (a, b):
            assert s.intersect(u) == s

    @given(interval_sets(), interval_sets())
    def test_intersection_commutes(self, a, b):
        assert a.intersect(b) == b.intersect(a)

    @given(interval_sets())
    def test_complement_involution(self, s):
        assert s.complement().complement() == s

    @given(interval_sets())
    def test_complement_partitions_line(self, s):
        assert s.union(s.complement()) == IntervalSet.line()
        assert s.intersect(s.complement()).is_empty

    @given(interval_sets(), interval_sets())
    def test_symdiff_of_equal_is_empty(self, a, b):
        assert a.symdiff(a).is_empty
        assert a.symdiff(b) == b.symdiff(a)

    @given(interval_sets(), interval_sets())
    def test_difference_disjoint_from_other(self, a, b):
        assert a.difference(b).intersect(b).is_empty

    @given(interval_sets())
    def test_reflect_involution_exact(self, s):
        assert s.reflect().reflect() == s

    def test_reflect_concrete(self):
        s = IntervalSet.from_pairs([(-1.0, 2.0), (3.0, INF)])
        assert s.reflect().to_pairs() == [(-INF, -3.0), (-2.0, 1.0)]

    def test_membership_and_endpoints(self):
        s = IntervalSet.from_pairs([(-INF, 0.0), (1.0, 2.0)])
        assert -5.0 in s and 1.5 in s and 0.5 not in s
        assert s.finite_endpoints() == [(0.0, +1), (1.0, -1), (2.0, +1)]

    @given(interval_sets())
    def test_length_additive_over_intervals(self, s):
        assert s.length() == pytest.approx(
            math.fsum(iv.length for iv in s), abs=1e-12
        )

    def test_hash_and_eq(self):
        a = IntervalSet.from_pairs([(0.0, 1.0), (1.0, 2.0)])
        b = IntervalSet.of(0.0, 2.0)
        assert a == b and hash(a) == hash(b)


# a small endpoint pool, so that sets touch and share endpoints (with both
# signs of zero and the infinite ends)
ENDPOINTS = st.sampled_from([-INF, -2.0, -1.0, -0.0, 0.0, 0.5, 1.0, 3.0, INF])


@st.composite
def touching_sets(draw, max_intervals=4):
    pairs = draw(
        st.lists(
            st.tuples(ENDPOINTS, ENDPOINTS).filter(lambda p: p[0] < p[1]),
            max_size=max_intervals,
        )
    )
    return IntervalSet.from_pairs(pairs)


any_sets = st.one_of(interval_sets(), touching_sets())


class TestTrustedResults:
    """intersect, complement, reflect, difference and symdiff build their
    output without canonicalizing it; it must be canonical all the same."""

    @given(any_sets, any_sets)
    def test_results_are_canonical(self, a, b):
        for result in (
            a.intersect(b),
            a.complement(),
            a.reflect(),
            a.difference(b),
            a.symdiff(b),
        ):
            assert result == IntervalSet(list(result))
            assert result == IntervalSet.from_pairs(result.to_pairs())

    @given(any_sets, any_sets)
    def test_symdiff_matches_two_differences(self, a, b):
        want = a.difference(b).union(b.difference(a))
        assert repr(a.symdiff(b).to_pairs()) == repr(want.to_pairs())

    @given(any_sets)
    def test_complement_partitions_line(self, a):
        assert a.union(a.complement()) == IntervalSet.line()
        assert a.intersect(a.complement()).is_empty

    @given(any_sets)
    def test_reflect_involution_keeps_signed_zeros(self, a):
        assert repr(a.reflect().reflect()) == repr(a)

    @given(any_sets)
    def test_intervals_match_pairs(self, a):
        assert a.intervals == tuple(Interval(lo, hi) for lo, hi in a.to_pairs())
        assert len(a) == len(a.intervals)

    def test_public_constructors_validate(self):
        for bad in [(float("nan"), 1.0), (0.0, float("nan")), (2.0, 1.0), (1.0, 1.0)]:
            with pytest.raises(DomainError):
                IntervalSet.of(*bad)
            with pytest.raises(DomainError):
                IntervalSet.from_pairs([(-5.0, -4.0), bad])
        for half_line in (IntervalSet.above, IntervalSet.below):
            with pytest.raises(DomainError):
                half_line(float("nan"))


class TestLengthOverflow:
    """Lengths whose sum passes the float range read inf (math.fsum raises)."""

    def test_finite_lengths_past_the_range(self):
        assert IntervalSet.from_pairs([(0, 1e308), (-1e308, -1)]).length() == INF

    def test_finite_lengths_past_the_range_with_an_infinite_one(self):
        s = IntervalSet.from_pairs([(-INF, -1e308), (-9e307, 0.0), (1.0, 1e308)])
        assert s.length() == INF
