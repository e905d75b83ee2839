"""Canonical finite unions of open intervals on the extended real line.

Sets of reals appear in this package only up to Lebesgue/Gauss null sets,
which fixes the canonical form used here: every set is a sorted tuple of
disjoint open intervals with exact float endpoints (``-inf``/``inf``
allowed, NaN rejected), and intervals that share an endpoint are merged,
since the missing point is null. Endpoints are never snapped or rounded;
all arithmetic is exact float comparison.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Iterator

from .errors import DomainError

INF = math.inf


def _ext(x: float, what: str) -> float:
    x = float(x)
    if math.isnan(x):
        raise DomainError(f"{what} must not be NaN")
    return x


@dataclass(frozen=True, slots=True)
class Interval:
    """Open interval (lo, hi) with lo < hi; either end may be infinite."""

    lo: float
    hi: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "lo", _ext(self.lo, "interval endpoint"))
        object.__setattr__(self, "hi", _ext(self.hi, "interval endpoint"))
        if not self.lo < self.hi:
            raise DomainError(f"empty or reversed interval ({self.lo}, {self.hi})")

    @property
    def length(self) -> float:
        return self.hi - self.lo

    def __contains__(self, t: float) -> bool:
        return self.lo < t < self.hi


_new = object.__new__
# slot descriptors write the frozen fields directly, skipping __post_init__
_set_lo = Interval.lo.__set__
_set_hi = Interval.hi.__set__


def _interval(lo: float, hi: float) -> Interval:
    """Interval from float endpoints already known to satisfy lo < hi (no checks)."""
    iv = _new(Interval)
    _set_lo(iv, lo)
    _set_hi(iv, hi)
    return iv


def _canonical_set(ivs: tuple[Interval, ...]) -> "IntervalSet":
    """Set over intervals already in canonical form (no sort, no checks)."""
    s = _new(IntervalSet)
    s._ivs = ivs
    return s


class IntervalSet:
    """Immutable union of disjoint open intervals in canonical form."""

    __slots__ = ("_ivs",)

    def __init__(self, intervals: Iterable[Interval] = ()) -> None:
        self._ivs: tuple[Interval, ...] = _canonical(intervals)

    # ------------------------------------------------------------------
    # constructors

    @staticmethod
    def empty() -> "IntervalSet":
        return IntervalSet()

    @staticmethod
    def line() -> "IntervalSet":
        return IntervalSet((Interval(-INF, INF),))

    @staticmethod
    def of(lo: float, hi: float) -> "IntervalSet":
        return IntervalSet((Interval(lo, hi),))

    @staticmethod
    def above(a: float) -> "IntervalSet":
        """Open half-line (a, inf); empty when a = inf."""
        a = _ext(a, "half-line endpoint")
        if a == INF:
            return IntervalSet()
        return _canonical_set((_interval(a, INF),))

    @staticmethod
    def below(b: float) -> "IntervalSet":
        """Open half-line (-inf, b); empty when b = -inf."""
        b = _ext(b, "half-line endpoint")
        if b == -INF:
            return IntervalSet()
        return _canonical_set((_interval(-INF, b),))

    @staticmethod
    def from_pairs(pairs: Iterable[tuple[float, float]]) -> "IntervalSet":
        return IntervalSet(Interval(lo, hi) for lo, hi in pairs)

    # ------------------------------------------------------------------
    # basic queries

    @property
    def intervals(self) -> tuple[Interval, ...]:
        return self._ivs

    @property
    def is_empty(self) -> bool:
        return not self._ivs

    def __iter__(self) -> Iterator[Interval]:
        return iter(self._ivs)

    def __len__(self) -> int:
        return len(self._ivs)

    def __contains__(self, t: float) -> bool:
        return any(t in iv for iv in self._ivs)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, IntervalSet):
            return NotImplemented
        return self._ivs == other._ivs

    def __hash__(self) -> int:
        return hash(self._ivs)

    def __repr__(self) -> str:
        body = ", ".join(f"({iv.lo}, {iv.hi})" for iv in self._ivs)
        return f"IntervalSet[{body}]"

    def to_pairs(self) -> list[tuple[float, float]]:
        return [(iv.lo, iv.hi) for iv in self._ivs]

    def length(self) -> float:
        """Total Lebesgue length; inf if any interval is unbounded."""
        return math.fsum(iv.length for iv in self._ivs)

    def finite_endpoints(self) -> list[tuple[float, int]]:
        """Finite boundary points as (t, normal) with the outward normal sign.

        At a lower endpoint the set lies above t, so the outward normal is -1;
        at an upper endpoint it is +1.
        """
        out: list[tuple[float, int]] = []
        for iv in self._ivs:
            if iv.lo != -INF:
                out.append((iv.lo, -1))
            if iv.hi != INF:
                out.append((iv.hi, +1))
        return out

    # ------------------------------------------------------------------
    # set algebra (all exact, all returning canonical form)
    #
    # intersect, complement, symdiff and reflect map canonical input to
    # canonical output (sorted, disjoint, never touching), so they build
    # their result without re-sorting or re-validating it.

    def union(self, other: "IntervalSet") -> "IntervalSet":
        return IntervalSet(self._ivs + other._ivs)

    def intersect(self, other: "IntervalSet") -> "IntervalSet":
        out: list[Interval] = []
        i, j = 0, 0
        a, b = self._ivs, other._ivs
        na, nb = len(a), len(b)
        while i < na and j < nb:
            x, y = a[i], b[j]
            # max(x.lo, y.lo) and min(x.hi, y.hi), keeping the first on ties
            lo = y.lo if y.lo > x.lo else x.lo
            hi = y.hi if y.hi < x.hi else x.hi
            if lo < hi:
                out.append(_interval(lo, hi))
            if x.hi <= y.hi:
                i += 1
            else:
                j += 1
        return _canonical_set(tuple(out))

    def complement(self) -> "IntervalSet":
        out: list[Interval] = []
        cursor = -INF
        for iv in self._ivs:
            if cursor < iv.lo:
                out.append(_interval(cursor, iv.lo))
            cursor = iv.hi
        if cursor < INF:
            out.append(_interval(cursor, INF))
        return _canonical_set(tuple(out))

    def difference(self, other: "IntervalSet") -> "IntervalSet":
        return self.intersect(other.complement())

    def symdiff(self, other: "IntervalSet") -> "IntervalSet":
        a, b = self._ivs, other._ivs
        if not b:
            return self
        if not a:
            return other
        if a == b:
            return _canonical_set(())
        # Each endpoint of either set flips membership of the symmetric
        # difference. An endpoint both sets share flips it twice, which
        # leaves only a null point there: the canonical form merges over it.
        ta = [t for iv in a for t in (iv.lo, iv.hi)]
        tb = [t for iv in b for t in (iv.lo, iv.hi)]
        na, nb = len(ta), len(tb)
        out: list[Interval] = []
        i = j = 0
        inside = False
        start = -INF
        while i < na or j < nb:
            if j == nb or (i < na and ta[i] < tb[j]):
                t = ta[i]
                i += 1
            elif i == na or tb[j] < ta[i]:
                t = tb[j]
                j += 1
            else:
                i += 1
                j += 1
                continue
            if inside:
                out.append(_interval(start, t))
            else:
                start = t
            inside = not inside
        return _canonical_set(tuple(out))

    def reflect(self) -> "IntervalSet":
        """Image under t -> -t."""
        return _canonical_set(
            tuple(_interval(-iv.hi, -iv.lo) for iv in reversed(self._ivs))
        )


def _canonical(intervals: Iterable[Interval]) -> tuple[Interval, ...]:
    ivs = list(intervals)
    for iv in ivs:
        if not isinstance(iv, Interval):
            raise DomainError(f"expected Interval, got {type(iv).__name__}")
    ivs.sort(key=lambda iv: (iv.lo, iv.hi))
    out: list[Interval] = []
    for iv in ivs:
        if out and iv.lo <= out[-1].hi:
            # overlapping or exactly touching: the shared endpoint is null
            if iv.hi > out[-1].hi:
                out[-1] = _interval(out[-1].lo, iv.hi)
        else:
            out.append(iv)
    return tuple(out)
