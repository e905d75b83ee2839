"""Canonical finite unions of open intervals on the extended real line.

Sets of reals appear in this package only up to Lebesgue/Gauss null sets,
which fixes the canonical form used here: a set is stored as one strictly
increasing tuple of exact float endpoints ``(lo0, hi0, lo1, hi1, ...)``
(``-inf``/``inf`` allowed, NaN rejected). Intervals that share an endpoint
are merged, since the missing point is null, so no endpoint repeats.
Endpoints are never snapped or rounded; all arithmetic is exact float
comparison. :class:`Interval` objects are built only when asked for.

Every endpoint of either of two sets flips membership of their symmetric
difference, and an endpoint both share flips it twice, which leaves only a
null point. So on canonical sets the symmetric difference is the XOR of
the two endpoint sequences (:func:`_xor`), and the complement is the XOR
with ``(-inf, inf)``.
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


def _lebesgue_sum(lengths: Iterable[float]) -> float:
    """``math.fsum`` of non-negative lengths, inf where the sum passes the
    float range (``fsum`` raises there, even with an infinite term)."""
    try:
        return math.fsum(lengths)
    except OverflowError:
        return INF


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


def _pairs(ends: tuple[float, ...]) -> Iterator[tuple[float, float]]:
    """The (lo, hi) pairs of an endpoint tuple."""
    return zip(ends[::2], ends[1::2])


def _of_ends(ends: tuple[float, ...]) -> "IntervalSet":
    """Set over an endpoint tuple already in canonical form (no checks)."""
    s = _new(IntervalSet)
    s._ends = ends
    return s


def _xor(a: tuple[float, ...], b: tuple[float, ...]) -> tuple[float, ...]:
    """Endpoints of the symmetric difference of two canonical endpoint tuples.

    The merged endpoints, with each one both tuples share (``-0.0`` and
    ``0.0`` included) cancelled: at most two are equal, and they sort next
    to each other.
    """
    if a == b:
        return ()
    out: list[float] = []
    for t in sorted(a + b):
        if out and out[-1] == t:
            out.pop()
        else:
            out.append(t)
    return tuple(out)


class IntervalSet:
    """Immutable union of disjoint open intervals in canonical form."""

    __slots__ = ("_ends",)

    def __init__(self, intervals: Iterable[Interval] = ()) -> None:
        self._ends: tuple[float, ...] = _canonical(intervals)

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
        return _of_ends(() if a == INF else (a, INF))

    @staticmethod
    def below(b: float) -> "IntervalSet":
        """Open half-line (-inf, b); empty when b = -inf."""
        b = _ext(b, "half-line endpoint")
        return _of_ends(() if b == -INF else (-INF, b))

    @staticmethod
    def from_pairs(pairs: Iterable[tuple[float, float]]) -> "IntervalSet":
        return IntervalSet(Interval(lo, hi) for lo, hi in pairs)

    # ------------------------------------------------------------------
    # basic queries

    @property
    def intervals(self) -> tuple[Interval, ...]:
        return tuple(_interval(lo, hi) for lo, hi in _pairs(self._ends))

    @property
    def is_empty(self) -> bool:
        return not self._ends

    def __iter__(self) -> Iterator[Interval]:
        return iter(self.intervals)

    def __len__(self) -> int:
        return len(self._ends) // 2

    def __contains__(self, t: float) -> bool:
        return any(lo < t < hi for lo, hi in _pairs(self._ends))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, IntervalSet):
            return NotImplemented
        return self._ends == other._ends

    def __hash__(self) -> int:
        return hash(self._ends)

    def __repr__(self) -> str:
        body = ", ".join(f"({lo}, {hi})" for lo, hi in _pairs(self._ends))
        return f"IntervalSet[{body}]"

    def to_pairs(self) -> list[tuple[float, float]]:
        return list(_pairs(self._ends))

    def length(self) -> float:
        """Total Lebesgue length; inf if any interval is unbounded."""
        return _lebesgue_sum(hi - lo for lo, hi in _pairs(self._ends))

    def finite_endpoints(self) -> list[tuple[float, int]]:
        """Finite boundary points as (t, normal) with the outward normal sign.

        At a lower endpoint the set lies above t, so the outward normal is -1;
        at an upper endpoint it is +1.
        """
        return [(t, 1 if k % 2 else -1) for k, t in enumerate(self._ends) if -INF < t < INF]

    # ------------------------------------------------------------------
    # set algebra (all exact, all returning canonical form)
    #
    # intersect, complement, symdiff and reflect map canonical input to
    # canonical output (sorted, disjoint, never touching), so they build
    # their result without re-sorting or re-validating it.

    def union(self, other: "IntervalSet") -> "IntervalSet":
        return IntervalSet(self.intervals + other.intervals)

    def intersect(self, other: "IntervalSet") -> "IntervalSet":
        out: list[float] = []
        i, j = 0, 0
        a, b = self._ends, other._ends
        na, nb = len(a), len(b)
        while i < na and j < nb:
            a_hi, b_hi = a[i + 1], b[j + 1]
            # max of the lower ends and min of the upper ends, keeping a's on ties
            lo = b[j] if b[j] > a[i] else a[i]
            hi = b_hi if b_hi < a_hi else a_hi
            if lo < hi:
                out += (lo, hi)
            if a_hi <= b_hi:
                i += 2
            else:
                j += 2
        return _of_ends(tuple(out))

    def complement(self) -> "IntervalSet":
        return _of_ends(_xor((-INF, INF), self._ends))

    def difference(self, other: "IntervalSet") -> "IntervalSet":
        return self.intersect(other.complement())

    def symdiff(self, other: "IntervalSet") -> "IntervalSet":
        return _of_ends(_xor(self._ends, other._ends))

    def reflect(self) -> "IntervalSet":
        """Image under t -> -t."""
        return _of_ends(tuple(-t for t in reversed(self._ends)))


def _canonical(intervals: Iterable[Interval]) -> tuple[float, ...]:
    ivs = list(intervals)
    for iv in ivs:
        if not isinstance(iv, Interval):
            raise DomainError(f"expected Interval, got {type(iv).__name__}")
    ivs.sort(key=lambda iv: (iv.lo, iv.hi))
    out: list[float] = []
    for iv in ivs:
        if out and iv.lo <= out[-1]:
            # overlapping or exactly touching: the shared endpoint is null
            if iv.hi > out[-1]:
                out[-1] = iv.hi
        else:
            out += (iv.lo, iv.hi)
    return tuple(out)
