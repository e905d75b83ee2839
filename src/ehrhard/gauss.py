"""Scalar Gaussian calculus on the extended real line.

Conventions used throughout the package:

* ``phi(t)`` is the upper-tail probability of the standard Gaussian,
  ``(2*pi)**-0.5 * integral_t^inf exp(-s*s/2) ds``. It is strictly
  decreasing, with ``phi(-inf) = 1``, ``phi(0) = 0.5``, ``phi(inf) = 0``.
* ``psi`` is its inverse on [0, 1], with ``psi(0) = inf`` and
  ``psi(1) = -inf`` exactly; no clamping is applied anywhere.
* ``gamma1`` is the standard Gaussian measure of an interval set on the
  line; ``gauss_weight(t) = exp(-t*t/2)`` is the unnormalized boundary
  weight attached to a point of height t.
"""

from __future__ import annotations

import math
from statistics import NormalDist
from typing import Iterable, Union

from .errors import DomainError
from .intervals import Interval, IntervalSet

__all__ = [
    "fiber_measure",
    "gamma1",
    "gap",
    "gauss_density",
    "gauss_weight",
    "gaussian_barycenter",
    "isoperimetric_bound",
    "phi",
    "psi",
]

INF = math.inf
SQRT_TAU = math.sqrt(2.0 * math.pi)

_SQRT2 = math.sqrt(2.0)
_STD = NormalDist()

SetLike = Union[IntervalSet, Interval]


def phi(t: float) -> float:
    """Gaussian upper-tail probability.

    Evaluated as ``0.5 * erfc(t / sqrt(2))``; ``math.erfc`` is a
    rational/continued-fraction approximation good to about one ulp, far
    inside the 1e-14 relative accuracy the rest of the package leans on.
    In particular the deep tail keeps full relative precision, which naive
    quadrature would lose.
    """
    t = float(t)
    if math.isnan(t):
        raise DomainError("phi: NaN input")
    if t == INF:
        return 0.0
    if t == -INF:
        return 1.0
    return 0.5 * math.erfc(t / _SQRT2)


def gauss_weight(t: float) -> float:
    """Unnormalized Gaussian weight exp(-t*t/2); zero at infinite t."""
    t = float(t)
    if math.isnan(t):
        raise DomainError("gauss_weight: NaN input")
    if math.isinf(t):
        return 0.0
    return math.exp(-0.5 * t * t)


def gauss_density(t: float) -> float:
    """Standard Gaussian density exp(-t*t/2)/sqrt(2*pi)."""
    return gauss_weight(t) / SQRT_TAU


def psi(p: float) -> float:
    """Inverse of :func:`phi` on [0, 1].

    The endpoints map exactly: ``psi(0) = inf`` and ``psi(1) = -inf``.
    Interior values start from the stdlib inverse-CDF seed and take two
    Newton corrections on phi, which lands the round-trip
    ``psi(phi(t)) = t`` at a few ulps over [-6, 6].
    """
    p = float(p)
    if math.isnan(p) or p < 0.0 or p > 1.0:
        raise DomainError(f"psi: argument {p!r} outside [0, 1]")
    if p == 0.0:
        return INF
    if p == 1.0:
        return -INF
    t = -_STD.inv_cdf(p)
    for _ in range(2):
        d = gauss_density(t)
        if d <= 0.0:
            break
        t += (phi(t) - p) / d
    return t


def _pieces(s: SetLike) -> Iterable[tuple[float, float]]:
    """The (lo, hi) pairs of a set or an interval."""
    if isinstance(s, Interval):
        return ((s.lo, s.hi),)
    if isinstance(s, IntervalSet):
        return s.to_pairs()
    raise DomainError(f"expected IntervalSet or Interval, got {type(s).__name__}")


def gamma1(s: SetLike) -> float:
    """Standard Gaussian measure of an interval set on the line."""
    return math.fsum(phi(lo) - phi(hi) for lo, hi in _pieces(s))


def gaussian_barycenter(s: SetLike) -> float:
    """Barycenter of an interval set under the Gaussian measure.

    Uses the closed form ``integral_a^b t dgamma1 =
    (exp(-a*a/2) - exp(-b*b/2)) / sqrt(2*pi)`` per interval. Raises
    :class:`DomainError` on gamma-null sets, where the barycenter is
    undefined.
    """
    mass = gamma1(s)
    if mass <= 0.0:
        raise DomainError("gaussian_barycenter: set has zero Gaussian measure")
    num = math.fsum(gauss_weight(lo) - gauss_weight(hi) for lo, hi in _pieces(s))
    return num / SQRT_TAU / mass


def fiber_measure(z: Union[float, Iterable[float]], s: SetLike) -> float:
    """Weighted measure ``exp(-|z|^2/2) * gamma1(s)`` of a vertical fiber.

    ``z`` is the base point (a scalar for 1-D bases, a coordinate sequence
    for higher ones); the weight is the unnormalized Gaussian factor the
    base point contributes to the Hausdorff measure of ``{z} x s``.
    """
    if isinstance(z, (int, float)):
        w = gauss_weight(z)
    else:
        zz = math.fsum(float(c) * float(c) for c in z)
        if math.isnan(zz):
            raise DomainError("fiber_measure: NaN coordinate")
        w = math.exp(-0.5 * zz) if not math.isinf(zz) else 0.0
    return w * gamma1(s)


def isoperimetric_bound(v: float) -> float:
    """Gaussian isoperimetric function ``exp(-psi(v)^2/2)``.

    This is the perimeter of the upper half-space of measure v, hence the
    least possible Gaussian perimeter of any set of measure v; it vanishes
    at v = 0 and v = 1.
    """
    return gauss_weight(psi(v))


def _pair_mass(lo: float, hi: float) -> float:
    """gamma1 of the open interval (lo, hi), zero when lo >= hi."""
    if not lo < hi:
        return 0.0
    return phi(lo) - phi(hi)


def gap(alpha: float, beta: float) -> float:
    """Gaussian measure lost by a fiber pair that meets across a facet.

    For boundary heights alpha <= beta (in the decreasing-tail coordinate:
    the two fibers are (alpha, inf) and (beta, inf)), this is::

        1 - gamma1((min(-alpha, beta), max(-alpha, beta))) - gamma1((alpha, beta))

    which a short calculation reduces to ``1 - gamma1((-beta, beta))``
    when ``-alpha <= beta`` and ``1 - gamma1((alpha, -alpha))`` otherwise.
    It is strictly positive whenever both heights are finite, and zero
    exactly when alpha = -inf or beta = inf (a fiber of full or null
    measure, which can never be charged). Raises :class:`DomainError` when
    beta < alpha.
    """
    a = float(alpha)
    b = float(beta)
    if math.isnan(a) or math.isnan(b):
        raise DomainError("gap: NaN argument")
    if b < a:
        raise DomainError(f"gap: requires beta >= alpha, got alpha={a}, beta={b}")
    inner_lo = min(-a, b)
    inner_hi = max(-a, b)
    return 1.0 - _pair_mass(inner_lo, inner_hi) - _pair_mass(a, b)
