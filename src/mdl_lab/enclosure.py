"""Certified rational enclosures for irrational bound arithmetic.

The convergence bounds mix exact rationals with square roots (Hellinger
distance) and natural logarithms (KL distance, ln of inverse weights).
To keep "nonnegative slack" an exact statement rather than a floating
point one, those irrational quantities are carried as rational intervals
[lo, hi] that certifiably contain the true value.  Square roots are
enclosed with ``math.isqrt``; logarithms with mpmath's outward-rounded
interval arithmetic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import mpmath


@dataclass(frozen=True)
class FracInterval:
    """A closed interval with exact rational endpoints, lo <= hi."""

    lo: Fraction
    hi: Fraction

    def __post_init__(self):
        if self.lo > self.hi:
            raise ValueError(f"inverted interval [{self.lo}, {self.hi}]")

    @classmethod
    def exact(cls, q) -> "FracInterval":
        q = Fraction(q)
        return cls(q, q)

    @property
    def is_point(self) -> bool:
        return self.lo == self.hi

    @property
    def width(self) -> Fraction:
        return self.hi - self.lo

    def midpoint_float(self) -> float:
        return float((self.lo + self.hi) / 2)

    def __add__(self, other) -> "FracInterval":
        other = _coerce(other)
        return FracInterval(self.lo + other.lo, self.hi + other.hi)

    __radd__ = __add__

    def __sub__(self, other) -> "FracInterval":
        other = _coerce(other)
        return FracInterval(self.lo - other.hi, self.hi - other.lo)

    def __rsub__(self, other) -> "FracInterval":
        return _coerce(other) - self

    def __neg__(self) -> "FracInterval":
        return FracInterval(-self.hi, -self.lo)

    def __mul__(self, other) -> "FracInterval":
        if isinstance(other, (Fraction, int)) and other >= 0:
            # For q >= 0 the four-product min and max are lo*q and hi*q.
            return FracInterval(self.lo * other, self.hi * other)
        other = _coerce(other)
        products = (
            self.lo * other.lo,
            self.lo * other.hi,
            self.hi * other.lo,
            self.hi * other.hi,
        )
        return FracInterval(min(products), max(products))

    __rmul__ = __mul__

    def __abs__(self) -> "FracInterval":
        if self.lo >= 0:
            return self
        if self.hi <= 0:
            return -self
        return FracInterval(Fraction(0), max(-self.lo, self.hi))

    def clamp_nonnegative(self) -> "FracInterval":
        """Intersect with [0, inf); valid when the true value is known >= 0."""
        if self.hi < 0:
            raise ValueError("interval entirely negative; cannot clamp")
        return FracInterval(max(self.lo, Fraction(0)), max(self.hi, Fraction(0)))

    def certainly_le(self, other) -> bool:
        other = _coerce(other)
        return self.hi <= other.lo

    def certainly_ge(self, other) -> bool:
        other = _coerce(other)
        return self.lo >= other.hi

    def __repr__(self) -> str:
        if self.is_point:
            return f"FracInterval({self.lo})"
        return f"FracInterval({self.lo}, {self.hi})"


def _coerce(x) -> FracInterval:
    if isinstance(x, FracInterval):
        return x
    return FracInterval.exact(Fraction(x))


ZERO_INTERVAL = FracInterval(Fraction(0), Fraction(0))


def sqrt_interval(q: Fraction, extra_bits: int = 64) -> FracInterval:
    """Rational enclosure of sqrt(q) for q >= 0, width below 2^-extra_bits.

    sqrt(a/b) = sqrt(a * b * 4^s) / (b * 2^s); isqrt of the scaled
    radicand gives the floor, and the enclosure collapses to a point
    whenever the scaled radicand is a perfect square.
    """
    if q < 0:
        raise ValueError("sqrt_interval needs a nonnegative argument")
    if q == 0:
        return ZERO_INTERVAL
    a, b = q.numerator, q.denominator
    radicand = (a * b) << (2 * extra_bits)
    root = math.isqrt(radicand)
    den = b << extra_bits
    lo = Fraction(root, den)
    if root * root == radicand:
        return FracInterval(lo, lo)
    return FracInterval(lo, Fraction(root + 1, den))


def sqrt_of_interval(x: FracInterval) -> FracInterval:
    """Enclosure of sqrt over a nonnegative interval."""
    if x.lo < 0:
        raise ValueError("sqrt_of_interval needs a nonnegative interval")
    return FracInterval(sqrt_interval(x.lo).lo, sqrt_interval(x.hi).hi)


def _raw_mpf_to_fraction(raw) -> Fraction:
    """Exact value of a raw mpf tuple (sign, mantissa, exponent, bitcount)."""
    sign, man, exp, _ = raw
    if man == 0:
        if exp == 0:
            return Fraction(0)
        raise ValueError(f"cannot convert non-finite mpf {raw!r}")
    value = Fraction(man) * Fraction(2) ** exp
    return -value if sign else value


def ln_interval(q: Fraction, prec_bits: int = 120) -> FracInterval:
    """Certified rational enclosure of ln(q) for positive rational q."""
    if q <= 0:
        raise ValueError("ln_interval needs a positive argument")
    if q == 1:
        return ZERO_INTERVAL
    iv = mpmath.iv
    old_prec = iv.prec
    try:
        iv.prec = prec_bits
        x = iv.mpf(q.numerator) / iv.mpf(q.denominator)
        r = iv.log(x)
        raw_lo, raw_hi = r._mpi_
        return FracInterval(_raw_mpf_to_fraction(raw_lo), _raw_mpf_to_fraction(raw_hi))
    finally:
        iv.prec = old_prec


def hellinger_term(p: Fraction, q: Fraction) -> FracInterval:
    """Enclosure of (sqrt(p) - sqrt(q))^2 = p + q - 2*sqrt(p*q)."""
    cross = sqrt_interval(p * q)
    raw = FracInterval.exact(p + q) - 2 * cross
    return raw.clamp_nonnegative()


def kl_term(p: Fraction, q: Fraction, prec_bits: int = 120):
    """Enclosure of p * ln(p/q), or math.inf when p > 0 and q == 0.

    Follows the extended-value conventions 0*ln(0/q) = 0 and
    p*ln(p/0) = +inf for p > 0.
    """
    if p == 0:
        return ZERO_INTERVAL
    if q == 0:
        return math.inf
    return ln_interval(p / q, prec_bits) * p
