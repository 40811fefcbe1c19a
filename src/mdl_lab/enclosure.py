"""Certified enclosures on an outward-rounded dyadic grid.

The convergence bounds mix exact rationals with square roots (Hellinger
distance) and natural logarithms (KL distance, ln of inverse weights).
To keep "nonnegative slack" an exact statement rather than a floating
point one, those irrational quantities are carried as intervals [lo, hi]
that certifiably contain the true value.

A :class:`FracInterval` holds two integer endpoints over one positive
denominator, and ``lo``/``hi`` are their exact Fractions.

* Points.  An exact rational is a point over its own denominator, so
  exact ledgers and budgets stay exact and compare as before.
* The grid.  Every irrational term -- ``ln_interval``, ``hellinger_term``,
  ``kl_term`` -- lies on the grid of multiples of 2^-GRID_BITS, its lower
  endpoint rounded down and its upper endpoint rounded up (Moore's outward
  rounding, *Interval Analysis*, 1966).  It is computed on integers of
  about GRID_BITS bits: no Fraction, no growing denominator.
* Arithmetic.  Sums, differences, products and ``abs`` are exact, so a
  weighted sum of terms is linear in its weights: a node of a lumped walk
  contributes exactly what its merged prefixes would one by one.  Sums of
  grid terms are plain integer adds; a ledger weighted by exact
  probabilities is rounded onto the grid once, by :meth:`outward`, when
  its walk is done.

Square roots are enclosed with ``math.isqrt``.  Logarithms come from
``mpmath.libmp.mpf_log``, imported by the first logarithm, at an explicit
working precision, rounded toward minus infinity for ``lo`` and plus
infinity for ``hi``; no global mpmath state is read or written, so
concurrent callers cannot disturb each other.
"""

from __future__ import annotations

import math
from fractions import Fraction

GRID_BITS = 96
_GRID_DEN = 1 << GRID_BITS
# ln's working precision: 32 bits past the grid keep its rounding error far
# below a grid step for any |ln q| < 2^24.
_LN_PREC = GRID_BITS + 32


class FracInterval:
    """A closed interval [lo, hi] with integer endpoints over one denominator.

    Construct it from rational endpoints, ``FracInterval(lo, hi)``, or from
    one rational, ``FracInterval.exact(q)``.  Instances are immutable.
    """

    __slots__ = ("_lo", "_hi", "_den")

    def __init__(self, lo, hi):
        lo, hi = Fraction(lo), Fraction(hi)
        if lo > hi:
            raise ValueError(f"inverted interval [{lo}, {hi}]")
        den = math.lcm(lo.denominator, hi.denominator)
        self._lo = lo.numerator * (den // lo.denominator)
        self._hi = hi.numerator * (den // hi.denominator)
        self._den = den

    @classmethod
    def exact(cls, q) -> "FracInterval":
        q = Fraction(q)
        return _make(q.numerator, q.numerator, q.denominator)

    @property
    def lo(self) -> Fraction:
        return Fraction(self._lo, self._den)

    @property
    def hi(self) -> Fraction:
        return Fraction(self._hi, self._den)

    @property
    def is_point(self) -> bool:
        return self._lo == self._hi

    @property
    def width(self) -> Fraction:
        return Fraction(self._hi - self._lo, self._den)

    def midpoint_float(self) -> float:
        return float(Fraction(self._lo + self._hi, 2 * self._den))

    def __add__(self, other) -> "FracInterval":
        if type(other) is not FracInterval:
            if not isinstance(other, (int, Fraction)):
                return NotImplemented
            other = FracInterval.exact(other)
        d1, d2 = self._den, other._den
        if d1 == d2:
            return _make(self._lo + other._lo, self._hi + other._hi, d1)
        g = math.gcd(d1, d2)
        m1, m2 = d2 // g, d1 // g
        return _make(
            self._lo * m1 + other._lo * m2, self._hi * m1 + other._hi * m2, d1 * m1
        )

    __radd__ = __add__

    def __neg__(self) -> "FracInterval":
        return _make(-self._hi, -self._lo, self._den)

    def __sub__(self, other) -> "FracInterval":
        if not isinstance(other, (FracInterval, int, Fraction)):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other) -> "FracInterval":
        return -self + other

    def __mul__(self, other) -> "FracInterval":
        if type(other) is FracInterval:
            if other._lo != other._hi:
                den = self._den * other._den
                a, b, c, d = self._lo, self._hi, other._lo, other._hi
                products = (a * c, a * d, b * c, b * d)
                return _make(min(products), max(products), den)
            other = other.lo
        elif not isinstance(other, (int, Fraction)):
            return NotImplemented
        n = other.numerator
        lo, hi = self._lo * n, self._hi * n
        if n < 0:
            lo, hi = hi, lo
        return _make(lo, hi, self._den * other.denominator)

    __rmul__ = __mul__

    def __abs__(self) -> "FracInterval":
        if self._lo >= 0:
            return self
        if self._hi <= 0:
            return -self
        return _make(0, max(-self._lo, self._hi), self._den)

    def outward(self) -> "FracInterval":
        """The narrowest grid interval containing this one; points stay exact."""
        den = self._den
        if den == _GRID_DEN or self._lo == self._hi:
            return self
        return _make(
            (self._lo << GRID_BITS) // den, -((-self._hi << GRID_BITS) // den), _GRID_DEN
        )

    def __eq__(self, other) -> bool:
        if type(other) is not FracInterval:
            return NotImplemented
        return (
            self._lo * other._den == other._lo * self._den
            and self._hi * other._den == other._hi * self._den
        )

    def __hash__(self) -> int:
        return hash((self.lo, self.hi))

    def __repr__(self) -> str:
        if self.is_point:
            return f"FracInterval({self.lo})"
        return f"FracInterval({self.lo}, {self.hi})"


def _make(lo: int, hi: int, den: int) -> FracInterval:
    """The interval [lo/den, hi/den]; the caller guarantees lo <= hi, den > 0."""
    iv = object.__new__(FracInterval)
    iv._lo = lo
    iv._hi = hi
    iv._den = den
    return iv


ZERO_INTERVAL = FracInterval.exact(0)


def sqrt_interval(q: Fraction, extra_bits: int = 64) -> FracInterval:
    """Enclosure of sqrt(q) for q >= 0, width below 2^-extra_bits.

    sqrt(a/b) = sqrt(a * b * 4^s) / (b * 2^s); isqrt of the scaled
    radicand gives the floor, and the enclosure collapses to a point
    whenever the scaled radicand is a perfect square.  The result keeps
    the denominator b * 2^extra_bits rather than the grid, so a caller
    can sharpen an inconclusive comparison by raising ``extra_bits``.
    """
    if q < 0:
        raise ValueError("sqrt_interval needs a nonnegative argument")
    if q == 0:
        return ZERO_INTERVAL
    a, b = q.numerator, q.denominator
    radicand = (a * b) << (2 * extra_bits)
    root = math.isqrt(radicand)
    den = b << extra_bits
    if root * root == radicand:
        return _make(root, root, den)
    return _make(root, root + 1, den)


def _mpf_to_grid(value, up: bool) -> int:
    """A finite mpf value in grid steps, rounded up or down."""
    sign, man, exp, _ = value
    m = -int(man) if sign else int(man)
    shift = exp + GRID_BITS
    if shift >= 0:
        return m << shift
    return -(-m >> -shift) if up else m >> -shift


def ln_interval(q: Fraction) -> FracInterval:
    """Certified grid enclosure of ln(q) for positive rational q.

    log is increasing, so the argument is rounded down for ``lo`` and up
    for ``hi`` before the directed-rounding logarithm, as in mpmath's
    interval log.
    """
    if q <= 0:
        raise ValueError("ln_interval needs a positive argument")
    if q == 1:
        return ZERO_INTERVAL
    # Imported here, its only use, so that importing the package loads
    # nothing beyond the standard library.
    from mpmath.libmp import from_rational, mpf_log, round_ceiling, round_floor

    n, d = q.numerator, q.denominator
    lo = mpf_log(from_rational(n, d, _LN_PREC, round_floor), _LN_PREC, round_floor)
    hi = mpf_log(from_rational(n, d, _LN_PREC, round_ceiling), _LN_PREC, round_ceiling)
    return _make(_mpf_to_grid(lo, False), _mpf_to_grid(hi, True), _GRID_DEN)


def hellinger_term(p: Fraction, q: Fraction) -> FracInterval:
    """Enclosure of (sqrt(p) - sqrt(q))^2 = p + q - 2*sqrt(p*q), never below 0.

    Over the common denominator D = den(p) den(q) 2^GRID_BITS, the sum is
    the integer s and D sqrt(pq) is the square root of an integer; the
    term is an exact point when that root is an integer, and otherwise
    one rounding carries it onto the grid.
    """
    a, b = p.numerator, p.denominator
    c, d = q.numerator, q.denominator
    den = b * d
    s = (a * d + c * b) << GRID_BITS
    radicand = (a * c * den) << (2 * GRID_BITS)
    root = math.isqrt(radicand)
    if root * root == radicand:
        return FracInterval.exact(Fraction(s - 2 * root, den << GRID_BITS))
    # D sqrt(pq) lies strictly between root and root + 1.
    return _make(max((s - 2 * root - 2) // den, 0), -((2 * root - s) // den), _GRID_DEN)


def kl_term(p: Fraction, q: Fraction):
    """Enclosure of p * ln(p/q), or math.inf when p > 0 and q == 0.

    Follows the extended-value conventions 0*ln(0/q) = 0 and
    p*ln(p/0) = +inf for p > 0.
    """
    if p == 0:
        return ZERO_INTERVAL
    if q == 0:
        return math.inf
    return (ln_interval(p / q) * p).outward()
