"""Numeric conventions: exact rationals and certified enclosures; float
only for Monte-Carlo estimates.

Every probability-like quantity in the library is an exact
``fractions.Fraction``; irrational bound terms are certified rational
enclosures (:mod:`mdl_lab.enclosure`).  Floats appear only in
Monte-Carlo estimates, whose step distances are taken in the ``FLOAT``
mode (:func:`check_mode`) from exact values at the edges.  Also: rational
wire format and exact integer log2 helpers.
"""

from __future__ import annotations

import math
from fractions import Fraction

EXACT = "exact"
FLOAT = "float"


def check_mode(mode: str) -> str:
    if mode not in (EXACT, FLOAT):
        raise ValueError(f"unknown mode {mode!r}; expected 'exact' or 'float'")
    return mode


# -- rational parsing / formatting (wire format "p/q") ------------------


def parse_rational(text: str) -> Fraction:
    """Parse "p/q", an integer literal, or a decimal literal exactly."""
    s = text.strip()
    if "/" in s:
        num, den = s.split("/", 1)
        return Fraction(int(num), int(den))
    if any(c in s for c in ".eE"):
        # Decimal literals are converted via string, not binary float.
        return Fraction(s)
    return Fraction(int(s))


def format_rational(q: Fraction, digit_cap: int = 120) -> str:
    """Exact "p/q" when compact; else a ~flagged 27-digit decimal.

    Deep-tree exact sums can carry denominators with tens of thousands
    of digits; serializing those verbatim helps nobody.  Comparisons are
    always done on the exact in-memory values, never on renderings.
    """
    digits = (q.numerator.bit_length() + q.denominator.bit_length()) * 10 // 33
    if digits > digit_cap:
        return "~" + decimal_string(q)
    return f"{q.numerator}/{q.denominator}" if q.denominator != 1 else str(q.numerator)


def decimal_string(q: Fraction, places: int = 27) -> str:
    """Deterministic truncated decimal rendering of a rational."""
    sign = "-" if q < 0 else ""
    q = abs(q)
    scaled = q.numerator * 10**places // q.denominator
    text = str(scaled).rjust(places + 1, "0")
    whole, frac = text[:-places], text[-places:]
    return f"{sign}{whole}.{frac.rstrip('0') or '0'}"


# -- exact integer log2 helpers ------------------------------------------


def ceil_log2_frac(q: Fraction) -> int:
    """Smallest integer m with 2**m >= q, for positive rational q."""
    if q <= 0:
        raise ValueError("ceil_log2_frac needs a positive argument")
    num, den = q.numerator, q.denominator
    m = num.bit_length() - den.bit_length()
    # 2**m is within a factor of 2 of q; fix up exactly.
    while _pow2_cmp(m, num, den) < 0:  # 2**m < q
        m += 1
    while m - 1 >= -(10**9) and _pow2_cmp(m - 1, num, den) >= 0:  # 2**(m-1) >= q
        m -= 1
    return m


def _pow2_cmp(m: int, num: int, den: int) -> int:
    """Sign of 2**m - num/den using integers only."""
    if m >= 0:
        lhs, rhs = den << m, num
    else:
        lhs, rhs = den, num << (-m)
    return (lhs > rhs) - (lhs < rhs)


def neg_log2_ceil(q: Fraction) -> int:
    """ceil(-lb q) for q in (0, 1]; the exact code length of probability q."""
    return ceil_log2_frac(1 / q)


def log2_frac(q: Fraction) -> float:
    """-- lb of a positive rational as a double (big ints welcome)."""
    if q <= 0:
        raise ValueError("log2_frac needs a positive argument")
    return math.log2(q.numerator) - math.log2(q.denominator)
