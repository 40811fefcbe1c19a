import math
from fractions import Fraction as F

import pytest
from hypothesis import given
from hypothesis import strategies as st

from mdl_lab.enclosure import (
    FracInterval,
    ZERO_INTERVAL,
    hellinger_term,
    kl_term,
    ln_interval,
    sqrt_interval,
)

rationals_01 = st.fractions(min_value=0, max_value=1, max_denominator=50)
positive_rationals = st.fractions(min_value=F(1, 60), max_value=1000, max_denominator=60)


class TestInterval:
    def test_ordering_validated(self):
        with pytest.raises(ValueError):
            FracInterval(F(1), F(0))

    def test_arithmetic(self):
        a = FracInterval(F(1), F(2))
        b = FracInterval(F(-1), F(3))
        assert (a + b) == FracInterval(F(0), F(5))
        assert (a - b) == FracInterval(F(-2), F(3))
        assert (a * F(2)) == FracInterval(F(2), F(4))
        assert abs(FracInterval(F(-3), F(1))) == FracInterval(F(0), F(3))

    @given(
        rationals_01,
        rationals_01,
        st.fractions(min_value=0, max_value=20, max_denominator=30),
        st.integers(0, 5),
    )
    def test_scalar_product_matches_four_products(self, a, b, q, n):
        # Intervals straddle zero; weights and integer factors include 0.
        iv = FracInterval(min(a, b) - F(1, 3), max(a, b))
        for scalar in (q, n, 0, -q, -n):
            four_products = iv * FracInterval.exact(scalar)
            assert iv * scalar == four_products == scalar * iv

    def test_certainly_comparisons(self):
        assert FracInterval(F(0), F(1)).certainly_le(F(1))
        assert not FracInterval(F(0), F(1)).certainly_le(F(1, 2))


class TestSqrt:
    @given(positive_rationals)
    def test_contains_truth(self, q):
        box = sqrt_interval(q)
        s = math.sqrt(q)
        assert float(box.lo) <= s <= float(box.hi) or box.lo**2 <= q <= box.hi**2
        assert box.lo**2 <= q <= box.hi**2
        assert box.width <= F(1, 2**60)

    def test_perfect_square_is_point(self):
        assert sqrt_interval(F(9, 4)).is_point
        assert sqrt_interval(F(9, 4)).lo == F(3, 2)
        assert sqrt_interval(F(0)).is_point


class TestLn:
    @given(positive_rationals)
    def test_contains_truth(self, q):
        # Reference at 200 bits: far tighter than the 120-bit enclosure,
        # unlike float64 whose rounding exceeds the interval width.
        import mpmath

        box = ln_interval(q)
        with mpmath.workprec(200):
            ref = mpmath.log(mpmath.mpf(q.numerator) / mpmath.mpf(q.denominator))
            sign, man, exp, _ = ref._mpf_
            ref_frac = (-1 if sign else 1) * F(man) * F(2) ** exp
        assert box.lo <= ref_frac <= box.hi
        assert box.width < F(1, 2**80)

    def test_one_is_exact_zero(self):
        assert ln_interval(F(1)) == ZERO_INTERVAL

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            ln_interval(F(0))


class TestDistanceTerms:
    @given(rationals_01, rationals_01)
    def test_hellinger_term_encloses(self, p, q):
        box = hellinger_term(p, q)
        truth = (math.sqrt(p) - math.sqrt(q)) ** 2
        assert box.lo >= 0
        assert float(box.lo) <= truth + 1e-15
        assert truth <= float(box.hi) + 1e-15

    def test_hellinger_equal_args_is_zero(self):
        assert hellinger_term(F(1, 3), F(1, 3)) == ZERO_INTERVAL

    def test_kl_conventions(self):
        assert kl_term(F(0), F(1, 2)) == ZERO_INTERVAL
        assert kl_term(F(1, 2), F(0)) == math.inf
        box = kl_term(F(1, 2), F(1, 4))
        truth = 0.5 * math.log(2)
        assert float(box.lo) <= truth <= float(box.hi)
