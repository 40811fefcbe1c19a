import math
import random
import threading
from fractions import Fraction as F

import mpmath
import pytest
from hypothesis import given
from hypothesis import strategies as st
from mpmath.ctx_mp import MPContext

from mdl_lab.enclosure import (
    GRID_BITS,
    FracInterval,
    ZERO_INTERVAL,
    hellinger_term,
    kl_term,
    ln_interval,
    sqrt_interval,
)

rationals_01 = st.fractions(min_value=0, max_value=1, max_denominator=50)
positive_rationals = st.fractions(min_value=F(1, 60), max_value=1000, max_denominator=60)

STEP = F(1, 2**GRID_BITS)


def on_grid(q: F) -> bool:
    return (q / STEP).denominator == 1


def mp_fraction(value) -> F:
    """The exact rational value of an mpf."""
    sign, man, exp, _ = value._mpf_
    return (-1 if sign else 1) * F(int(man)) * F(2) ** exp


# A private 400-bit context: the reference never touches mpmath's globals.
MP400 = MPContext()
MP400.prec = 400


def mp_rational(q: F):
    return MP400.mpf(q.numerator) / MP400.mpf(q.denominator)


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
        # Sums and weights are exact on any denominators: no rounding.
        c = FracInterval(F(2, 7), F(1, 3))
        total = c * F(5, 11) + FracInterval.exact(F(1, 13))
        assert (total.lo, total.hi) == (F(10, 77) + F(1, 13), F(5, 33) + F(1, 13))

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
            ends = (iv.lo * scalar, iv.hi * scalar)
            assert (four_products.lo, four_products.hi) == (min(ends), max(ends))

    def test_points_keep_their_denominator(self):
        third = FracInterval.exact(F(1, 3))
        assert third.is_point
        assert type(third.lo) is F and third.lo == third.hi == F(1, 3)
        assert (third + F(1, 6)) == FracInterval.exact(F(1, 2))
        assert (third * F(3, 7)).lo == F(1, 7)
        assert third.outward() == third
        assert repr(FracInterval.exact(F(2, 4)).lo) == repr(F(1, 2))

    @given(rationals_01, rationals_01)
    def test_outward_rounds_onto_the_grid(self, a, b):
        iv = FracInterval(min(a, b) - F(1, 3), max(a, b))
        out = iv.outward()
        assert out.lo <= iv.lo and iv.hi <= out.hi
        assert iv.lo - out.lo < STEP and out.hi - iv.hi < STEP
        assert on_grid(out.lo) and on_grid(out.hi)


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

    def test_more_bits_narrow(self):
        for bits in (64, 128, 1024):
            box = sqrt_interval(F(2), bits)
            assert box.lo**2 < 2 < box.hi**2
            assert box.width == F(1, 2**bits)


class TestLn:
    @given(positive_rationals)
    def test_contains_truth(self, q):
        box = ln_interval(q)
        ref = mp_fraction(MP400.log(mp_rational(q)))
        assert box.lo <= ref <= box.hi
        assert on_grid(box.lo) and on_grid(box.hi)
        assert box.width <= 2 * STEP

    def test_large_arguments(self):
        for q in (F(2**5000 + 1, 3), F(7, 2**3000), F(2**200 + 1, 2**200)):
            box = ln_interval(q)
            ref = mp_fraction(MP400.log(mp_rational(q)))
            assert box.lo <= ref <= box.hi
            assert box.width <= 2 * STEP

    def test_one_is_exact_zero(self):
        assert ln_interval(F(1)) == ZERO_INTERVAL

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            ln_interval(F(0))

    def test_ignores_global_precision(self):
        q = F(10, 3)
        box = ln_interval(q)
        for prec in (10, 500):
            with mpmath.workprec(prec):
                assert ln_interval(q) == box

    def test_two_threads_agree(self):
        args = [F(k, 7) for k in range(1, 400)]
        serial = [(b.lo, b.hi) for b in map(ln_interval, args)]
        results = [None, None]
        barrier = threading.Barrier(2)

        def run(slot):
            barrier.wait()
            results[slot] = [(b.lo, b.hi) for b in map(ln_interval, args)]

        threads = [threading.Thread(target=run, args=(slot,)) for slot in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert results[0] == results[1] == serial


def seeded_rationals(seed: int, count: int):
    """Pairs in [0, 1]: random, equal, zero, and perfect-square products."""
    rng = random.Random(seed)
    pairs = []
    for _ in range(count):
        den = rng.choice((2, 3, 7, 10, 2**40, rng.randrange(1, 2**60)))
        p = F(rng.randrange(0, den + 1), den)
        q = F(rng.randrange(0, den + 1), den)
        pairs.append((p, q))
        pairs.append((p, p))
        a, b, c = rng.randrange(1, 50), rng.randrange(1, 50), rng.randrange(50, 99)
        pairs.append((F(a * a, c * c), F(b * b, c * c)))
    return pairs + [(F(0), F(1, 3)), (F(1, 3), F(0)), (F(0), F(0))]


def rational_sqrt(q: F):
    """sqrt(q) when it is rational, else None."""
    n, d = math.isqrt(q.numerator), math.isqrt(q.denominator)
    return F(n, d) if n * n == q.numerator and d * d == q.denominator else None


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

    def test_hellinger_term_against_400_bits(self):
        for p, q in seeded_rationals(12, 300):
            box = hellinger_term(p, q)
            root = rational_sqrt(p * q)
            if root is not None:
                assert box == FracInterval.exact(p + q - 2 * root)
                continue
            ref = mp_fraction((MP400.sqrt(mp_rational(p)) - MP400.sqrt(mp_rational(q))) ** 2)
            assert box.lo <= ref <= box.hi
            assert on_grid(box.lo) and on_grid(box.hi)
            assert box.width <= 3 * STEP

    def test_kl_term_against_400_bits(self):
        for p, q in seeded_rationals(13, 300):
            box = kl_term(p, q)
            if p == 0 or p == q:
                assert box == ZERO_INTERVAL
                continue
            if q == 0:
                assert box == math.inf
                continue
            ref = mp_fraction(mp_rational(p) * MP400.log(mp_rational(p) / mp_rational(q)))
            assert box.lo <= ref <= box.hi
            assert on_grid(box.lo) and on_grid(box.hi)
            assert box.width <= 4 * STEP
