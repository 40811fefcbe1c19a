"""Differential tests of the grid enclosures against two independent ledgers.

Both references walk the same lumped tree as :func:`check_bounds`:

* the Fraction-interval formulas the grid replaced (exact rational
  endpoints, square roots at 64 extra bits, logarithms from a 120-bit
  mpmath interval context), copied here so the old verdicts stay checkable;
* a 300-bit mpmath interval ledger, which shares no code with either.
"""

import math
from fractions import Fraction as F

from mpmath.ctx_iv import MPIntervalContext

from mdl_lab.metrics import COROLLARY_CONSTANTS, check_bounds, walk_support
from mdl_lab.predictors import RHO, RHO_NORM, STATIC, STATIC_NORM, XI
from mdl_lab.suites import random_measure_class

CLASSES = 40  # the first classes of criterion 02
HORIZON = 10
ENCLOSED = ("hellinger", "kl", "abs_log_sum")
SQUARE_KINDS = (XI, RHO_NORM, RHO, STATIC, STATIC_NORM)
HELL_KINDS = (RHO_NORM, RHO, STATIC, STATIC_NORM)


class OldInterval:
    """The replaced representation: a pair of exact Fractions."""

    def __init__(self, lo, hi):
        assert lo <= hi
        self.lo, self.hi = F(lo), F(hi)

    def __add__(self, other):
        return OldInterval(self.lo + other.lo, self.hi + other.hi)

    def scale(self, w):
        return OldInterval(self.lo * w, self.hi * w)

    def __abs__(self):
        if self.lo >= 0:
            return self
        if self.hi <= 0:
            return OldInterval(-self.hi, -self.lo)
        return OldInterval(0, max(-self.lo, self.hi))


def mpi_fractions(x):
    """Exact rational endpoints of an mpmath interval."""

    def exact(raw):
        sign, man, exp, _ = raw
        return (-1 if sign else 1) * F(int(man)) * F(2) ** exp

    lo, hi = x._mpi_
    return exact(lo), exact(hi)


class OldArithmetic:
    zero = OldInterval(0, 0)
    ctx = MPIntervalContext()
    ctx.prec = 120

    @staticmethod
    def sqrt(q):
        if q == 0:
            return OldInterval(0, 0)
        radicand = (q.numerator * q.denominator) << 128
        root = math.isqrt(radicand)
        den = q.denominator << 64
        if root * root == radicand:
            return OldInterval(F(root, den), F(root, den))
        return OldInterval(F(root, den), F(root + 1, den))

    @classmethod
    def ln(cls, q):
        if q == 1:
            return cls.zero
        x = cls.ctx.mpf(q.numerator) / cls.ctx.mpf(q.denominator)
        return OldInterval(*mpi_fractions(cls.ctx.log(x)))

    @classmethod
    def hell(cls, p, q):
        cross = cls.sqrt(p * q)
        lo, hi = p + q - 2 * cross.hi, p + q - 2 * cross.lo
        return OldInterval(max(lo, 0), max(hi, 0))

    @classmethod
    def kl(cls, p, q):
        if p == 0:
            return cls.zero
        if q == 0:
            return math.inf
        return cls.ln(p / q).scale(p)

    @staticmethod
    def scale(x, w):
        return x.scale(w)


class Mp300:
    ctx = MPIntervalContext()
    ctx.prec = 300
    zero = ctx.mpf(0)

    @classmethod
    def rational(cls, q):
        return cls.ctx.mpf(q.numerator) / cls.ctx.mpf(q.denominator)

    @classmethod
    def ln(cls, q):
        return cls.ctx.log(cls.rational(q))

    @classmethod
    def hell(cls, p, q):
        return (cls.ctx.sqrt(cls.rational(p)) - cls.ctx.sqrt(cls.rational(q))) ** 2

    @classmethod
    def kl(cls, p, q):
        if p == 0:
            return cls.zero
        if q == 0:
            return math.inf
        return cls.rational(p) * cls.ctx.log(cls.rational(p) / cls.rational(q))

    @classmethod
    def scale(cls, x, w):
        return x * cls.rational(w)


def reference_ledgers(cls, horizon, ar) -> dict:
    """check_bounds' sums along the same lumped walk, in arithmetic ``ar``."""
    out = {("square", k): F(0) for k in SQUARE_KINDS}
    out.update({("hellinger", k): ar.zero for k in HELL_KINDS})
    out.update({("kl", RHO_NORM): ar.zero, ("abs_log_sum", RHO): ar.zero})
    out.update({("one_minus_sum", RHO): F(0), ("one_minus_sum", STATIC): F(0)})

    def total(term, mu, phi):
        acc = ar.zero
        for p, q in zip(mu, phi):
            t = term(F(p), F(q))
            if t == math.inf:
                return math.inf
            acc = acc + t
        return acc

    def add(key, value, w):
        if value == math.inf or out[key] == math.inf:
            out[key] = math.inf
        else:
            out[key] = out[key] + ar.scale(value, w)

    def visit(node):
        w = node.weight
        mu = node.true_conditionals()
        for kind in SQUARE_KINDS:
            phi = node.prediction(kind)
            out[("square", kind)] += w * sum((p - q) ** 2 for p, q in zip(mu, phi))
            if kind in HELL_KINDS:
                add(("hellinger", kind), total(ar.hell, mu, phi), w)
        add(("kl", RHO_NORM), total(ar.kl, mu, node.prediction(RHO_NORM)), w)
        rho_sum = sum(node.prediction(RHO))
        out[("one_minus_sum", RHO)] += w * abs(1 - rho_sum)
        add(("abs_log_sum", RHO), math.inf if rho_sum == 0 else abs(ar.ln(rho_sum)), w)
        out[("one_minus_sum", STATIC)] += w * abs(1 - sum(node.prediction(STATIC)))

    walk_support(cls, horizon, visit)
    return out


def old_reports(cls, horizon):
    """(name, kind, metric, measured, bound, passed) rows of the old formulas."""
    led = reference_ledgers(cls, horizon, OldArithmetic)
    winv = 1 / cls.true_weight
    ln_winv = OldArithmetic.ln(winv)
    w_plus_ln = OldInterval(winv, winv) + ln_winv

    def row(name, kind, metric, bound):
        measured = led[(metric, kind)]
        if measured == math.inf:
            passed = False
        else:
            if not isinstance(measured, OldInterval):
                measured = OldInterval(measured, measured)
            assert measured.hi <= bound.lo or measured.lo > bound.hi, "inconclusive"
            passed = measured.hi <= bound.lo
        return name, kind, metric, measured, bound, passed

    def point(q):
        return OldInterval(q, q)

    rows = [
        row("mixture_square", XI, "square", ln_winv),
        row("dynamic_norm_square", RHO_NORM, "square", w_plus_ln),
        row("dynamic_norm_kl", RHO_NORM, "kl", w_plus_ln),
        row("dynamic_log_sum", RHO, "abs_log_sum", point(2 * winv)),
        row("dynamic_sum_defect", RHO, "one_minus_sum", point(2 * winv)),
        row("static_sum_defect", STATIC, "one_minus_sum", point(winv)),
    ]
    for kind, c in COROLLARY_CONSTANTS.items():
        rows.append(row(f"summary_square_{c}x", kind, "square", point(c * winv)))
        rows.append(row(f"summary_hellinger_{c}x", kind, "hellinger", point(c * winv)))
    return rows


def meets(a_lo, a_hi, b_lo, b_hi) -> bool:
    return max(a_lo, b_lo) <= min(a_hi, b_hi)


def test_check_bounds_matches_old_fraction_formulas():
    for case in range(CLASSES):
        cls = random_measure_class(0, case)
        new = check_bounds(cls, HORIZON)
        old = old_reports(cls, HORIZON)
        assert len(new) == len(old)
        for report, (name, kind, metric, measured, bound, passed) in zip(new, old):
            where = (case, name)
            assert (report.bound_name, report.predictor, report.metric) == (name, kind, metric)
            assert report.passed is passed, where
            if metric in ENCLOSED:
                if measured == math.inf:
                    assert report.measured == math.inf, where
                else:
                    assert meets(report.measured.lo, report.measured.hi, measured.lo, measured.hi)
            else:
                assert report.measured.is_point, where
                assert (report.measured.lo, report.measured.hi) == (measured.lo, measured.hi)
            if bound.lo == bound.hi:
                assert report.bound.is_point, where
                assert repr(report.bound.lo) == repr(bound.lo), where
            else:
                assert meets(report.bound.lo, report.bound.hi, bound.lo, bound.hi), where


def test_enclosures_meet_a_300_bit_ledger():
    for case in range(CLASSES):
        cls = random_measure_class(0, case)
        ref = reference_ledgers(cls, HORIZON, Mp300)
        for report in check_bounds(cls, HORIZON):
            if report.metric not in ENCLOSED:
                continue
            where = (case, report.bound_name)
            want = ref[(report.metric, report.predictor)]
            if want == math.inf:
                assert report.measured == math.inf, where
                continue
            got = report.measured
            assert meets(got.lo, got.hi, *mpi_fractions(want)), where
            assert got.width < F(1, 2**80), where
