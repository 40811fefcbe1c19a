import math
from fractions import Fraction as F

import pytest
from hypothesis import given
from hypothesis import strategies as st

from mdl_lab.values import (
    ceil_log2_frac,
    decimal_string,
    format_rational,
    log2_frac,
    neg_log2_ceil,
    parse_rational,
)


class TestRationalWire:
    @pytest.mark.parametrize(
        "text,expected",
        [("1/3", F(1, 3)), ("-2/8", F(-1, 4)), ("7", F(7)), ("0.25", F(1, 4))],
    )
    def test_parse(self, text, expected):
        assert parse_rational(text) == expected

    def test_format_roundtrip(self):
        for q in (F(0), F(1), F(-3, 7), F(22, 7)):
            assert parse_rational(format_rational(q)) == q

    def test_huge_rational_falls_back_to_decimal(self):
        q = F(3**3000 + 1, 3**3000 * 2)
        text = format_rational(q)
        assert text.startswith("~0.5")

    def test_decimal_string(self):
        assert decimal_string(F(1, 4), 6) == "0.25"
        assert decimal_string(F(-22, 7), 6) == "-3.142857"


class TestIntegerLog2:
    @given(st.integers(1, 400), st.integers(1, 400))
    def test_ceil_log2_definition(self, num, den):
        q = F(num, den)
        m = ceil_log2_frac(q)
        assert F(2) ** m >= q
        assert F(2) ** (m - 1) < q

    @pytest.mark.parametrize(
        "p,bits", [(F(1, 2), 1), (F(1), 0), (F(9, 256), 5), (F(9, 16), 1)]
    )
    def test_neg_log2_ceil(self, p, bits):
        assert neg_log2_ceil(p) == bits

    def test_log2_frac(self):
        assert math.isclose(log2_frac(F(1, 5)), -math.log2(5))
