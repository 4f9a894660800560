"""R(z), the Narayana-weighted sum and the Lagrange identity."""

from fractions import Fraction
from math import comb

import pytest

from skewdyck.closed_form import lagrange_identity_check, narayana_sum, r_series
from skewdyck.series import Series


def coeff(s, n):
    """[z^n] of s as a `Fraction`, read from `Series.window`."""
    (x,), den = s.window(n, n + 1)
    return Fraction(x, den)


class TestRSeries:
    def test_printed_coefficients(self):
        r = r_series(8)
        assert [coeff(r, n) for n in range(8)] == [
            1, 1, 4, 19, 100, 562, 3304, 20071,
        ]

    def test_valuation_nonnegative(self):
        assert r_series(20).valuation >= 0

    def test_integer_coefficients(self):
        r = r_series(30)
        assert all(c.denominator == 1 for c in r.coeffs)

    def test_defining_quadratic(self):
        # R was built from 6zR = 1 + 2z - sqrt(1 - 8z + 4z^2); square back
        r = r_series(40)
        lhs = (r.shift(1) * 6 - 1 - Series.poly({1: 2}, 44)) ** 2
        rhs = Series.poly({0: 1, 1: -8, 2: 4}, 44)
        assert (lhs - rhs).truncate(40).is_zero()


class TestNarayanaSum:
    def test_n1(self):
        assert narayana_sum(1) == 1

    def test_n3(self):
        assert narayana_sum(3) == 19

    def test_n5_by_hand(self):
        # 5 + 150 + 900 + 1350 + 405 = 2810; 2810 / 5 = 562
        terms = [3**i * comb(5, i) * comb(5, i + 1) for i in range(5)]
        assert terms == [5, 150, 900, 1350, 405]
        assert sum(terms) == 2810
        assert narayana_sum(5) == 562

    def test_matches_r_through_40(self):
        r = r_series(41)
        for n in range(1, 41):
            assert narayana_sum(n) == coeff(r, n)

    def test_divisibility_holds_through_80(self):
        # narayana_sum asserts n | sum internally; just drive it
        for n in range(1, 81):
            narayana_sum(n)

    def test_nonpositive_rejected(self):
        with pytest.raises(ValueError):
            narayana_sum(0)


class TestLagrangeIdentity:
    def test_n1(self):
        # 2 - 1 = 1 = 1/1
        assert lagrange_identity_check(1)

    def test_n2_by_hand(self):
        # 12 - 8 = 4 = 8/2
        a = sum(3**i * comb(1, i) * comb(3, i + 1) for i in range(3))
        b = sum(3**i * comb(2, i) * comb(2, i + 1) for i in range(2))
        assert (a, b) == (12, 8)
        assert lagrange_identity_check(2)

    def test_through_40(self):
        assert all(lagrange_identity_check(n) for n in range(1, 41))

    def test_nonpositive_rejected(self):
        with pytest.raises(ValueError):
            lagrange_identity_check(0)

