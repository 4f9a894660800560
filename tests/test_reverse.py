"""Right-to-left route: the valuation-2 root, the cancelling root, g0."""

from fractions import Fraction

import pytest

from skewdyck.automaton import dp_counts
from skewdyck.kernel import (
    good_root,
    kernel_poly,
    reflected,
    solve,
    substituted,
)
from skewdyck.reverse import (
    RECIPROCAL_KERNEL,
    S1_PUBLISHED,
    rl_cancelling_root,
    rl_g0,
    rl_g0_rational,
    rl_root_s1,
)
from skewdyck.series import Series, SeriesError, horner


class TestDerivedEquations:
    # the hand-derived forms, which `substituted` and `reflected` must
    # reproduce: the equations `series_root` solves for s1 and t1
    def test_s1_equation(self):
        # u = z^2 w in the quartic kernel
        assert substituted(kernel_poly(2), 2) == {4: {6: 1}, 3: {3: -1}, 2: {3: -1}, 1: {0: 2}, 0: {0: -1}}

    def test_reciprocal_kernel(self):
        # z^3 u^4 - 2 z u^3 + z^2 u^2 + u - z
        assert RECIPROCAL_KERNEL == {4: {3: 1}, 3: {1: -2}, 2: {2: 1}, 1: {0: 1}, 0: {1: -1}}

    def test_t1_equation(self):
        # u = z y in the reflected kernel
        assert substituted(RECIPROCAL_KERNEL, 1) == {4: {6: 1}, 3: {3: -2}, 2: {3: 1}, 1: {0: 1}, 0: {0: -1}}

    def test_reflection_is_an_involution(self):
        for t in (2, 3, 5):
            assert reflected(reflected(kernel_poly(t))) == kernel_poly(t)


class TestS1:
    def test_published_rational_coefficients(self):
        s1 = rl_root_s1(26)
        for e, c in S1_PUBLISHED.items():
            if e < 26:
                assert s1.coeff(e) == Fraction(*c), e

    def test_gap_coefficients_vanish(self):
        s1 = rl_root_s1(16)
        assert all(s1.coeff(e) == 0 for e in (0, 1, 3, 4, 6, 7))

    def test_lead_is_half(self):
        assert rl_root_s1(8).coeff(2) == Fraction(1, 2)

    def test_quartic_residual_zero(self):
        s1 = rl_root_s1(30)
        assert horner(kernel_poly(2), s1).truncate(24).is_zero()

    def test_reciprocal_solves_reflected_kernel(self):
        s1 = rl_root_s1(30)
        resid = horner(RECIPROCAL_KERNEL, s1.reciprocal())
        assert resid.truncate(18).is_zero()


class TestCancellingRoot:
    def test_leading_terms(self):
        t1 = rl_cancelling_root(12)
        assert t1.valuation == 1
        assert [t1.coeff(n) for n in range(1, 12)] == [
            1, 0, 0, 1, 0, 0, 3, 0, 0, 13, 0,
        ]

    def test_reflected_kernel_residual_zero(self):
        t1 = rl_cancelling_root(30)
        assert horner(RECIPROCAL_KERNEL, t1).truncate(26).is_zero()

    def test_inverts_the_surviving_root(self):
        # two independent root solves whose product must be exactly 1
        t1 = rl_cancelling_root(30)
        s = good_root(2, 30)
        assert (t1 * s - 1).truncate(28).is_zero()


class TestRlG0:
    def test_printed_series(self):
        g0 = rl_g0(24)
        expected = {0: 1, 3: 1, 6: 4, 9: 19, 12: 100, 15: 563, 18: 3322, 21: 20285}
        for e, v in expected.items():
            assert g0.coeff(e) == v

    def test_equals_lr_total_through_order_30(self):
        g0 = rl_g0(31)
        total = solve(2, 31).total
        assert g0.agrees(total, upto=31)

    def test_both_forms_agree(self):
        assert rl_g0(30).agrees(rl_g0_rational(30, rl_cancelling_root(32)), upto=30)

    @pytest.mark.parametrize("order", [48, 64, 96])
    def test_quotient_from_the_solved_root(self, order):
        # `verify` hands over the root cut to the order; the quotient must come
        # out equal, window included, to the one built from a root solved further
        from_solved = rl_g0_rational(order, t1=rl_cancelling_root(order + 2).truncate(order))
        assert from_solved == rl_g0_rational(order, t1=rl_cancelling_root(order + 2))

    def test_nonnegative_integer_coefficients(self):
        for c in rl_g0(30).coeffs:
            assert c.denominator == 1 and c >= 0

    def test_corrupted_root_is_loud(self):
        # a wrong-valuation root cannot cancel the 1/z term
        fake = Series.poly({-2: Fraction(1, 2)}, 10)
        with pytest.raises(SeriesError, match="corrupted"):
            rl_g0(8, t1=fake)


def rl_g_cell(k, n):
    # one G cell of the reversed table, from a table cut to n steps and level k
    return dp_counts(2, n, k_max=k, direction="RL").count(n, k, "G")


class TestRlPrefixCounts:
    """Right-to-left prefix counts come from the reversed table's G column."""

    def test_closed_counts_through_g_column(self):
        assert rl_g_cell(0, 3) == 1
        assert rl_g_cell(0, 0) == 1

    def test_level_one_after_one_step_is_empty(self):
        # both reversed step kinds climb by t=2, so nothing sits at
        # level 1 after a single step (computed, and pinned here)
        assert rl_g_cell(1, 1) == 0
        assert rl_g_cell(2, 1) == 2

    def test_matches_reversed_table(self):
        table = dp_counts(2, 9, k_max=4, direction="RL")
        for k in range(5):
            for n in range(10):
                assert rl_g_cell(k, n) == table.count(n, k, "G")

    def test_closed_counts_match_lr_through_30(self):
        lr = dp_counts(2, 30, k_max=0)
        for n in range(31):
            assert rl_g_cell(0, n) == lr.closed_count(n)
