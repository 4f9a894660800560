"""Kernel construction, good roots, closed forms, and their table checks."""

from fractions import Fraction

import pytest

from skewdyck.automaton import Layer, dp_counts
from skewdyck.kernel import (
    S4_PUBLISHED,
    S6_PUBLISHED,
    compare_with_published,
    good_root,
    kernel_poly,
    prefix_series_t2,
    ratio_property,
    recurrence_check,
    solve_t2,
    substituted,
)
from skewdyck.series import SeriesError, horner


@pytest.fixture(scope="module")
def sol():
    return solve_t2(40)


class TestKernelPoly:
    def test_t2(self):
        assert kernel_poly(2) == {
            4: {1: 1}, 3: {0: -1}, 2: {2: -1}, 1: {1: 2}, 0: {3: -1},
        }

    def test_t3(self):
        assert kernel_poly(3) == {
            6: {1: 1}, 5: {0: -1}, 3: {2: -1}, 2: {1: 2}, 0: {3: -1},
        }

    def test_t4_pattern(self):
        assert kernel_poly(4) == {
            8: {1: 1}, 7: {0: -1}, 4: {2: -1}, 3: {1: 2}, 0: {3: -1},
        }

    def test_t_below_two(self):
        with pytest.raises(ValueError):
            kernel_poly(1)

    @pytest.mark.parametrize("t", range(2, 8))
    def test_pole_cleared_form(self, t):
        # u = v/z with z^(2t-1) divided out: the equation `good_root` solves
        assert substituted(kernel_poly(t), -1) == {
            2 * t: {0: 1},
            2 * t - 1: {0: -1},
            t: {t + 1: -1},
            t - 1: {t + 1: 2},
            0: {2 * t + 2: -1},
        }


class TestGoodRoot:
    def test_s4_published_coefficients(self):
        s = good_root(2, 30)
        rows = compare_with_published(s, S4_PUBLISHED)
        assert all(row["matches"] for row in rows)

    def test_s4_gaps_are_zero(self):
        s = good_root(2, 20)
        assert all(s.coeff(e) == 0 for e in (0, 1, 3, 4, 6, 7))

    def test_residual_zero_t2(self):
        s = good_root(2, 36)
        assert horner(kernel_poly(2), s).truncate(30).is_zero()

    def test_residual_zero_t3_order_40(self):
        s = good_root(3, 46)
        assert s.valuation == -1
        assert horner(kernel_poly(3), s).truncate(40).is_zero()

    def test_residual_zero_t4(self):
        s = good_root(4, 30)
        assert s.valuation == -1
        assert horner(kernel_poly(4), s).truncate(20).is_zero()

    def test_residual_zero_t600(self):
        # u^(2t) used to be built by recursion, past the recursion limit
        s = good_root(600, 16)
        assert horner(kernel_poly(600), s).is_zero()

    def test_product_consistency(self):
        # s * (z s) and z * s^2 must agree on their shared window
        s = good_root(2, 24)
        assert (s * s.shift(1)).agrees((s * s).shift(1))

    def test_s6_comparison_reports_divergences(self):
        # the published t=3 expansion carries two transcription slips;
        # the comparison flags them (recorded finding, not a failure)
        s = good_root(3, 36)
        rows = compare_with_published(s, S6_PUBLISHED)
        flagged = {row["exponent"]: row for row in rows if not row["matches"]}
        assert set(flagged) == {7, 31}
        assert flagged[7]["computed"] == "-3"
        assert flagged[31]["computed"] == "-381093"
        assert all(row["matches"] for row in rows if row["exponent"] not in flagged)


class TestSolveT2:
    def test_g0_printed(self, sol):
        expected = {3: 1, 6: 3, 9: 13, 12: 66, 15: 365, 18: 2131, 21: 12921}
        assert all(sol.g0.coeff(e) == v for e, v in expected.items())
        assert sol.g0.coeff(0) == 0

    def test_h0_printed(self, sol):
        expected = {6: 1, 9: 6, 12: 34, 15: 198, 18: 1191, 21: 7364}
        assert all(sol.h0.coeff(e) == v for e, v in expected.items())

    def test_total_printed(self, sol):
        expected = {0: 1, 3: 1, 6: 4, 9: 19, 12: 100, 15: 563, 18: 3322, 21: 20285}
        assert all(sol.total.coeff(e) == v for e, v in expected.items())

    def test_total_is_one_plus_g0_plus_h0(self, sol):
        assert (sol.total - sol.g0 - sol.h0 - 1).is_zero()

    def test_internal_identities(self, sol):
        assert ((sol.s.shift(1)) * (sol.g0 + 1) - 1).truncate(38).is_zero()
        lhs = sol.g0 - sol.h0
        rhs = (sol.g0 + 1).shift(2) * sol.s.reciprocal()
        assert (lhs - rhs).truncate(38).is_zero()

    @pytest.mark.parametrize("order", [8, 9, 40])
    def test_s_inv_powers_are_memoised_on_the_window_of_s(self, order):
        sol = solve_t2(order)
        inv = sol.s.reciprocal()
        assert sol.s_inv == inv
        for k in (3, 1, 5):
            assert sol.s_inv_power(k) == inv**k
        assert sol.s_inv_power(5) is sol.s_inv_power(5)
        with pytest.raises(ValueError):
            sol.s_inv_power(0)

    def test_kernel_total_matches_table_to_sixty(self):
        sol = solve_t2(64)
        table = dp_counts(2, 60, k_max=0)
        for n in range(61):
            assert sol.total.coeff(n) == Fraction(table.closed_count(n))


class TestPrefixSeries:
    def test_f0_is_one(self, sol):
        ser = prefix_series_t2(Layer.F, 0, 24, sol)
        assert ser.coeff(0) == 1
        assert (ser - 1).is_zero()

    def test_h0_case_is_h0_itself(self, sol):
        ser = prefix_series_t2(Layer.H, 0, 24, sol)
        assert (ser - sol.h0.truncate(24)).is_zero()

    def test_f1_series(self, sol):
        ser = prefix_series_t2(Layer.F, 1, 8, sol)
        assert [ser.coeff(n) for n in range(8)] == [0, 1, 0, 0, 1, 0, 0, 3]

    def test_lowest_term_is_all_up_word(self, sol):
        for k in range(1, 6):
            ser = prefix_series_t2(Layer.F, k, 20, sol)
            assert ser.valuation == k
            assert ser.coeff(k) == 1

    @pytest.mark.parametrize("layer", list(Layer))
    def test_matches_table_k_to_8_n_to_24(self, layer, sol):
        table = dp_counts(2, 24, k_max=8)
        for k in range(9):
            ser = prefix_series_t2(layer, k, 25, sol)
            for n in range(25):
                assert ser.coeff(n) == Fraction(table.count(n, k, layer)), (layer, k, n)

    @pytest.mark.parametrize("layer", list(Layer))
    def test_nonnegative_integer_coefficients(self, layer, sol):
        for k in range(9):
            ser = prefix_series_t2(layer, k, 25, sol)
            assert ser.valuation >= 0
            for _, c in ser.terms():
                assert c.denominator == 1 and c >= 0

    def test_insufficient_solution_order_raises(self, sol):
        with pytest.raises(SeriesError, match="too small"):
            prefix_series_t2(Layer.H, 0, 60, sol)


class TestRecurrence:
    @pytest.mark.parametrize("layer", list(Layer))
    def test_order_30_k_to_6(self, layer):
        report = recurrence_check(layer, 6, 30)
        assert report.all_hold


class TestRatioProperty:
    @pytest.mark.parametrize("t", [2, 3, 4])
    def test_holds_to_order_20(self, t):
        report = ratio_property(t, 4, 20)
        assert report.all_hold

    def test_t2_wider_window(self):
        report = ratio_property(2, 6, 24)
        assert report.all_hold
