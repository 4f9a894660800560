"""Kernel construction, good roots, closed forms, and their table checks."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from skewdyck.automaton import Layer, dp_counts
from skewdyck.kernel import (
    S4_PUBLISHED,
    S6_PUBLISHED,
    compare_with_published,
    good_root,
    kernel_poly,
    prefix_series,
    recurrence_check,
    recurrence_residuals,
    solve,
    substituted,
)
from skewdyck.series import Series, SeriesError, horner


@pytest.fixture(scope="module")
def sol():
    return solve(2, 40)


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
        # u^(2t) used to be built by recursion, past the recursion limit.
        # s^(2t) costs the residual 2t - 2 terms of the root's window, so
        # the root is solved past 2t for the residual to reach z^0.
        s = good_root(600, 2 * 600 + 8)
        residual = horner(kernel_poly(600), s)
        assert residual.frontier == 10
        assert residual.is_zero()

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
        sol = solve(2, order)
        inv = sol.s.reciprocal()
        assert sol.s_inv == inv
        for k in (3, 1, 5):
            assert sol.s_inv_power(k) == inv**k
        assert sol.s_inv_power(5) is sol.s_inv_power(5)
        with pytest.raises(ValueError):
            sol.s_inv_power(0)

    def test_kernel_total_matches_table_to_sixty(self):
        sol = solve(2, 64)
        table = dp_counts(2, 60, k_max=0)
        for n in range(61):
            assert sol.total.coeff(n) == Fraction(table.closed_count(n))

    @pytest.mark.parametrize("t", [2, 3, 4])
    def test_fields_known_to_order(self, t):
        sol = solve(t, 30)
        assert sol.t == t and sol.order == 30
        assert [x.frontier for x in (sol.s, sol.g0, sol.h0, sol.total)] == [30] * 4
        assert sol.s_inv.frontier == 32
        assert sol.g0.valuation == t + 1 and sol.h0.valuation == 2 * t + 2

    @pytest.mark.parametrize("t", [2, 3, 4])
    def test_h_layer_equation(self, t):
        # h0 s^t = z (g0 + h0): the one layer equation `solve` does not use
        sol = solve(t, 40)
        diff = sol.h0 * sol.s**t - (sol.g0 + sol.h0).shift(1)
        assert diff.frontier == 40 - t
        assert diff.is_zero()

    @pytest.mark.parametrize("t", [3, 4])  # t = 2: test_kernel_total_matches_table_to_sixty
    def test_total_matches_table_to_forty(self, t):
        sol = solve(t, 41)
        table = dp_counts(t, 40, k_max=0)
        assert [sol.total.coeff(n) for n in range(41)] == [
            table.closed_count(n) for n in range(41)
        ]


class TestPrefixSeries:
    def test_f0_is_one(self, sol):
        ser = prefix_series(2, Layer.F, 0, 24, sol)
        assert ser.coeff(0) == 1
        assert (ser - 1).is_zero()

    def test_h0_case_is_h0_itself(self, sol):
        ser = prefix_series(2, Layer.H, 0, 24, sol)
        assert (ser - sol.h0.truncate(24)).is_zero()

    def test_f1_series(self, sol):
        ser = prefix_series(2, Layer.F, 1, 8, sol)
        assert [ser.coeff(n) for n in range(8)] == [0, 1, 0, 0, 1, 0, 0, 3]

    def test_lowest_term_is_all_up_word(self, sol):
        for k in range(1, 6):
            ser = prefix_series(2, Layer.F, k, 20, sol)
            assert ser.valuation == k
            assert ser.coeff(k) == 1

    @pytest.mark.parametrize("layer", list(Layer))
    def test_matches_table_k_to_8_n_to_24(self, layer, sol):
        table = dp_counts(2, 24, k_max=8)
        for k in range(9):
            ser = prefix_series(2, layer, k, 25, sol)
            for n in range(25):
                assert ser.coeff(n) == Fraction(table.count(n, k, layer)), (layer, k, n)

    @pytest.mark.parametrize("layer", list(Layer))
    def test_nonnegative_integer_coefficients(self, layer, sol):
        for k in range(9):
            ser = prefix_series(2, layer, k, 25, sol)
            assert ser.valuation >= 0
            for _, c in ser.terms():
                assert c.denominator == 1 and c >= 0

    def test_insufficient_solution_order_raises(self, sol):
        with pytest.raises(SeriesError, match="too small"):
            prefix_series(2, Layer.H, 0, 60, sol)

    def test_solution_for_another_t_raises(self, sol):
        with pytest.raises(ValueError, match="not t=3"):
            prefix_series(3, Layer.F, 1, 20, sol)

    @pytest.mark.parametrize("layer", list(Layer))
    def test_levels_past_the_window_are_zero(self, layer, sol):
        # no prefix of fewer than k steps ends at level k
        for k in (24, 25, 60):
            ser = prefix_series(2, layer, k, 24, sol)
            assert ser.is_zero() and ser.frontier == 24
        assert prefix_series(2, layer, 23, 24, sol).valuation >= 23


class TestCrossRoute:
    """The kernel solution against the counting table on random inputs."""

    @settings(deadline=None, max_examples=60)
    @given(
        t=st.integers(2, 6),
        layer=st.sampled_from(Layer),
        k=st.integers(0, 8),
        n=st.integers(0, 30),
    )
    def test_prefix_series_matches_table(self, t, layer, k, n):
        ser = prefix_series(t, layer, k, n + 1)
        table = dp_counts(t, n, k_max=k)
        assert [ser.coeff(m) for m in range(n + 1)] == [
            table.count(m, k, layer) for m in range(n + 1)
        ]

    @settings(deadline=None, max_examples=40)
    @given(t=st.integers(2, 6), n=st.integers(0, 30))
    def test_total_matches_table(self, t, n):
        total = solve(t, n + 1).total
        table = dp_counts(t, n, k_max=0)
        assert [total.coeff(m) for m in range(n + 1)] == [
            table.closed_count(m) for m in range(n + 1)
        ]


class TestRecurrence:
    @pytest.mark.parametrize("layer", list(Layer))
    def test_order_30_k_to_6(self, layer):
        report = recurrence_check(solve(2, 45), layer, 6, 30)
        assert report.all_hold

    @pytest.mark.parametrize("t", [3, 4])
    def test_depth_2t(self, t):
        sol = solve(t, 24)
        for layer in Layer:
            assert recurrence_check(sol, layer, 4, 20).all_hold
        cols = [Series.one(8)] * (2 * t + 3)
        assert len(recurrence_residuals(cols, t)) == 3

    def test_detects_a_wrong_column(self):
        # the residual of a column sequence that is not geometric in s
        sol = solve(2, 24)
        cols = [prefix_series(2, Layer.G, k, 20, sol) for k in range(6)]
        cols[2] = cols[2] + Series.monomial(1, 10, 20)
        assert not all(r.truncate(19).is_zero() for r in recurrence_residuals(cols, 2))
