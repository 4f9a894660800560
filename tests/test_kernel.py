"""Kernel construction, good roots, closed forms, and their table checks."""

from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from skewdyck.automaton import LAYERS, dp_counts, first_violation
from skewdyck.kernel import (
    S4_PUBLISHED,
    S6_PUBLISHED,
    good_root,
    kernel_poly,
    prefix_series,
    series_root,
    solve,
    substituted,
)
from skewdyck.reverse import rl_cancelling_root, rl_root_s1
from skewdyck.series import SeriesError, horner


# ids "Layer.F", "Layer.G" and "Layer.H" keep these tests' names stable
def coeff(s, n):
    """[z^n] of s as a `Fraction`, read from `Series.window`."""
    (x,), den = s.window(n, n + 1)
    return Fraction(x, den)


def as_pair(c):
    """An int as it is, a `Fraction` as the pair (numerator, denominator)."""
    return c if isinstance(c, int) else (c.numerator, c.denominator)


by_layer = pytest.mark.parametrize("layer", LAYERS, ids=lambda layer: f"Layer.{layer}")


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
        assert all(coeff(s, e) == c for e, c in S4_PUBLISHED.items())

    def test_s4_gaps_are_zero(self):
        s = good_root(2, 20)
        assert all(coeff(s, e) == 0 for e in (0, 1, 3, 4, 6, 7))

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
        assert {e for e, c in S6_PUBLISHED.items() if coeff(s, e) != c} == {7, 31}
        assert (coeff(s, 7), coeff(s, 31)) == (-3, -381093)


rationals = st.builds(Fraction, st.integers(-9, 9), st.integers(1, 6))


class TestSeriesRoot:
    """`series_root`, the one path from a polynomial to a root of given valuation."""

    @settings(deadline=None, max_examples=150)
    @given(
        valuation=st.sampled_from([-1, 1, 2]),
        table=st.dictionaries(
            st.integers(1, 4),
            st.dictionaries(st.integers(0, 3), rationals, max_size=3),
            min_size=1,
            max_size=4,
        ),
        seed=rationals.filter(bool),
        order=st.integers(3, 12),
    )
    def test_root_of_a_random_polynomial(self, valuation, table, seed, order):
        # Q(v, z) gets a simple root at v(0) = seed from its constant term;
        # P(u, z) = Q(u z^-valuation, z), times the power of z that leaves
        # no negative exponent, has that root at u = seed z^valuation
        c0 = -sum(Fraction(zp.get(0, 0)) * seed**p for p, zp in table.items())
        q = {**table, 0: {**table.get(0, {}), 0: c0}}
        slope = sum(p * Fraction(zp.get(0, 0)) * seed ** (p - 1) for p, zp in q.items() if p)
        assume(slope != 0)
        low = min(e - valuation * p for p, zp in q.items() for e in zp)
        poly = {p: {e - valuation * p - low: c for e, c in zp.items()} for p, zp in q.items()}
        assert substituted(poly, valuation) == q

        pairs = {p: {e: as_pair(c) for e, c in zp.items()} for p, zp in poly.items()}
        root = series_root(pairs, valuation, as_pair(seed), order)
        assert root.frontier == order
        assert coeff(root, valuation) == seed
        residual = horner(pairs, root)
        # P(root) = z^-low Q(v): known to O(z^(order - valuation - low))
        assert residual.frontier >= order - valuation - low
        assert residual.is_zero()
        with pytest.raises(ValueError, match=f"order must be >= {valuation + 1} "):
            series_root(pairs, valuation, as_pair(seed), valuation)

    @pytest.mark.parametrize(
        "root, valuation",
        [(lambda n: good_root(2, n), -1), (rl_root_s1, 2), (rl_cancelling_root, 1)],
    )
    def test_every_kernel_root_guards_its_lead(self, root, valuation):
        with pytest.raises(ValueError, match=f"to see the z\\^{valuation} lead"):
            root(valuation)
        assert root(valuation + 1).frontier == valuation + 1


class TestSolveT2:
    def test_g0_printed(self, sol):
        expected = {3: 1, 6: 3, 9: 13, 12: 66, 15: 365, 18: 2131, 21: 12921}
        assert all(coeff(sol.g0, e) == v for e, v in expected.items())
        assert coeff(sol.g0, 0) == 0

    def test_h0_printed(self, sol):
        expected = {6: 1, 9: 6, 12: 34, 15: 198, 18: 1191, 21: 7364}
        assert all(coeff(sol.h0, e) == v for e, v in expected.items())

    def test_total_printed(self, sol):
        expected = {0: 1, 3: 1, 6: 4, 9: 19, 12: 100, 15: 563, 18: 3322, 21: 20285}
        assert all(coeff(sol.total, e) == v for e, v in expected.items())

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
        assert sol.s_inv_power(1) == inv
        for k in (3, 1, 5):
            assert sol.s_inv_power(k) == inv**k
        assert sol.s_inv_power(5) is sol.s_inv_power(5)
        with pytest.raises(ValueError):
            sol.s_inv_power(0)

    @pytest.mark.parametrize("t", [2, 3, 4])
    @pytest.mark.parametrize("order", [8, 9, 40])
    def test_halved_powers_equal_chained_products(self, t, order):
        # s^-k from halves equals, values and window (`==` compares both),
        # the product chain s^-1 * s^-1 * ..., whichever k is asked for first
        sol = solve(t, order)
        inv = sol.s_inv_power(1)
        chained = [inv]
        while len(chained) < order + 2:
            chained.append(chained[-1] * inv)
        fresh = solve(t, order)
        for k in (order + 2, order - 1, 5):
            assert fresh.s_inv_power(k) == chained[k - 1]
        for k in range(1, order + 3):
            assert sol.s_inv_power(k) == chained[k - 1]

    def test_kernel_total_matches_table_to_sixty(self):
        sol = solve(2, 64)
        table = dp_counts(2, 60, k_max=0)
        for n in range(61):
            assert coeff(sol.total, n) == Fraction(table.closed_count(n))

    @pytest.mark.parametrize("t", [2, 3, 4])
    def test_fields_known_to_order(self, t):
        sol = solve(t, 30)
        assert sol.t == t and sol.order == 30
        assert [x.frontier for x in (sol.s, sol.g0, sol.h0, sol.total)] == [30] * 4
        assert sol.s_inv_power(1).frontier == 32
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
        assert [coeff(sol.total, n) for n in range(41)] == [
            table.closed_count(n) for n in range(41)
        ]


class TestPrefixSeries:
    def test_f0_is_one(self, sol):
        ser = prefix_series(sol, "F", 0, 24)
        assert coeff(ser, 0) == 1
        assert (ser - 1).is_zero()

    def test_h0_case_is_h0_itself(self, sol):
        ser = prefix_series(sol, "H", 0, 24)
        assert (ser - sol.h0.truncate(24)).is_zero()

    def test_f1_series(self, sol):
        ser = prefix_series(sol, "F", 1, 8)
        assert [coeff(ser, n) for n in range(8)] == [0, 1, 0, 0, 1, 0, 0, 3]

    def test_lowest_term_is_all_up_word(self, sol):
        for k in range(1, 6):
            ser = prefix_series(sol, "F", k, 20)
            assert ser.valuation == k
            assert coeff(ser, k) == 1

    @by_layer
    def test_matches_table_k_to_8_n_to_24(self, layer, sol):
        table = dp_counts(2, 24, k_max=8)
        for k in range(9):
            ser = prefix_series(sol, layer, k, 25)
            for n in range(25):
                assert coeff(ser, n) == Fraction(table.count(n, k, layer)), (layer, k, n)

    @by_layer
    def test_nonnegative_integer_coefficients(self, layer, sol):
        for k in range(9):
            ser = prefix_series(sol, layer, k, 25)
            assert ser.valuation >= 0
            for c in ser.coeffs:
                assert c.denominator == 1 and c >= 0

    @pytest.mark.parametrize("layer", ["X", "f", "", "FG"])
    def test_unknown_layer_letter_raises(self, layer, sol):
        # only F, G and H name a layer; any other letter is an error that
        # names it, never a quiet fall-through to one of the three
        with pytest.raises(ValueError, match=f"got {layer!r}"):
            prefix_series(sol, layer, 1, 8)

    def test_insufficient_solution_order_raises(self, sol):
        with pytest.raises(SeriesError, match="too small"):
            prefix_series(sol, "H", 0, 60)

    @by_layer
    def test_levels_past_the_window_are_zero(self, layer, sol):
        # no prefix of fewer than k steps ends at level k
        for k in (24, 25, 60):
            ser = prefix_series(sol, layer, k, 24)
            assert ser.is_zero() and ser.frontier == 24
        assert prefix_series(sol, layer, 23, 24).valuation >= 23


class TestCrossRoute:
    """The kernel solution against the counting table on random inputs."""

    @settings(deadline=None, max_examples=60)
    @given(
        t=st.integers(2, 6),
        layer=st.sampled_from(LAYERS),
        k=st.integers(0, 8),
        n=st.integers(0, 30),
    )
    def test_prefix_series_matches_table(self, t, layer, k, n):
        ser = prefix_series(solve(t, n + 1), layer, k, n + 1)
        table = dp_counts(t, n, k_max=k)
        assert [coeff(ser, m) for m in range(n + 1)] == [
            table.count(m, k, layer) for m in range(n + 1)
        ]

    @settings(deadline=None, max_examples=40)
    @given(t=st.integers(2, 6), n=st.integers(0, 30))
    def test_total_matches_table(self, t, n):
        total = solve(t, n + 1).total
        table = dp_counts(t, n, k_max=0)
        assert [coeff(total, m) for m in range(n + 1)] == [
            table.closed_count(m) for m in range(n + 1)
        ]


def recurrence_violation(table, t, layer, lo, hi):
    # the first nonzero u^lo..u^hi coefficient of K_t times the layer's
    # columns, through the table's last length
    terms = tuple((c, layer, p, e, ()) for p, zp in kernel_poly(t).items() for e, c in zp.items())
    return first_violation(table, 0, terms, lo, hi, table.n_max)


class TestRecurrence:
    # the table's level columns against the kernel polynomial, in integers
    @by_layer
    def test_order_30_k_to_6(self, layer):
        assert recurrence_violation(dp_counts(2, 30, k_max=10), 2, layer, 4, 10) == ""

    @pytest.mark.parametrize("t", [3, 4])
    def test_depth_2t(self, t):
        # the recurrence holds from u^(2t), level 0, up; below it K_t times
        # a column sum keeps the kernel equation's right side, which starts
        # with -u^(2t-1) times the empty word
        table = dp_counts(t, 20, k_max=4 + 2 * t)
        for layer in LAYERS:
            assert recurrence_violation(table, t, layer, 2 * t, 2 * t + 4) == ""
        assert recurrence_violation(table, t, "F", 2 * t - 1, 2 * t - 1) == f"u^{2 * t - 1} z^0 term -1"

    def test_detects_a_wrong_column(self):
        # a column that is not the table's: one G cell at level 2 bumped
        table = dp_counts(2, 20, k_max=8)
        table._grid[11][1][0] += 1  # row 11 stores levels 2, 5, 8
        assert recurrence_violation(table, 2, "G", 4, 8) == "u^4 z^13 term -1"
