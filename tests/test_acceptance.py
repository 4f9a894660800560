"""Acceptance gate: every criterion at its stated tolerance.

Each test prints one ACCEPTANCE line (visible with `pytest -s` or in the
captured output); all comparisons are exact, and the two timed criteria
assert their budgets.
"""

import random
import time
from contextlib import contextmanager
from fractions import Fraction

import pytest

from skewdyck.automaton import Layer, dp_counts, verify_functional_equations
from skewdyck.closed_form import lagrange_identity_check, narayana_sum, r_series
from skewdyck.kernel import (
    S4_PUBLISHED,
    S6_PUBLISHED,
    compare_with_published,
    good_root,
    kernel_poly,
    prefix_series,
    recurrence_check,
    solve,
)
from skewdyck.render import render_document
from skewdyck.reverse import S1_PUBLISHED, rl_g0, rl_root_s1
from skewdyck.series import Series, horner, newton_root
from skewdyck.verify import run_verification


@contextmanager
def criterion(tag, description):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {tag}: FAIL - {description}")
        raise
    print(f"ACCEPTANCE {tag}: PASS - {description}")


def test_c01_closed_totals_t2():
    with criterion("C1", "table totals 1,4,19,100 at lengths 3..12, under 1s"):
        start = time.perf_counter()
        table = dp_counts(2, 12, k_max=0)
        got = [table.closed_count(n) for n in (3, 6, 9, 12)]
        elapsed = time.perf_counter() - start
        assert got == [1, 4, 19, 100]
        assert elapsed < 1.0, f"took {elapsed:.2f}s"


def test_c02_kernel_oracle_equivalence_to_60():
    with criterion("C2", "kernel total equals table totals, lengths <= 60, under 10s"):
        start = time.perf_counter()
        sol = solve(2, 64)
        table = dp_counts(2, 60, k_max=0)
        for n in range(61):
            assert sol.total.coeff(n) == Fraction(table.closed_count(n)), n
        elapsed = time.perf_counter() - start
        assert elapsed < 10.0, f"took {elapsed:.2f}s"


def test_c03_good_root_reproduction():
    with criterion("C3", "surviving t=2 root matches every published coefficient"):
        s = good_root(2, 30)
        rows = compare_with_published(s, S4_PUBLISHED)
        assert all(row["matches"] for row in rows), rows


def test_c04_prefix_series_reproduction():
    with criterion("C4", "closed-form prefixes equal table counts, k <= 8, n <= 24"):
        sol = solve(2, 40)
        table = dp_counts(2, 24, k_max=8)
        for layer in Layer:
            for k in range(9):
                ser = prefix_series(2, layer, k, 25, sol)
                for n in range(25):
                    assert ser.coeff(n) == Fraction(table.count(n, k, layer))
        # the two expansions called out by name
        f1 = prefix_series(2, Layer.F, 1, 25, sol)
        assert (f1 - (sol.g0 + 1).shift(1).truncate(25)).is_zero()
        h0 = prefix_series(2, Layer.H, 0, 25, sol)
        assert [h0.coeff(e) for e in (6, 9, 12, 15, 18, 21)] == [1, 6, 34, 198, 1191, 7364]


def test_c05_order_four_recurrence():
    with criterion("C5", "level recurrence exact to order 30, all layers, k <= 6"):
        sol = solve(2, 45)
        for layer in Layer:
            report = recurrence_check(sol, layer, 6, 30)
            assert report.all_hold, layer


def test_c06_closed_form_coefficients():
    with criterion("C6", "narayana = [z^n]R (n <= 40), printed R values, lagrange (n <= 40)"):
        r = r_series(41)
        for n in range(1, 41):
            assert Fraction(narayana_sum(n)) == r.coeff(n), n
        assert [r.coeff(n) for n in range(8)] == [1, 1, 4, 19, 100, 562, 3304, 20071]
        assert all(lagrange_identity_check(n) for n in range(1, 41))


def test_c07_discrepancy_adjudication():
    with criterion("C7", "verify report adjudicates the length-15 count by computation"):
        report = run_verification(order=16, t_list=(2,))
        lines = [c for c in report.checks if c.name == "length-15 adjudication"]
        assert len(lines) == 1
        detail = lines[0].detail
        # the line states the table count and flags the matching printed value
        assert "563" in detail and "562" in detail
        assert "matches the kernel-method value" in detail


def test_c08_right_to_left():
    with criterion("C8", "published s1 through z^14; rl g0 = LR total to 21; mirrored counts to 30"):
        s1 = rl_root_s1(16)
        for e, c in S1_PUBLISHED.items():
            if e <= 14:
                assert s1.coeff(e) == c, e
        g0 = rl_g0(24)
        total = solve(2, 24).total
        assert g0.agrees(total, upto=22)
        lr = dp_counts(2, 30, k_max=0)
        rl = dp_counts(2, 30, k_max=0, direction="RL")
        for n in range(31):
            assert lr.closed_count(n) == rl.closed_count(n), n


def test_c09_t3_and_general_t():
    with criterion("C9", "t=3 root residual to order 40; kernel totals and prefixes = table, t=3,4, k <= 4, n <= 20; s6 divergences reported"):
        s6 = good_root(3, 46)
        assert s6.valuation == -1
        assert horner(kernel_poly(3), s6).truncate(40).is_zero()
        for t in (3, 4):
            sol = solve(t, 21)
            table = dp_counts(t, 20, k_max=4)
            for n in range(21):
                assert sol.total.coeff(n) == table.closed_count(n), (t, n)
            for layer in Layer:
                for k in range(5):
                    ser = prefix_series(t, layer, k, 21, sol)
                    for n in range(21):
                        assert ser.coeff(n) == table.count(n, k, layer), (t, layer, k, n)
        rows = compare_with_published(s6, S6_PUBLISHED)
        assert rows, "comparison must be produced"
        divergences = [row for row in rows if not row["matches"]]
        # recorded finding: the published list carries two transcription
        # slips; they are reported, and reporting them is not a failure
        assert {row["exponent"] for row in divergences} == {7, 31}


def test_c10_functional_equations():
    with criterion("C10", "all summed layer equations hold (u-degree 8, z-order 20)"):
        for t, direction in ((2, "LR"), (3, "LR"), (2, "RL")):
            report = verify_functional_equations(t, 8, 20, direction)
            assert report.all_hold, str(report)


def test_c11_rendering():
    with criterion("C11", "12 plain and 19 skew diagrams at length 9, golden structure"):
        plain = render_document(2, 9, mode="plain", fmt="svg")
        skew = render_document(2, 9, mode="skew", fmt="svg")
        assert plain.count('class="diagram"') == 12
        assert skew.count('class="diagram"') == 19
        tikz = render_document(2, 9, mode="skew", fmt="tikz")
        assert tikz.count("\\begin{tikzpicture}") == 19
        assert tikz.count("\\draw[thick,red]") == 8
        # golden structure at length 3 (full document frozen in test_render)
        frozen = render_document(2, 3, mode="skew", fmt="tikz")
        assert "\\draw[thick] (0,0) -- (1,1) -- (2,2) -- (4,0);" in frozen


def test_c12_series_engine_properties():
    with criterion("C12", "newton residuals zero for shipped equations; 100 exact round-trips"):
        shipped = [
            ({2: {1: 1}, 1: {0: -1}, 0: {0: 1}}, 1),  # quadratic demo
            ({4: {6: 1}, 3: {3: -1}, 2: {3: -1}, 1: {0: 2}, 0: {0: -1}}, Fraction(1, 2)),
            ({4: {6: 1}, 3: {3: -2}, 2: {3: 1}, 1: {0: 1}, 0: {0: -1}}, 1),
        ]
        for t in (2, 3, 4):
            shipped.append(
                (
                    {
                        2 * t: {0: 1},
                        2 * t - 1: {0: -1},
                        t: {t + 1: -1},
                        t - 1: {t + 1: 2},
                        0: {2 * t + 2: -1},
                    },
                    1,
                )
            )
        for eq, seed in shipped:
            v = newton_root(eq, seed, 32)
            assert horner(eq, v).truncate(32).is_zero()

        rng = random.Random(1337)
        for _ in range(100):
            val = rng.randint(-3, 3)
            coeffs = [Fraction(rng.randint(1, 5))] + [
                Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(7)
            ]
            a = Series(val, coeffs)
            b = Series(rng.randint(-2, 2), [Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(6)])
            assert (a * a.reciprocal() - 1).is_zero()
            assert a.reciprocal().reciprocal().agrees(a)
            assert (a * b).agrees(b * a)
            square = Series(2 * rng.randint(-1, 1), [Fraction(1)] + coeffs[1:])
            assert (square.sqrt() ** 2 - square).is_zero()
