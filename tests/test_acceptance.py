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

from skewdyck.automaton import dp_counts
from skewdyck.kernel import S4_PUBLISHED, S6_PUBLISHED, good_root, prefix_series, solve
from skewdyck.render import render_document
from skewdyck.reverse import S1_PUBLISHED
from skewdyck.series import Series, horner, newton_root
from skewdyck.verify import run_verification


def coeff(s, n):
    """[z^n] of s as a `Fraction`, read from `Series.window`."""
    (x,), den = s.window(n, n + 1)
    return Fraction(x, den)


@contextmanager
def criterion(tag, description):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {tag}: FAIL - {description}")
        raise
    print(f"ACCEPTANCE {tag}: PASS - {description}")


@pytest.fixture(scope="module")
def verify64():
    # one verify run, timed; its windows contain every window C2-C10 name
    start = time.perf_counter()
    report = run_verification(order=64, t_list=(2, 3, 4))
    return {c.name: c for c in report.checks}, time.perf_counter() - start


def assert_rows(verify64, *rows):
    """Each (name, window text) row of the report passed over that window."""
    checks, _ = verify64
    for name, window in rows:
        assert checks[name].passed and window in checks[name].detail, checks[name]


def test_c01_closed_totals_t2():
    with criterion("C1", "table totals 1,4,19,100 at lengths 3..12, under 1s"):
        start = time.perf_counter()
        table = dp_counts(2, 12, k_max=0)
        got = [table.closed_count(n) for n in (3, 6, 9, 12)]
        elapsed = time.perf_counter() - start
        assert got == [1, 4, 19, 100]
        assert elapsed < 1.0, f"took {elapsed:.2f}s"


def test_c02_kernel_oracle_equivalence_to_60(verify64):
    with criterion("C2", "kernel total equals table totals, lengths <= 60, under 10s"):
        assert_rows(verify64, ("kernel total vs table t=2", "lengths <= 60"))
        _, elapsed = verify64
        assert elapsed < 10.0, f"took {elapsed:.2f}s"


def test_c03_good_root_reproduction(verify64):
    with criterion("C3", "surviving t=2 root matches every published coefficient"):
        window = f"{len(S4_PUBLISHED)} published coefficients checked"
        assert_rows(verify64, ("good-root published coefficients t=2", window))


def test_c04_prefix_series_reproduction(verify64):
    with criterion("C4", "closed-form prefixes equal table counts, k <= 8, n <= 24"):
        assert_rows(verify64, ("prefix closed forms vs table t=2", "k <= 8, n <= 24"))
        # the two expansions called out by name
        sol = solve(2, 40)
        f1 = prefix_series(sol, "F", 1, 25)
        assert (f1 - (sol.g0 + 1).shift(1).truncate(25)).is_zero()
        h0 = prefix_series(sol, "H", 0, 25)
        assert [coeff(h0, e) for e in (6, 9, 12, 15, 18, 21)] == [1, 6, 34, 198, 1191, 7364]


def test_c05_order_four_recurrence(verify64):
    with criterion("C5", "level recurrence exact to order 30, all layers, k <= 6"):
        assert_rows(verify64, ("level recurrence t=2", "order-4 level recurrence holds through z^30, k <= 6"))


def test_c06_closed_form_coefficients(verify64):
    with criterion("C6", "narayana = [z^n]R (n <= 40), printed R values, lagrange (n <= 40)"):
        assert_rows(
            verify64,
            ("narayana vs R", "for n <= 40"),
            ("R published coefficients", "[1, 1, 4, 19, 100, 562, 3304, 20071]"),
            ("lagrange identity", "n <= 40"),
        )


def test_c07_discrepancy_adjudication():
    with criterion("C7", "verify report adjudicates the length-15 count by computation"):
        report = run_verification(order=16, t_list=(2,))
        lines = [c for c in report.checks if c.name == "length-15 adjudication"]
        assert len(lines) == 1
        detail = lines[0].detail
        # the line states the table count and flags the matching printed value
        assert "563" in detail and "562" in detail
        assert "matches the kernel-method value" in detail


def test_c08_right_to_left(verify64):
    with criterion("C8", "published s1 through z^14; rl g0 = LR total to 21; mirrored counts to 30"):
        assert_rows(
            verify64,
            ("valuation-2 root published coefficients", f"{len(S1_PUBLISHED)} published coefficients checked"),
            ("reflected closed form", "equal the LR total through z^63"),
            ("mirror consistency", "lengths <= 30"),
        )


def test_c09_t3_and_general_t(verify64):
    with criterion("C9", "t=3 root residual to order 40; kernel totals and prefixes = table, t=3,4, k <= 4, n <= 20; s6 divergences reported"):
        assert_rows(verify64, ("good-root residual t=3", "zero through z^59"))
        for t in (3, 4):
            assert_rows(
                verify64,
                (f"kernel total vs table t={t}", "lengths <= 60"),
                (f"prefix closed forms vs table t={t}", "k <= 8, n <= 24"),
            )
        # recorded finding: the published list carries two transcription
        # slips; they are reported, and reporting them is not a failure
        s6 = good_root(3, 46)
        assert s6.valuation == -1
        assert {e for e, c in S6_PUBLISHED.items() if coeff(s6, e) != c} == {7, 31}


def test_c10_functional_equations(verify64):
    with criterion("C10", "all summed layer equations hold (u-degree 8, z-order 20)"):
        # a passing equation line has no detail; a failing one names the term
        for direction, t in (("LR", 2), ("LR", 3), ("RL", 2)):
            assert_rows(verify64, (f"functional-equations {direction} t={t}", ""))


def test_c11_rendering():
    with criterion("C11", "12 plain and 19 skew diagrams at length 9, golden structure"):
        plain = "".join(render_document(2, 9, "plain", "red-overlay", False, "svg"))
        skew = "".join(render_document(2, 9, "skew", "red-overlay", False, "svg"))
        assert plain.count('class="diagram"') == 12
        assert skew.count('class="diagram"') == 19
        tikz = "".join(render_document(2, 9, "skew", "red-overlay", False, "tikz"))
        assert tikz.count("\\begin{tikzpicture}") == 19
        assert tikz.count("\\draw[thick,red]") == 8
        # golden structure at length 3 (full document frozen in test_render)
        frozen = "".join(render_document(2, 3, "skew", "red-overlay", False, "tikz"))
        assert "\\draw[thick] (0,0) -- (1,1) -- (2,2) -- (4,0);" in frozen


def test_c12_series_engine_properties():
    with criterion("C12", "newton residuals zero for shipped equations; 100 exact round-trips"):
        shipped = [
            ({2: {1: 1}, 1: {0: -1}, 0: {0: 1}}, 1),  # quadratic demo
            ({4: {6: 1}, 3: {3: -1}, 2: {3: -1}, 1: {0: 2}, 0: {0: -1}}, (1, 2)),
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
            coeffs = [rng.randint(1, 5)] + [(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(7)]
            a = Series(val, coeffs)
            b = Series(rng.randint(-2, 2), [(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(6)])
            assert (a * a.reciprocal() - 1).is_zero()
            assert a.reciprocal().reciprocal().agrees(a)
            assert (a * b).agrees(b * a)
            square = Series(2 * rng.randint(-1, 1), [1] + coeffs[1:])
            assert (square.sqrt() ** 2 - square).is_zero()
