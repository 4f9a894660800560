"""The verification suite as a library call: what one run computes and checks."""

from fractions import Fraction

import pytest

from skewdyck import automaton, closed_form, kernel, reverse, verify
from skewdyck.cli import main
from skewdyck.verify import run_verification


def test_one_run_expands_r_once(monkeypatch):
    # every R check reads one expansion; each expansion is a square-root solve
    calls = []
    real = closed_form.r_series

    def counted(order):
        calls.append(order)
        return real(order)

    monkeypatch.setattr(closed_form, "r_series", counted)
    report = run_verification(order=16, t_list=(2,))
    assert report.passed
    assert len(calls) == 1


@pytest.mark.parametrize("order", [8, 12])
def test_reflected_residual_compared_on_its_window(monkeypatch, order):
    # the reflected kernel at 1/s1 is known through z^(order - 8):
    # a wrong z^0 term there must fail the line, even at the lowest orders
    real = verify.horner

    def corrupted(poly, v):
        value = real(poly, v)
        if poly is reverse.RECIPROCAL_KERNEL and v.valuation == -2:
            return value + 1
        return value

    monkeypatch.setattr(verify, "horner", corrupted)
    report = run_verification(order=order, t_list=(2,))
    failed = [c for c in report.checks if not c.passed]
    assert [c.name for c in failed] == ["reflected-kernel consistency"]
    assert failed[0].detail == f"reflected kernel(1/s1) = 0 through z^{order - 8}"


@pytest.mark.parametrize(
    "published, exponent, wrong, name, detail",
    [
        (
            kernel.S4_PUBLISHED, 8, -9, "good-root published coefficients t=2",
            "6 published coefficients checked; z^8: computed -8 vs published -9",
        ),
        (
            reverse.S1_PUBLISHED, 5, Fraction(3, 17), "valuation-2 root published coefficients",
            "5 published coefficients checked; z^5: computed 3/16 vs published 3/17",
        ),
    ],
    ids=["s4", "s1"],
)
def test_published_fail_names_the_coefficient(monkeypatch, published, exponent, wrong, name, detail):
    # a strict published comparison that fails says which coefficient
    # differed and both of its values, not only how many it compared
    monkeypatch.setitem(published, exponent, wrong)
    report = run_verification(order=16, t_list=(2,))
    assert [(c.name, c.detail) for c in report.checks if not c.passed] == [(name, detail)]


def test_an_empty_comparison_fails():
    # a comparison with nothing in its window says so and fails, as
    # `_zero_on_window` and `Series.agrees` already do
    assert verify._matches([], "all match", "mismatch at {}") == (
        False, "nothing compared: the window is empty"
    )
    s = kernel.good_root(2, 40)
    assert verify._published_check(s, {}, 40) == (
        False, "nothing compared: no published coefficient below z^40"
    )
    assert verify._published_check(s, kernel.S4_PUBLISHED, -1) == (
        False, "nothing compared: no published coefficient below z^-1"
    )
    assert verify._s6_check(kernel.good_root(3, 40), -1) == (
        False, "nothing compared: no published coefficient below z^-1"
    )
    # one compared value is enough to pass
    assert verify._matches([((0,), 1, 1)], "all match", "mismatch at {}") == (True, "all match")
    assert verify._published_check(s, kernel.S4_PUBLISHED, 0) == (
        True, "1 published coefficients checked"
    )
    assert verify._s6_check(kernel.good_root(3, 40), 0) == (True, "matches the published expansion")


def test_functional_equation_fail_names_the_violation(monkeypatch):
    # one tampered table cell breaks the F equation; the FAIL line says
    # where, as the equation check finds it.  Only the equation check's
    # tables are tampered with: `verify` holds its own `dp_counts` name.
    # Row 9's lowest stored level is 0 at t = 2 (both directions) and 1 at
    # t = 3, where level 0 is off the class nine steps reach.
    real = automaton.dp_counts

    def tampered(*args, **kwargs):
        table = real(*args, **kwargs)
        table._grid[9][1][0] += 1  # row 9's lowest stored G cell
        return table

    monkeypatch.setattr(automaton, "dp_counts", tampered)
    report = run_verification(order=16, t_list=(2, 3))
    assert [(c.name, c.detail) for c in report.checks if not c.passed] == [
        ("functional-equations LR t=2", "layer-F violated at u^1 z^10 term -1"),
        ("functional-equations LR t=3", "layer-F violated at u^2 z^10 term -1"),
        ("functional-equations RL t=2", "layer-F violated at u^3 z^10 term -1"),
    ]


def test_a_check_that_raises_fails_alone(monkeypatch, capsys):
    # a crash inside one check is that check's FAIL, with the error as
    # its detail: the checks after it still run, and verify exits 1
    def broken(n):
        raise ZeroDivisionError("identity exploded")

    monkeypatch.setattr(closed_form, "lagrange_identity_check", broken)
    assert main(["verify", "--order", "16", "--t", "2"]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert [line for line in lines if line.startswith("  FAIL")] == [
        "  FAIL  lagrange identity  [error: identity exploded]"
    ]
    names = [line.split("  ")[2] for line in lines if line.startswith(("  PASS", "  FAIL"))]
    assert names[names.index("lagrange identity") + 1 :] == [
        "R defining quadratic",
        "valuation-2 root published coefficients",
        "reflected-kernel consistency",
        "reflected closed form",
        "mirror consistency",
        "length-15 adjudication",
    ]
    assert lines[-1] == "result: FAIL"
