"""The verification suite as a library call: what one run computes and checks."""

import pytest

from skewdyck import automaton, closed_form, kernel, paths, reverse, verify
from skewdyck.cli import main
from skewdyck.paths import Step
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


@pytest.mark.parametrize(
    "order,t_list,built",
    [
        (48, (2, 3, 4), [(2, "LR"), (3, "LR"), (4, "LR"), (2, "RL")]),
        (64, (2,), [(2, "LR"), (2, "RL")]),
        (96, (2, 3), [(2, "LR"), (3, "LR"), (2, "RL")]),
    ],
)
def test_one_run_builds_one_table_per_t_and_direction(monkeypatch, order, t_list, built):
    # every table row reads the run's one table for its t and direction,
    # so a cell is the same in every row, and no row builds its own
    calls = []
    real = verify.dp_counts

    def counted(t, n_max, k_max=None, direction="LR"):
        calls.append((t, direction))
        return real(t, n_max, k_max, direction)

    monkeypatch.setattr(verify, "dp_counts", counted)
    monkeypatch.setattr(automaton, "dp_counts", counted)
    report = run_verification(order=order, t_list=t_list)
    assert report.passed
    assert calls == built


@pytest.mark.parametrize("order,t_list", [(48, (2, 3, 4)), (64, (2,)), (96, (2, 3))])
def test_one_run_walks_the_words_once_per_t(monkeypatch, order, t_list):
    # the enumeration row of each t reads one walk of the tree of words,
    # every length at once, and no row builds a DAG of closed words
    walked, built = [], []
    real, real_words = paths.prefix_ends, paths.words

    def counted(t, n_max):
        walked.append(t)
        return real(t, n_max)

    def recorded(*args, **kwargs):
        built.append(args)
        return real_words(*args, **kwargs)

    monkeypatch.setattr(verify, "prefix_ends", counted)
    monkeypatch.setattr(paths, "prefix_ends", counted)
    monkeypatch.setattr(paths, "words", recorded)
    report = run_verification(order=order, t_list=t_list)
    assert report.passed
    assert walked == list(t_list)
    assert built == []


def test_a_word_rule_dropped_from_the_walk_fails_the_enumeration(monkeypatch):
    # allow UL in the walk's rule table: UUL (t = 2) and UUUL (t = 3) close
    # in layer H, where the table counts nothing, and only the enumeration
    # rows fail
    monkeypatch.setitem(paths._FOLLOW, Step.U, (Step.U, Step.D, Step.L))
    report = run_verification(order=64, t_list=(2, 3))
    assert [(c.name, c.detail) for c in report.checks if not c.passed] == [
        ("enumeration-vs-table t=2", "cell mismatch at n=3, k=0, H"),
        ("enumeration-vs-table t=3", "cell mismatch at n=4, k=0, H"),
    ]


def test_a_bumped_cell_fails_the_enumeration(monkeypatch):
    # one cell of the t = 2 table inside the enumeration window (n = 12,
    # level 3, layer G) fails that row at that cell; the t = 3 row passes
    real = verify.dp_counts

    def tampered(t, n_max, k_max=None, direction="LR"):
        table = real(t, n_max, k_max, direction)
        if (t, direction) == (2, "LR"):
            table._grid[12][1][1] += 1  # row 12 stores levels 0, 3, 6, ...
        return table

    monkeypatch.setattr(verify, "dp_counts", tampered)
    report = run_verification(order=64, t_list=(2, 3))
    rows = {c.name: (c.passed, c.detail) for c in report.checks}
    assert rows["enumeration-vs-table t=2"] == (False, "cell mismatch at n=12, k=3, G")
    assert rows["enumeration-vs-table t=3"][0]


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
            reverse.S1_PUBLISHED, 5, (3, 17), "valuation-2 root published coefficients",
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


def _halve_total(monkeypatch):
    real = kernel.solve

    def halved(t, order):
        sol = real(t, order)
        return sol._replace(total=sol.total / 2) if t == 2 else sol

    monkeypatch.setattr(kernel, "solve", halved)


def _halve_prefix(monkeypatch):
    real = kernel.prefix_series

    def halved(sol, layer, k, order):
        series = real(sol, layer, k, order)
        return series / 2 if (sol.t, layer, k) == (2, "F", 2) else series

    monkeypatch.setattr(kernel, "prefix_series", halved)


def _halve_r(monkeypatch):
    real = closed_form.r_series
    monkeypatch.setattr(closed_form, "r_series", lambda order: real(order) / 2)


@pytest.mark.parametrize(
    "halve, failed",
    [
        (_halve_total, [
            ("kernel total vs table t=2", "first mismatch at length 0"),
            ("reflected closed form", "both forms equal the LR total through z^15"),
            ("length-15 adjudication", "error: kernel total has non-integer z^15 coefficient 563/2"),
        ]),
        (_halve_prefix, [
            ("prefix closed forms vs table t=2", "F_2 differs at z^2"),
        ]),
        (_halve_r, [
            ("narayana vs R", "n=1"),
            ("R published coefficients", "error: R has non-integer z^0 coefficient 1/2"),
            ("R defining quadratic", "(6zR - 1 - 2z)^2 = 1 - 8z + 4z^2"),
        ]),
    ],
    ids=["total", "prefix", "R"],
)
def test_a_halved_series_fails_at_its_first_coefficient(monkeypatch, halve, failed):
    # halving keeps every stored numerator and makes the denominator 2,
    # so a comparison that read the numerators without the denominator
    # would pass; each compared series must fail where it first differs
    halve(monkeypatch)
    report = run_verification(order=16, t_list=(2,))
    assert [(c.name, c.detail) for c in report.checks if not c.passed] == failed


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
    # one tampered cell in every table of the run fails every row that
    # reads it, and the equation rows say where, as the equation check
    # finds it.  Row 9's lowest stored level is 0 at t = 2 (both
    # directions) and 1 at t = 3, where level 0 is off the class nine
    # steps reach, so the t = 3 total is untouched.  The prefix and
    # recurrence rows stop below n = 9 at order 16.  `mirror consistency`
    # still passes: the bump raises the LR and RL totals at length 9 by
    # the same 1.
    real = verify.dp_counts

    def tampered(*args, **kwargs):
        table = real(*args, **kwargs)
        table._grid[9][1][0] += 1  # row 9's lowest stored G cell
        return table

    monkeypatch.setattr(verify, "dp_counts", tampered)
    report = run_verification(order=16, t_list=(2, 3))
    assert [(c.name, c.detail) for c in report.checks if not c.passed] == [
        ("enumeration-vs-table t=2", "cell mismatch at n=9, k=0, G"),
        ("enumeration-vs-table t=3", "cell mismatch at n=9, k=1, G"),
        ("functional-equations LR t=2", "layer-F violated at u^1 z^10 term -1"),
        ("functional-equations LR t=3", "layer-F violated at u^2 z^10 term -1"),
        ("functional-equations RL t=2", "layer-F violated at u^3 z^10 term -1"),
        ("kernel total vs table t=2", "first mismatch at length 9"),
    ]


def test_a_table_cell_past_the_prefix_window_fails_the_recurrence(monkeypatch):
    # level 10 is above every other row's table window (the prefix row
    # stops at k = 8); the level recurrence reads the n = 19 cell at u^10
    # through the kernel's -z^3 term, at z^22, so from order 35 on, and
    # only that row fails
    real = verify.dp_counts

    def tampered(t, n_max, k_max=None, direction="LR"):
        table = real(t, n_max, k_max, direction)
        if t == 2 and n_max >= 19 and table.k_max >= 10:
            table._grid[19][0][3] += 1  # row 19 stores levels 1, 4, 7, 10, ...
        return table

    monkeypatch.setattr(verify, "dp_counts", tampered)
    report = run_verification(order=40, t_list=(2,))
    assert [(c.name, c.detail) for c in report.checks if not c.passed] == [
        ("level recurrence t=2", "layer F"),
    ]


def test_a_wrong_kernel_coefficient_fails_the_recurrence(monkeypatch):
    # the row compares the table with `kernel_poly` itself: one changed
    # coefficient (2z u^(t-1) read as 3z u^(t-1)) fails it
    real = kernel.kernel_poly

    def changed(t):
        poly = real(t)
        poly[t - 1] = {1: 3}
        return poly

    table = automaton.dp_counts(2, 20, k_max=10)
    assert verify._recurrence_check(table, 2, 20)[0]
    monkeypatch.setattr(kernel, "kernel_poly", changed)
    assert verify._recurrence_check(table, 2, 20) == (False, "layer F")


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


@pytest.mark.parametrize(
    "order, t_list, message", [(16, (), "t_list must hold at least one t"), (7, (2,), "order must be >= 8")]
)
def test_a_run_that_would_check_nothing_is_refused(order, t_list, message):
    # with no t, no enumeration or left-to-right layer-equation row would
    # run, and the rows left would pass a run that checked neither
    with pytest.raises(ValueError, match=f"^{message}$"):
        run_verification(order, t_list)
