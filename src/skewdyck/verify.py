"""The full cross-validation suite behind the `verify` command.

Every closed form is measured against the exhaustive enumerator or the
counting table; every root is measured against its kernel; and the one
place the literature disagrees with itself (the length-15 count) gets a
single adjudication line computed fresh on every run.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from . import closed_form, kernel, reverse
from .automaton import Layer, dp_counts, verify_functional_equations
from .paths import Step, enumerate_words
from .series import Series, horner


class CheckResult(NamedTuple):
    name: str
    passed: bool
    detail: str = ""


class VerificationReport:
    """The checks of one run, in order, and the notes on what was reduced."""

    def __init__(self, order: int, t_list: tuple[int, ...]):
        self.order = order
        self.t_list = t_list
        self.checks: list[CheckResult] = []
        self.notes: list[str] = []

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_text(self) -> str:
        lines = [f"verification (order={self.order}, t={','.join(map(str, self.t_list))})"]
        for c in self.checks:
            status = "PASS" if c.passed else "FAIL"
            detail = f"  [{c.detail}]" if c.detail else ""
            lines.append(f"  {status}  {c.name}{detail}")
        for note in self.notes:
            lines.append(f"  note: {note}")
        lines.append(f"result: {'PASS' if self.passed else 'FAIL'}")
        return "\n".join(lines)

    def to_json(self) -> str:
        import json  # only the JSON format pays for it

        return json.dumps(
            {
                "order": self.order,
                "t_list": list(self.t_list),
                "passed": self.passed,
                "checks": [
                    {"name": c.name, "passed": c.passed, "detail": c.detail}
                    for c in self.checks
                ],
                "notes": self.notes,
            },
            indent=2,
        )


def _word_layer(word) -> Layer:
    if not word.steps:
        return Layer.F
    last = word.steps[-1]
    return {Step.U: Layer.F, Step.D: Layer.G, Step.L: Layer.H}[last]


def _zero_on_window(series: Series, claim: str) -> tuple[bool, str]:
    """A series that must vanish, checked on the window it is known on.

    A window that stops below z^0 compares no coefficient of a power
    series, so it fails rather than passing on nothing.
    """
    if series.frontier <= 0:
        return False, f"nothing compared: known only below z^{series.frontier}"
    return series.is_zero(), f"{claim} through z^{series.frontier - 1}"


def run_verification(order: int = 64, t_list: tuple[int, ...] = (2, 3)) -> VerificationReport:
    """Run every suite at the given series order.

    Orders below 32 shrink some comparison windows; the report says so
    in a note rather than silently testing less.
    """
    if order < 8:
        raise ValueError("order must be >= 8")
    t_list = tuple(dict.fromkeys(t_list))  # each t once, first-seen order
    report = VerificationReport(order=order, t_list=t_list)
    add = report.checks.append

    def guard(name: str, fn) -> None:
        try:
            ok, detail = fn()
        except Exception as exc:  # a crash is a failure, not a stop
            ok, detail = False, f"error: {exc}"
        add(CheckResult(name, ok, detail))

    if order < 32:
        report.notes.append(
            f"order {order} < 32: comparison windows are reduced accordingly"
        )

    # enumeration vs table, closed counts and per-cell, small lengths
    for t in t_list:
        def enum_check(t=t):
            n_hi = min(12, order - 1)
            table = dp_counts(t, n_hi)
            for n in range(n_hi + 1):
                words = enumerate_words(t, n, closed_only=False)
                cells: dict[tuple[int, Layer], int] = {}
                for w in words:
                    key = (w.final_level(), _word_layer(w))
                    cells[key] = cells.get(key, 0) + 1
                for k in range(n + 1):
                    for layer in Layer:
                        if table.count(n, k, layer) != cells.get((k, layer), 0):
                            return False, f"cell mismatch at n={n}, k={k}, {layer.value}"
            return True, f"all cells match exhaustive enumeration, n <= {n_hi}"
        guard(f"enumeration-vs-table t={t}", enum_check)

    # functional equations
    z_ord = min(20, order - 1)
    for t in t_list:
        guard(
            f"functional-equations LR t={t}",
            lambda t=t: (verify_functional_equations(t, 8, z_ord, "LR").all_hold, ""),
        )
    guard(
        "functional-equations RL t=2",
        lambda: (verify_functional_equations(2, 8, z_ord, "RL").all_hold, ""),
    )

    # kernel roots: residuals and published expansions.  t = 2 is always
    # solved: the right-to-left checks and the length-15 line use it.
    solutions = {t: kernel.solve(t, order) for t in sorted(set(t_list) | {2})}
    for t, sol in solutions.items():
        def residual_check(t=t, s=sol.s):
            # s^(2t) leaves the residual 2t - 2 terms short of s: solve
            # further if that would leave fewer than ten from z^0 on
            if s.frontier < 2 * t + 8:
                s = kernel.good_root(t, 2 * t + 8)
            return _zero_on_window(horner(kernel.kernel_poly(t), s), "zero")
        guard(f"good-root residual t={t}", residual_check)

    def s4_check():
        window = {e: c for e, c in kernel.S4_PUBLISHED.items() if e < order}
        rows = kernel.compare_with_published(solutions[2].s, window)
        bad = [r for r in rows if not r["matches"]]
        return not bad, f"{len(rows)} published coefficients checked"
    guard("good-root published coefficients t=2", s4_check)

    if 3 in t_list:
        def s6_check():
            window = {e: c for e, c in kernel.S6_PUBLISHED.items() if e < order}
            rows = kernel.compare_with_published(solutions[3].s, window)
            diverging = [
                f"z^{r['exponent']}: computed {r['computed']} vs published {r['published']}"
                for r in rows
                if not r["matches"]
            ]
            detail = (
                "matches the published expansion"
                if not diverging
                else "published-value divergences (reported, not failures): "
                + "; ".join(diverging)
            )
            return True, detail
        guard("good-root published comparison t=3", s6_check)

    # each kernel solution against the table, and against the H equation
    for t, sol in solutions.items():
        def totals_check(sol=sol):
            n_hi = min(60, sol.total.frontier - 1)
            table = dp_counts(sol.t, n_hi, k_max=0)
            for n in range(n_hi + 1):
                if sol.total.coeff(n) != table.closed_count(n):
                    return False, f"first mismatch at length {n}"
            return True, f"exact match for all lengths <= {n_hi}"
        guard(f"kernel total vs table t={t}", totals_check)

        def identity_check(sol=sol):
            # h0 s^t = z (g0 + h0), divided by s^t so that no term is lost
            rhs = (sol.g0 + sol.h0).shift(1) * sol.s_inv**sol.t
            return _zero_on_window(sol.h0 - rhs, f"h0 s^{sol.t} = z(g0 + h0)")
        guard(f"internal identity t={t}", identity_check)

        def prefix_check(sol=sol):
            n_hi = max(4, min(24, order - 12))
            k_hi = 8
            table = dp_counts(sol.t, n_hi, k_max=k_hi)
            for layer in Layer:
                for k in range(k_hi + 1):
                    ser = kernel.prefix_series(sol.t, layer, k, n_hi + 1, sol)
                    for n in range(n_hi + 1):
                        if ser.coeff(n) != table.count(n, k, layer):
                            return False, f"{layer.value}_{k} differs at z^{n}"
            return True, f"closed forms match the table for k <= {k_hi}, n <= {n_hi}"
        guard(f"prefix closed forms vs table t={t}", prefix_check)

        def recurrence_all(sol=sol):
            ord_rec = max(2, min(30, order - 13))
            k_hi = 6
            for layer in Layer:
                if not kernel.recurrence_check(sol, layer, k_hi, ord_rec).all_hold:
                    return False, f"layer {layer.value}"
            return True, (
                f"order-{2 * sol.t} level recurrence holds through z^{ord_rec}, k <= {k_hi}"
            )
        guard(f"level recurrence t={t}", recurrence_all)

    # coefficient formulas
    def narayana_check():
        r = closed_form.r_series(41)
        for n in range(1, 41):
            if Fraction(closed_form.narayana_sum(n)) != r.coeff(n):
                return False, f"n={n}"
        return True, "narayana sum equals [z^n] R for n <= 40"
    guard("narayana vs R", narayana_check)

    def r_published_check():
        expected = [1, 1, 4, 19, 100, 562, 3304, 20071]
        got = [closed_form.r_coefficient(n) for n in range(8)]
        return got == expected, f"first coefficients {got}"
    guard("R published coefficients", r_published_check)

    guard(
        "lagrange identity",
        lambda: (
            all(closed_form.lagrange_identity_check(n) for n in range(1, 41)),
            "n <= 40",
        ),
    )

    def r_quadratic_check():
        r = closed_form.r_series(order)
        lhs = (r.shift(1) * 6 - 1 - Series.poly({1: 2}, order + 2)) ** 2
        rhs = Series.poly({0: 1, 1: -8, 2: 4}, order + 2)
        return (lhs - rhs).truncate(order).is_zero(), "(6zR - 1 - 2z)^2 = 1 - 8z + 4z^2"
    guard("R defining quadratic", r_quadratic_check)

    # right-to-left route
    rl = reverse.solve_rl(order)
    def s1_check():
        window = {e: c for e, c in reverse.S1_PUBLISHED.items() if e < order}
        rows = kernel.compare_with_published(rl.s1, window)
        bad = [r for r in rows if not r["matches"]]
        return not bad, f"{len(rows)} published coefficients checked"
    guard("valuation-2 root published coefficients", s1_check)

    def rl_root_checks():
        w = order - 6
        quartic_ok = horner(kernel.kernel_poly(2), rl.s1).truncate(w).is_zero()
        reflected_ok = horner(reverse.RECIPROCAL_KERNEL, rl.t1).truncate(w).is_zero()
        recip_ok = (
            horner(reverse.RECIPROCAL_KERNEL, rl.s1.reciprocal())
            .truncate(order - 12)
            .is_zero()
        )
        inverse_ok = (rl.t1 * solutions[2].s - 1).truncate(order - 2).is_zero()
        return (
            quartic_ok and reflected_ok and recip_ok and inverse_ok,
            "roots satisfy both kernels; t1 inverts the surviving root",
        )
    guard("reflected-kernel consistency", rl_root_checks)

    total = solutions[2].total
    def rl_g0_check():
        hi = min(order, total.frontier, rl.g0.frontier)
        forms_ok = rl.g0.agrees(reverse.rl_g0_rational(order), upto=hi)
        total_ok = rl.g0.agrees(total, upto=hi)
        return forms_ok and total_ok, f"both forms equal the LR total through z^{hi - 1}"
    guard("reflected closed form", rl_g0_check)

    def mirror_check():
        n_hi = 30
        lr = dp_counts(2, n_hi, k_max=0)
        rlt = dp_counts(2, n_hi, k_max=0, direction="RL")
        for n in range(n_hi + 1):
            if lr.closed_count(n) != rlt.closed_count(n):
                return False, f"first mismatch at length {n}"
        return True, f"table totals agree both directions, lengths <= {n_hi}"
    guard("mirror consistency", mirror_check)

    # the single adjudication line for the diverging length-15 value
    def adjudication():
        dp15 = dp_counts(2, 15, k_max=0).closed_count(15)
        r5 = closed_form.r_coefficient(5)
        total15 = total if total.frontier > 15 else kernel.solve(2, 16).total
        k15 = total15.coeff(15)
        if k15.denominator != 1:
            raise ValueError(f"kernel total has non-integer z^15 coefficient {k15}")
        k15 = k15.numerator
        sides = []
        if dp15 == k15:
            sides.append(f"kernel-method value {k15}")
        if dp15 == r5:
            sides.append(f"closed-form R value {r5}")
        matched = " and ".join(sides) if sides else "neither published value"
        return True, (
            f"table count of closed length-15 words is {dp15}; it matches the "
            f"{matched} (kernel series gives {k15}, R gives {r5})"
        )
    guard("length-15 adjudication", adjudication)

    return report
