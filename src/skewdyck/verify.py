"""The full cross-validation suite behind the `verify` command.

Every closed form is measured against the exhaustive enumerator or the
counting table; every root is measured against its kernel, and the
table's level columns against the paper's layer equations and the
kernel polynomial itself; and the one place the literature disagrees
with itself (the length-15 count) gets a single adjudication line
computed fresh on every run.

The route modules only compute; this module holds every relation they
are measured against.  The layer equations (`_equations`) are written
here from the paper, not from the table's edge list, and one integer
evaluator, `first_violation`, runs a linear relation on the table's
columns for both of its callers: the layer equations
(`_equations_check`) and the kernel's level recurrence
(`_recurrence_check`).

The suite is one ordered table of checks (`_checks`): a name, a check
function and its arguments per row, each run by one loop into a result.
The kernel solutions, one counting table per t and direction, R and the
right-to-left series are computed once per run, in `_checks`, and each
is handed to every row that reads it; a row reads its own window of it.
The enumeration row tallies one depth-first walk per t over every word of
length <= 12 (`paths.prefix_ends`) by length, level and layer.

Every coefficient is compared as an exact integer: a series hands out a
run of integer numerators over its common denominator (`Series.window`),
and a numerator x matches an integer c exactly when x == den * c.  A
published value (an int or an integer pair) is read by `series._ratio`,
and each value a detail string names is written by `series._ratio_text`.
"""

from __future__ import annotations

from collections import Counter
from typing import NamedTuple

from . import closed_form, kernel, reverse
from .automaton import LAYERS, CountTable, dp_counts
from .paths import Step, prefix_ends
from .series import Series, _ratio, _ratio_text, horner

Verdict = tuple[bool, str]


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
            detail = f"  [{c.detail}]" if c.detail else ""
            lines.append(f"  {'PASS' if c.passed else 'FAIL'}  {c.name}{detail}")
        lines += [f"  note: {note}" for note in self.notes]
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


def run_verification(order: int, t_list: tuple[int, ...]) -> VerificationReport:
    """Run every check of the suite at the given series order.

    Orders below 32 shrink some comparison windows; the report says so
    in a note rather than silently testing less.  A check that raises
    fails with the error as its detail, and the later checks still run.
    """
    if order < 8:
        raise ValueError("order must be >= 8")
    if not t_list:
        raise ValueError("t_list must hold at least one t")
    t_list = tuple(dict.fromkeys(t_list))  # each t once, first-seen order
    report = VerificationReport(order=order, t_list=t_list)
    if order < 32:
        report.notes.append(f"order {order} < 32: comparison windows are reduced accordingly")
    for name, check, *args in _checks(order, t_list):
        try:
            ok, detail = check(*args)
        except Exception as exc:  # a crash is a failure, not a stop
            ok, detail = False, f"error: {exc}"
        report.checks.append(CheckResult(name, ok, detail))
    return report


def _checks(order: int, t_list: tuple[int, ...]) -> list[tuple]:
    """Every check of one run, in report order, as (name, check, *arguments).

    The kernel solutions (t = 2 always: the right-to-left and length-15
    checks read it), one counting table per t and direction, the one
    expansion of R and the three right-to-left series (the cancelling
    root t1, the closed total g0 built from it, and the valuation-2 root
    s1) are computed here, once, and passed to the checks."""
    sols = {t: kernel.solve(t, order) for t in sorted(set(t_list) | {2})}
    lr, z_ord, ord_rec = sols[2], min(20, order - 1), max(2, min(30, order - 13))
    n_enum, n_prefix = min(12, order - 1), max(4, min(24, order - 12))
    # a table is as wide as its widest reader: lengths n <= min(60, order - 1)
    # (totals) and n <= 30 (mirror); levels k <= 12 (enumeration), k <= 2t + 6
    # (recurrence) and k <= 8 (equations, prefixes)
    tables = {t: dp_counts(t, max(min(60, order - 1), 30), max(12, 2 * t + 6)) for t in sols}
    rl_table = dp_counts(2, 30, 8, "RL")
    r = closed_form.r_series(max(order, 41))
    t1 = reverse.rl_cancelling_root(order + 2)  # two terms further: g0 keeps the window
    g0, t1 = reverse.rl_g0(order, t1=t1), t1.truncate(order)
    s1 = reverse.rl_root_s1(order)
    s6 = [("good-root published comparison t=3", _s6_check, sols[3].s, order)] if 3 in sols else []
    return [
        *((f"enumeration-vs-table t={t}", _enumeration_check, tables[t], t, n_enum) for t in t_list),
        *((f"functional-equations LR t={t}", _equations_check, tables[t], t, "LR", z_ord)
          for t in t_list),
        ("functional-equations RL t=2", _equations_check, rl_table, 2, "RL", z_ord),
        *((f"good-root residual t={t}", _residual_check, sol) for t, sol in sols.items()),
        ("good-root published coefficients t=2", _published_check, lr.s, kernel.S4_PUBLISHED, order),
        *s6,
        *(row for t, sol in sols.items() for row in (
            (f"kernel total vs table t={t}", _totals_check, tables[t], sol),
            (f"internal identity t={t}", _identity_check, sol),
            (f"prefix closed forms vs table t={t}", _prefix_check, tables[t], sol, n_prefix),
            (f"level recurrence t={t}", _recurrence_check, tables[t], t, ord_rec),
        )),
        ("narayana vs R", _narayana_check, r),
        ("R published coefficients", _r_published_check, r),
        ("lagrange identity", _lagrange_check),
        ("R defining quadratic", _r_quadratic_check, r, order),
        ("valuation-2 root published coefficients", _published_check, s1, reverse.S1_PUBLISHED, order),
        ("reflected-kernel consistency", _reflected_roots_check, s1, t1, lr.s),
        ("reflected closed form", _reflected_g0_check, g0, t1, lr.total, order),
        ("mirror consistency", _mirror_check, tables[2], rl_table, 30),
        ("length-15 adjudication", _adjudication, tables[2], r, lr.total),
    ]


def _matches(triples, passed: str, mismatch: str) -> Verdict:
    """Compare (key, left, right) triples in order: PASS with ``passed``, or
    FAIL at the first pair that differs, with its key filled into ``mismatch``.
    With no triple at all, nothing is compared, and that fails."""
    compared = False
    for key, left, right in triples:
        if left != right:
            return False, mismatch.format(*key)
        compared = True
    return (True, passed) if compared else (False, "nothing compared: the window is empty")


def _zero_on_window(series: Series, claim: str) -> Verdict:
    """A series that must vanish, checked on the window it is known on; a
    window that stops below z^0 compares nothing, so it fails."""
    if series.frontier <= 0:
        return False, f"nothing compared: known only below z^{series.frontier}"
    return series.is_zero(), f"{claim} through z^{series.frontier - 1}"


def _published_divergences(computed: Series, published: dict, order: int) -> tuple[int, list[str]]:
    """How many published coefficients below z^order were compared, and
    each one ``computed`` differs from, named with both values."""
    window = sorted(e for e in published if e < order)
    diverging = []
    for e in window:
        (x,), den = computed.window(e, e + 1)
        p, q = _ratio(published[e])
        if x * q != p * den:
            diverging.append(f"z^{e}: computed {_ratio_text(x, den)} vs published {_ratio_text(p, q)}")
    return len(window), diverging


def _published_check(computed: Series, published: dict, order: int) -> Verdict:
    """A strict published comparison; a FAIL names each differing coefficient,
    and a window that holds no published coefficient fails."""
    checked, diverging = _published_divergences(computed, published, order)
    if not checked:
        return False, f"nothing compared: no published coefficient below z^{order}"
    return not diverging, "; ".join([f"{checked} published coefficients checked", *diverging])


# the layer a word ends in, read off its last step; the empty word is in F
_LAST_STEP_LAYER = {None: "F", Step.U: "F", Step.D: "G", Step.L: "H"}


def _enumeration_check(table: CountTable, t: int, n_hi: int) -> Verdict:
    cells = Counter((n, k, _LAST_STEP_LAYER[last]) for n, k, last in prefix_ends(t, n_hi))
    return _matches(
        (
            ((n, k, layer), table.count(n, k, layer), cells[n, k, layer])
            for n in range(n_hi + 1)
            for k in range(n + 1)
            for layer in LAYERS
        ),
        f"all cells match exhaustive enumeration, n <= {n_hi}", "cell mismatch at n={}, k={}, {}",
    )


# -- the layer equations and the level recurrence ----------------------------
#
# The layer generating functions F(u), G(u), H(u) (coefficient of u^k is
# the level-k column) satisfy, left to right for general t:
#
#     F - 1   = u z (F + G)
#     u^t G   = z (F - lowF) + z (G - lowG) + z (H - lowH)
#     u^t H   = z (G - lowG) + z (H - lowH)
#
# where lowX drops the terms below u^t.  Right to left (t = 2):
#
#     u (F - u f1)        = u^3 z G + z (F - u f1 - u^2 f2)
#     u (G - g0 - u g1)   = z (F - u f1 - u^2 f2) + u^3 z G + u^3 z H
#     H - 1               = u^2 z G + u^2 z H
#
# Each equation is written below as left side minus right side: a
# constant at u^0 and terms (coefficient, layer, u-shift, z-shift,
# dropped levels), so (-1, F, 0, 1, (1, 2)) is -z (F - u f1 - u^2 f2).
# The tables come from the equations above, not from the edge list, so
# the check stays independent of the table it checks.  `first_violation`
# evaluates such a relation through its caller's z-bound, and it has two
# callers: `_equations_check`, the layer equations from u^0, and
# `_recurrence_check`, which hands it the kernel polynomial's terms from
# u^(2t), where level 0 is checked; both read the table they are handed.


def _equations(t: int, direction: str) -> tuple:
    """(name, constant, terms) for each layer equation of a scan direction."""
    F, G, H = LAYERS
    if direction == "LR":
        low = tuple(range(t))  # lowX: the levels below t
        return (
            ("layer-F", -1, ((1, F, 0, 0, ()), (-1, F, 1, 1, ()), (-1, G, 1, 1, ()))),
            ("layer-G", 0, (
                (1, G, t, 0, ()), (-1, F, 0, 1, low), (-1, G, 0, 1, low), (-1, H, 0, 1, low),
            )),
            ("layer-H", 0, ((1, H, t, 0, ()), (-1, G, 0, 1, low), (-1, H, 0, 1, low))),
        )
    if t != 2:
        raise ValueError("right-to-left equations are only established for t=2")
    return (
        ("layer-F", 0, ((1, F, 1, 0, (1,)), (-1, G, 3, 1, ()), (-1, F, 0, 1, (1, 2)))),
        ("layer-G", 0, (
            (1, G, 1, 0, (0, 1)), (-1, F, 0, 1, (1, 2)), (-1, G, 3, 1, ()), (-1, H, 3, 1, ()),
        )),
        ("layer-H", -1, ((1, H, 0, 0, ()), (-1, G, 2, 1, ()), (-1, H, 2, 1, ()))),
    )


def first_violation(table: CountTable, constant: int, terms: tuple, lo: int, hi: int, z_hi: int) -> str:
    """"u^j z^e term r" for the first nonzero residual coefficient of one
    linear relation on the table's columns, u^j from ``lo`` to ``hi`` and
    then z^e up to ``z_hi``, or "".  A term (c, layer, du, dz, dropped)
    adds c times the integer cell at n = e - dz, k = j - du, unless k is
    dropped; the u^j residual is built over every z^e at once from the
    table's columns, each read through length z_hi.  Its callers:
    `_equations_check` (the layer equations, from u^0) and
    `_recurrence_check` (the kernel's terms c z^e u^p, from u^(2t), where
    level 0 is checked)."""
    if z_hi > table.n_max:
        raise ValueError(f"z^{z_hi} is past the table's lengths (n<={table.n_max})")
    columns = {}  # (level, layer): each column is read once per call
    for j in range(lo, hi + 1):
        resid = [0] * (z_hi + 1)
        if j == 0:
            resid[0] = constant
        for c, layer, du, dz, dropped in terms:
            if j >= du and j - du not in dropped:
                column = columns.get((j - du, layer))
                if column is None:
                    column = columns[j - du, layer] = table.column(j - du, layer, z_hi + 1)
                resid[dz:] = [r + c * x for r, x in zip(resid[dz:], column)]
        for e, r in enumerate(resid):
            if r:
                return f"u^{j} z^{e} term {r}"
    return ""


def _equations_check(table: CountTable, t: int, direction: str, z_ord: int) -> Verdict:
    # u^0..u^8 through z^z_ord: coefficients above u^8 are truncation
    # artifacts of the finite u-window; the first violated term fails
    for name, constant, terms in _equations(t, direction):
        if where := first_violation(table, constant, terms, 0, 8, z_ord):
            return False, f"{name} violated at {where}"
    return True, ""


def _recurrence_check(table: CountTable, t: int, ord_rec: int) -> Verdict:
    # the residual at level k is the u^(k + 2t) coefficient of K_t times
    # the layer's column sum: each term c z^e u^p reads level k + 2t - p
    k_hi, depth = 6, 2 * t
    poly = kernel.kernel_poly(t)
    for layer in LAYERS:
        terms = tuple((c, layer, p, e, ()) for p, zp in poly.items() for e, c in zp.items())
        if first_violation(table, 0, terms, depth, depth + k_hi, ord_rec):
            return False, f"layer {layer}"
    return True, f"order-{depth} level recurrence holds through z^{ord_rec}, k <= {k_hi}"


def _residual_check(sol: kernel.KernelSolution) -> Verdict:
    # s^(2t) leaves the residual 2t - 2 terms short of s: solve further
    # if that would leave fewer than ten from z^0 on
    t, s = sol.t, sol.s
    if s.frontier < 2 * t + 8:
        s = kernel.good_root(t, 2 * t + 8)
    return _zero_on_window(horner(kernel.kernel_poly(t), s), "zero")


def _s6_check(s: Series, order: int) -> Verdict:
    """The t = 3 published comparison: divergences are reported, not
    failures, but a window that holds no published coefficient fails."""
    checked, diverging = _published_divergences(s, kernel.S6_PUBLISHED, order)
    if not checked:
        return False, f"nothing compared: no published coefficient below z^{order}"
    if not diverging:
        return True, "matches the published expansion"
    return True, "published-value divergences (reported, not failures): " + "; ".join(diverging)


def _totals_check(table: CountTable, sol: kernel.KernelSolution) -> Verdict:
    n_hi = min(60, sol.total.frontier - 1)
    nums, den = sol.total.window(0, n_hi + 1)
    return _matches(
        (((n,), x, den * table.closed_count(n)) for n, x in enumerate(nums)),
        f"exact match for all lengths <= {n_hi}", "first mismatch at length {}",
    )


def _identity_check(sol: kernel.KernelSolution) -> Verdict:
    # h0 s^t = z (g0 + h0), divided by s^t so that no term is lost
    rhs = (sol.g0 + sol.h0).shift(1) * sol.s_inv_power(sol.t)
    return _zero_on_window(sol.h0 - rhs, f"h0 s^{sol.t} = z(g0 + h0)")


def _prefix_check(table: CountTable, sol: kernel.KernelSolution, n_hi: int) -> Verdict:
    k_hi = 8
    return _matches(
        (
            ((layer, k, n), x, den * c)
            for layer in LAYERS
            for k in range(k_hi + 1)
            # one series per column, compared with the table column through n_hi
            for nums, den in (kernel.prefix_series(sol, layer, k, n_hi + 1).window(0, n_hi + 1),)
            for n, (x, c) in enumerate(zip(nums, table.column(k, layer, n_hi + 1)))
        ),
        f"closed forms match the table for k <= {k_hi}, n <= {n_hi}", "{}_{} differs at z^{}",
    )


def _narayana_check(r: Series) -> Verdict:
    nums, den = r.window(1, 41)
    return _matches(
        (((n,), den * closed_form.narayana_sum(n), x) for n, x in enumerate(nums, 1)),
        "narayana sum equals [z^n] R for n <= 40", "n={}",
    )


def _r_published_check(r: Series) -> Verdict:
    got = [r.integer_coeff(n, "R") for n in range(8)]
    return got == [1, 1, 4, 19, 100, 562, 3304, 20071], f"first coefficients {got}"


def _lagrange_check() -> Verdict:
    return all(closed_form.lagrange_identity_check(n) for n in range(1, 41)), "n <= 40"


def _r_quadratic_check(r: Series, order: int) -> Verdict:
    lhs = (r.shift(1) * 6 - 1 - Series.poly({1: 2}, order + 2)) ** 2
    rhs = Series.poly({0: 1, 1: -8, 2: 4}, order + 2)
    return (lhs - rhs).truncate(order).is_zero(), "(6zR - 1 - 2z)^2 = 1 - 8z + 4z^2"


def _reflected_roots_check(s1: Series, t1: Series, s: Series) -> Verdict:
    # each residual on the whole window it is known on
    residuals = {
        "kernel(s1) = 0": horner(kernel.kernel_poly(2), s1),
        "reflected kernel(t1) = 0": horner(reverse.RECIPROCAL_KERNEL, t1),
        "reflected kernel(1/s1) = 0": horner(reverse.RECIPROCAL_KERNEL, s1.reciprocal()),
        "t1 s = 1": t1 * s - 1,
    }
    for claim, residual in residuals.items():
        ok, detail = _zero_on_window(residual, claim)
        if not ok:
            return False, detail
    return True, "roots satisfy both kernels; t1 inverts the surviving root"


def _reflected_g0_check(g0: Series, t1: Series, total: Series, order: int) -> Verdict:
    hi = min(order, total.frontier, g0.frontier)
    forms_ok = g0.agrees(reverse.rl_g0_rational(order, t1=t1), upto=hi)
    total_ok = g0.agrees(total, upto=hi)
    return forms_ok and total_ok, f"both forms equal the LR total through z^{hi - 1}"


def _mirror_check(lr: CountTable, rl: CountTable, n_hi: int) -> Verdict:
    return _matches(
        (((n,), lr.closed_count(n), rl.closed_count(n)) for n in range(n_hi + 1)),
        f"table totals agree both directions, lengths <= {n_hi}", "first mismatch at length {}",
    )


def _adjudication(table: CountTable, r: Series, total: Series) -> Verdict:
    """The single adjudication line for the diverging length-15 value."""
    dp15 = table.closed_count(15)
    r5 = r.integer_coeff(5, "R")
    total15 = total if total.frontier > 15 else kernel.solve(2, 16).total
    k15 = total15.integer_coeff(15, "kernel total")
    sides = [f"kernel-method value {k15}"] if dp15 == k15 else []
    sides += [f"closed-form R value {r5}"] if dp15 == r5 else []
    matched = " and ".join(sides) if sides else "neither published value"
    return True, (
        f"table count of closed length-15 words is {dp15}; it matches the "
        f"{matched} (kernel series gives {k15}, R gives {r5})"
    )
