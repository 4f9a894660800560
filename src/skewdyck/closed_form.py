"""Coefficient formulas for the length-3n totals and their cross-checks.

The candidate generating function for closed skew 2-Dyck paths of length
3n is

    R(z) = 1/(6z) + 1/3 - sqrt(1 - 8z + 4z^2) / (6z),

whose coefficients reduce, through a Lagrange-inversion step, to the
weighted Narayana sum (1/n) * sum(3^i C(n,i) C(n,i+1), i < n).  The
counting table disagrees with R from n = 5 on, so nothing here is taken
as ground truth: the report lays the four computations side by side and
lets the table adjudicate.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb
from typing import NamedTuple

from . import kernel
from .automaton import CountTable, dp_counts
from .series import Series, SeriesError


def r_series(order: int = 32) -> Series:
    """Expand R(z); the 1/z poles cancel, leaving integer coefficients."""
    work = order + 2
    root = Series.poly({0: 1, 1: -8, 2: 4}, work).sqrt()
    numerator = Series.poly({0: 1, 1: 2}, work) - root
    r = numerator.shift(-1) / 6
    if r.valuation < 0:
        raise SeriesError("pole cancellation failed in R(z)")
    return r.truncate(order)


def r_coefficient(n: int) -> int:
    """Exact integer [z^n] R(z)."""
    c = r_series(n + 1).coeff(n)
    if c.denominator != 1:
        raise SeriesError(f"[z^{n}] R = {c} is not an integer")
    return c.numerator


def narayana_sum(n: int) -> int:
    """(1/n) * sum(3^i * C(n,i) * C(n,i+1) for i < n), exactly.

    The products C(n,i) C(n,i+1) / n are n times the Narayana numbers,
    so the division is always exact; that is checked, not rounded.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    s = sum(3**i * comb(n, i) * comb(n, i + 1) for i in range(n))
    if s % n:
        raise ValueError(f"weighted Narayana sum not divisible by n={n}")
    return s // n


def lagrange_identity_check(n: int) -> bool:
    """Coefficient identity behind the Narayana form of [z^n] R.

    Verifies  sum 3^i C(n-1,i) C(n+1,i+1)  -  sum 3^i C(n,i) C(n,i+1)
    equals (1/n) sum 3^i C(n,i) C(n,i+1), all in exact integers.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    a = sum(3**i * comb(n - 1, i) * comb(n + 1, i + 1) for i in range(n + 1))
    b = sum(3**i * comb(n, i) * comb(n, i + 1) for i in range(n))
    return b % n == 0 and a - b == b // n


class CoeffReport(NamedTuple):
    """One comparison row for the length-3n closed-path count."""

    n: int
    r_coeff: int
    narayana_value: int
    kernel_total: int
    dp_total: int

    @property
    def narayana_matches_r(self) -> bool:
        return self.narayana_value == self.r_coeff

    @property
    def kernel_matches_dp(self) -> bool:
        return self.kernel_total == self.dp_total

    @property
    def r_matches_dp(self) -> bool:
        return self.r_coeff == self.dp_total


def discrepancy_report(
    n_max: int,
    table: CountTable | None = None,
    solution: kernel.KernelSolution | None = None,
) -> list[CoeffReport]:
    """Side-by-side [z^n]R, Narayana sum, kernel total, and table count.

    Agreement of the first two is a theorem (and tested as one); the
    others are findings.  None of the columns is hard-coded: whichever
    printed value the table confirms, the report simply shows it.
    """
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    r = r_series(n_max + 1)
    if solution is None or solution.order < 3 * n_max + 1:
        solution = kernel.solve_t2(3 * n_max + 1)
    if table is None or table.n_max < 3 * n_max:
        table = dp_counts(2, 3 * n_max, k_max=0)
    rows = []
    for n in range(1, n_max + 1):
        rc = r.coeff(n)
        kc = solution.total.coeff(3 * n)
        if rc.denominator != 1 or kc.denominator != 1:
            raise SeriesError(f"non-integer R or kernel total at length {3 * n}")
        rows.append(
            CoeffReport(
                n=n,
                r_coeff=rc.numerator,
                narayana_value=narayana_sum(n),
                kernel_total=kc.numerator,
                dp_total=table.closed_count(3 * n),
            )
        )
    return rows

