"""The R route: the candidate closed form for the length-3n totals.

The candidate generating function for closed skew 2-Dyck paths of length
3n is

    R(z) = 1/(6z) + 1/3 - sqrt(1 - 8z + 4z^2) / (6z),

whose coefficients reduce, through a Lagrange-inversion step, to the
weighted Narayana sum (1/n) * sum(3^i C(n,i) C(n,i+1), i < n).  The
counting table disagrees with R from n = 5 on, so nothing here is taken
as ground truth.  This module is the R route alone: it reads neither the
table nor the kernel, and `verify` (with `oeis` for a b-file) is where
the routes are compared.
"""

from __future__ import annotations

from math import comb

from .series import Series, SeriesError


def r_series(order: int) -> Series:
    """Expand R(z); the 1/z poles cancel, leaving integer coefficients."""
    work = order + 2
    root = Series.poly({0: 1, 1: -8, 2: 4}, work).sqrt()
    numerator = Series.poly({0: 1, 1: 2}, work) - root
    r = numerator.shift(-1) / 6
    if r.valuation < 0:
        raise SeriesError("pole cancellation failed in R(z)")
    return r.truncate(order)


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

