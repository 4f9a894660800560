"""Right-to-left scan: the reflected automaton's closed form.

Scanning closed paths from the right walks the reversed automaton; the
closed total must match the left-to-right count, and it does, through a
different algebraic route.  The reflected kernel is the u -> 1/u
reciprocal of the left-to-right one,

    z^3 u^4 - 2 z u^3 + z^2 u^2 + u - z,

and its roots are the reciprocals of the original four.  This kernel and
both Newton equations below are derived from `kernel.kernel_poly` by
`kernel.reflected` and `kernel.substituted`, not written out.  The factor
that must divide out of the numerator is the one whose root vanishes at
z = 0: the reciprocal of the valuation -1 root, here called t1, with
t1 = z + z^4 + ...  (Reciprocals of the other roots either ramify or
blow up, and those factors legitimately stay in the denominator.)
Cancelling it leaves the closed total in two equivalent shapes:

    g0 = (1 - z t1^2) / (1 - 2 z t1^2) = -1 - z t1^2 + 2 t1 / z.

The explicit form is the one computed; the quotient form is kept as a
cross-check.  t1 is expanded by its own Newton solve on the reflected
kernel (substituting u = z y), not by inverting the left-to-right root,
so the identity t1 * s = 1 stays an honest test between two routes.

The valuation-2 root of the original kernel (s1 below) is expanded as
well: its printed rational coefficients pin the solver on a genuinely
non-integer series.  Its reciprocal is a root of the reflected kernel
too, which is checked by residual, but it is not the cancelling factor.

Level-k prefix expressions from the right have no pleasant closed form
(the three remaining reciprocal roots gang up in the denominator), so
prefix counts are served by the counting table instead.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from .kernel import kernel_poly, reflected, substituted
from .series import Series, SeriesError, newton_root

DEFAULT_ORDER = 64

# u = z^2 w clears the valuation-2 root of the quartic kernel:
# z^6 w^4 - z^3 w^3 - z^3 w^2 + 2 w - 1 = 0, a simple root at w(0) = 1/2.
_S1_EQ = substituted(kernel_poly(2), 2)

# The reflected kernel itself, for residual checks.
RECIPROCAL_KERNEL = reflected(kernel_poly(2))

# u = z y clears the valuation-1 root of the reflected kernel:
# z^6 y^4 - 2 z^3 y^3 + z^3 y^2 + y - 1 = 0, a simple root at y(0) = 1.
_T1_EQ = substituted(RECIPROCAL_KERNEL, 1)

# Published coefficients of s1, for cross-checking the solver.
S1_PUBLISHED = {
    2: Fraction(1, 2),
    5: Fraction(3, 16),
    8: Fraction(17, 128),
    11: Fraction(29, 256),
    14: Fraction(861, 8192),
    17: Fraction(6675, 65536),
    20: Fraction(13231, 131072),
    23: Fraction(52939, 524288),
}


def rl_root_s1(order: int = DEFAULT_ORDER) -> Series:
    """The valuation-2 root of the quartic kernel, to O(z^order)."""
    if order < 3:
        raise ValueError("order must be >= 3 to see the z^2 lead")
    w = newton_root(_S1_EQ, Fraction(1, 2), order - 2)
    return w.shift(2)


def rl_cancelling_root(order: int = DEFAULT_ORDER) -> Series:
    """The reflected kernel's series root t1 = z + z^4 + ..., to O(z^order)."""
    if order < 2:
        raise ValueError("order must be >= 2 to see the z lead")
    y = newton_root(_T1_EQ, 1, order - 1)
    return y.shift(1)


def rl_g0(order: int = DEFAULT_ORDER, t1: Series | None = None) -> Series:
    """Closed total via the explicit form -1 - z t1^2 + 2 t1 / z.

    The result must be a power series with integer coefficients; a
    negative valuation means the supplied root is corrupted and raises
    rather than truncating the damage away.
    """
    if t1 is None:
        t1 = rl_cancelling_root(order + 2)
    g0 = (t1 * t1).shift(1) * (-1) + t1.shift(-1) * 2 - 1
    if not g0.is_zero() and g0.valuation < 0:
        raise SeriesError(
            "the reflected closed form produced negative powers; "
            "the cancelling root is corrupted"
        )
    return g0.truncate(order)


def rl_g0_rational(order: int = DEFAULT_ORDER) -> Series:
    """The quotient form (1 - z t1^2)/(1 - 2 z t1^2), as a cross-check."""
    t1 = rl_cancelling_root(order + 2)
    zt1sq = (t1 * t1).shift(1)
    return ((1 - zt1sq) / (1 - zt1sq * 2)).truncate(order)


class RlSolution(NamedTuple):
    order: int
    s1: Series
    t1: Series
    g0: Series


def solve_rl(order: int = DEFAULT_ORDER) -> RlSolution:
    t1 = rl_cancelling_root(order + 2)
    return RlSolution(
        order=order,
        s1=rl_root_s1(order),
        t1=t1.truncate(order),
        g0=rl_g0(order, t1=t1),
    )

