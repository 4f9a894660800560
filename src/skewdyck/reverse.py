"""Right-to-left scan: the reflected automaton's closed form.

Scanning closed paths from the right walks the reversed automaton; the
closed total must match the left-to-right count, and it does, through a
different algebraic route.  The reflected kernel is the u -> 1/u
reciprocal of the left-to-right one,

    z^3 u^4 - 2 z u^3 + z^2 u^2 + u - z,

and its roots are the reciprocals of the original four.  This kernel is
derived from `kernel.kernel_poly` by `kernel.reflected`, not written
out, and each root below is one `kernel.series_root` call.  The factor
that must divide out of the numerator is the one whose root vanishes at
z = 0: the reciprocal of the valuation -1 root, here called t1, with
t1 = z + z^4 + ...  (Reciprocals of the other roots either ramify or
blow up, and those factors legitimately stay in the denominator.)
Cancelling it leaves the closed total in two equivalent shapes:

    g0 = (1 - z t1^2) / (1 - 2 z t1^2) = -1 - z t1^2 + 2 t1 / z.

The explicit form is the one computed; the quotient form is kept as a
cross-check.  t1 is expanded as a root of the reflected kernel itself,
not by inverting the left-to-right root, so the identity t1 * s = 1
stays an honest test between two routes.

The valuation-2 root of the original kernel (s1 below) is expanded as
well: its printed rational coefficients pin the solver on a genuinely
non-integer series.  Its reciprocal is a root of the reflected kernel
too, which is checked by residual, but it is not the cancelling factor.

The right-to-left solution is these three series, each one call:
`rl_cancelling_root` (t1), `rl_g0` (the closed total from t1) and
`rl_root_s1` (s1); a caller that wants t1 and g0 together expands t1
once and hands it to `rl_g0`.

Level-k prefix expressions from the right have no pleasant closed form
(the three remaining reciprocal roots gang up in the denominator), so
prefix counts are served by the counting table instead.

The published coefficients and the seed of s1 are integer pairs (p, q)
for p/q, the package's one form of an exact rational, which
`series._ratio` reads.
"""

from __future__ import annotations

from .kernel import kernel_poly, reflected, series_root
from .series import Series, SeriesError

RECIPROCAL_KERNEL = reflected(kernel_poly(2))

# Published coefficients of s1, each (p, q) for p/q, for cross-checking the solver.
S1_PUBLISHED = {
    2: (1, 2),
    5: (3, 16),
    8: (17, 128),
    11: (29, 256),
    14: (861, 8192),
    17: (6675, 65536),
    20: (13231, 131072),
    23: (52939, 524288),
}


def rl_root_s1(order: int) -> Series:
    """The quartic kernel's valuation-2 root s1 = z^2/2 + ..., to O(z^order)."""
    return series_root(kernel_poly(2), 2, (1, 2), order)


def rl_cancelling_root(order: int) -> Series:
    """The reflected kernel's series root t1 = z + z^4 + ..., to O(z^order)."""
    return series_root(RECIPROCAL_KERNEL, 1, 1, order)


def rl_g0(order: int, t1: Series | None = None) -> Series:
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


def rl_g0_rational(order: int, t1: Series) -> Series:
    """The quotient form (1 - z t1^2)/(1 - 2 z t1^2), as a cross-check,
    from a cancelling root known to O(z^order)."""
    zt1sq = (t1 * t1).shift(1)
    return ((1 - zt1sq) / (1 - zt1sq * 2)).truncate(order)

