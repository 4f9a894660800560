"""Kernel-method solution for left-to-right skew t-Dyck paths.

The layer generating functions share the kernel denominator

    K_t(u, z) = z u^(2t) - u^(2t-1) - z^2 u^t + 2 z u^(t-1) - z^3.

Exactly one root of K_t in u has a 1/z leading term; it is the root that
survives in the power-series solution, and every level column of the
counting table is geometric in it.  `series_root` expands it, as it
expands every kernel root in the package: u = z^a v (`substituted`)
moves a root of valuation a to a nonzero constant term, and
`newton_root` expands the result one coefficient at a time from a
rational seed.  Here a = -1; with the lowest power of z divided out,
the equation is

    v^(2t) - v^(2t-1) - z^(t+1) v^t + 2 z^(t+1) v^(t-1) - z^(2t+2) = 0

with seed v(0) = 1.  Every z-exponent is a multiple of t + 1, so the
solver works in x = z^(t+1), a stride it reads off the equation itself.
`reflected` derives the right-to-left kernel, so `kernel_poly` is the
one kernel polynomial written out in the code.

Every level column is geometric in the surviving root s: the level-k
prefix series are f_k = s^-k, g_k = g0 s^-k and h_k = h0 s^-k.  Put
into the layer equations at level 0, that law gives the whole solution
from s, for every t:

    F:  1 + g0 = 1/(z s)
    G:  g0 s^t = z * total
    H:  h0 s^t = z (g0 + h0)

`solve` takes g0 from F and the total from G; h0 = total - 1 - g0,
since every nonempty closed path ends in a D (layer G) or an L
(layer H).  The H equation is left unused, so it remains a check.
A layer is named by its letter, as in these equations and in the
table's ``automaton.LAYERS``; `prefix_series` rejects any other.
Nothing here reads the counting table: the solution is measured
against it, not derived from it.  The remaining roots are never
expanded: two of them ramify at z = 0 and all of them cancel out of the
answer.
"""

from __future__ import annotations

from collections import namedtuple

from .series import Series, SeriesError, newton_root

# Published expansion of the t=2 good root.
S4_PUBLISHED = {
    -1: 1, 2: -1, 5: -2, 8: -8, 11: -39, 14: -210,
    17: -1203, 20: -7192, 23: -44362, 26: -280250,
}

# Published expansion of the t=3 good root, kept for cross-checking only.
# The tail is suspected of transcription errors (the z^31 entry breaks the
# growth of the earlier terms), so divergences are reported, not asserted.
S6_PUBLISHED = {
    -1: 1,
    3: -1,
    7: -1,
    11: -16,
    15: -104,
    19: -749,
    23: -5748,
    27: -46069,
    31: -38109,
}


def kernel_poly(t: int) -> dict[int, dict[int, int]]:
    """The kernel denominator K_t(u, z) as {u-power: {z-exponent: coefficient}}."""
    if t < 2:
        raise ValueError("t must be >= 2")
    return {
        2 * t: {1: 1},
        2 * t - 1: {0: -1},
        t: {2: -1},
        t - 1: {1: 2},
        0: {3: -1},
    }


def substituted(poly: dict, a: int) -> dict:
    """P(z^a v, z) with the lowest power of z divided out, in v.

    The substitution u = z^a v moves a root of valuation a to one with a
    nonzero constant term, the seed `newton_root` expands from.
    """
    moved = {p: {e + a * p: c for e, c in zp.items()} for p, zp in poly.items()}
    low = min(e for zp in moved.values() for e in zp)
    return {p: {e - low: c for e, c in zp.items()} for p, zp in moved.items()}


def reflected(poly: dict) -> dict:
    """-u^d P(1/u, z) for P of degree d in u: its roots are the reciprocals."""
    d = max(poly)
    return {d - p: {e: -c for e, c in zp.items()} for p, zp in poly.items()}


def series_root(poly: dict, valuation: int, seed, order: int) -> Series:
    """The root of P(u, z) = 0 with lead term seed z^valuation, to O(z^order).

    The seed must be a simple root of the substituted equation at z = 0.
    """
    if order <= valuation:
        raise ValueError(f"order must be >= {valuation + 1} to see the z^{valuation} lead")
    v = newton_root(substituted(poly, valuation), seed, order - valuation)
    return v.shift(valuation)


def good_root(t: int, order: int) -> Series:
    """The kernel root with leading term 1/z, to O(z^order).

    The pole-cleared equation in v = z*u has a simple root at v(0) = 1;
    the ramified roots cannot be reached from it.
    """
    return series_root(kernel_poly(t), -1, 1, order)


class KernelSolution(namedtuple("KernelSolution", "t order s g0 h0 total s_inv_powers")):
    """The solution for one t, derived from the surviving root s.

    The level-k prefix series follow the geometric law f_k = s^-k,
    g_k = g0 s^-k and h_k = h0 s^-k.  ``s_inv_powers`` memoises the
    powers of s^-1 by exponent for `s_inv_power`; it is created with each
    solution holding s^-1 itself, on the window of ``s``.
    """

    __slots__ = ()

    def s_inv_power(self, k: int) -> Series:
        """s^(-k) for k >= 1 as s^-floor(k/2) s^-ceil(k/2), each computed once per solution."""
        if k < 1:
            raise ValueError("k must be >= 1")
        powers = self.s_inv_powers
        if k not in powers:
            powers[k] = self.s_inv_power(k // 2) * self.s_inv_power(k - k // 2)
        return powers[k]


def solve(t: int, order: int) -> KernelSolution:
    """g0, h0 and the closed total for skew t-Dyck paths, all to O(z^order).

    With s the surviving root:  g0 = 1/(z s) - 1 (layer F),
    total = g0 s^t / z (layer G) and h0 = total - 1 - g0.
    """
    # g0 starts at z^(t+1) and s^t at z^-t, so g0 s^t / z is known t
    # terms less far than s: s is solved t terms further
    s = good_root(t, order + t)
    s_inv = s.reciprocal()
    g0 = s_inv.shift(-1) - 1
    total = (g0 * s**t).shift(-1)
    h0 = total - 1 - g0
    # s is cut at O(z^order) from its z^-1 lead, so s^-1 keeps order + 1 terms from z
    s_inv = s_inv.truncate(order + 2)
    return KernelSolution(
        t=t,
        order=order,
        s=s.truncate(order),
        g0=g0.truncate(order),
        h0=h0,
        total=total,
        s_inv_powers={1: s_inv},
    )


def prefix_series(solution: KernelSolution, layer, k: int, order: int) -> Series:
    """Closed-form series for level-k prefixes in one layer, to O(z^order).

    The geometric law: s^-k for F (1 at k = 0), g0 s^-k for G and
    h0 s^-k for H.  Each is a genuine power series: s^-k starts at z^k
    (the all-U word), and g0 and h0 start higher still.  ``layer`` is
    the letter "F", "G" or "H"; any other raises ``ValueError``.
    """
    if layer not in ("F", "G", "H"):
        raise ValueError(f"layer must be one of 'F', 'G', 'H', got {layer!r}")
    if k < 0:
        raise ValueError("k must be >= 0")
    if solution.order < order:
        raise SeriesError(
            f"solution order {solution.order} too small for level {k} at O(z^{order})"
        )
    if k >= order:
        return Series.zero(order)  # s^-k starts at z^k: no prefix is that short
    if layer == "F":
        out = Series.poly({0: 1}, order) if k == 0 else solution.s_inv_power(k)
    else:
        out = solution.g0 if layer == "G" else solution.h0
        if k:
            # both factors vanish at z^0, so their product is exact on the window
            out = out.truncate(order) * solution.s_inv_power(k).truncate(order)
    return out.truncate(order)
