"""Kernel-method solution for left-to-right skew t-Dyck paths.

The layer generating functions share the kernel denominator

    K_t(u, z) = z u^(2t) - u^(2t-1) - z^2 u^t + 2 z u^(t-1) - z^3.

Exactly one root of K_t in u has a 1/z leading term; it is the root that
survives in the power-series solution, and every level column of the
counting table is geometric in it.  The root is expanded by substituting
u = v/z, which clears the pole; with the lowest power of z divided out,
Newton solves

    v^(2t) - v^(2t-1) - z^(t+1) v^t + 2 z^(t+1) v^(t-1) - z^(2t+2) = 0

from the rational seed v(0) = 1.  `substituted` derives that equation
from `kernel_poly`, and `reflected` the right-to-left kernel, so
`kernel_poly` is the one kernel polynomial written out in the code.

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
Nothing here reads the counting table: the solution is measured
against it, not derived from it.  The remaining roots are never
expanded: two of them ramify at z = 0 and all of them cancel out of the
answer.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Mapping, NamedTuple, Sequence

from .automaton import Layer
from .series import Series, SeriesError, newton_root

DEFAULT_ORDER = 64

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
    nonzero constant term, which is where `newton_root` starts.
    """
    moved = {p: {e + a * p: c for e, c in zp.items()} for p, zp in poly.items()}
    low = min(e for zp in moved.values() for e in zp)
    return {p: {e - low: c for e, c in zp.items()} for p, zp in moved.items()}


def reflected(poly: dict) -> dict:
    """-u^d P(1/u, z) for P of degree d in u: its roots are the reciprocals."""
    d = max(poly)
    return {d - p: {e: -c for e, c in zp.items()} for p, zp in poly.items()}


def _weighted_sum(
    coeffs_by_power: Mapping[int, Mapping[int, int]], powers: Sequence[Series]
) -> Series:
    """Sum of c z^e powers[p] over the terms c z^e u^p of the table."""
    acc = None
    for p, zpoly in coeffs_by_power.items():
        up = powers[p]
        for e, c in zpoly.items():
            term = (up * c).shift(e)
            acc = term if acc is None else acc + term
    return acc


def good_root(t: int, order: int = DEFAULT_ORDER) -> Series:
    """The kernel root with leading term 1/z, to O(z^order).

    Newton-solves the pole-cleared equation in v = z*u from the seed
    v(0) = 1 (a simple root there), then shifts back.  The ramified
    roots are unreachable through this normalization, so the solver
    cannot wander onto them.
    """
    v = newton_root(substituted(kernel_poly(t), -1), 1, order + 1)
    return v.shift(-1)


def compare_with_published(computed: Series, published: Mapping[int, int]) -> list[dict]:
    """Match computed coefficients against a published expansion.

    One row per published exponent: {exponent, computed, published,
    matches}.  Divergences are findings for the reader (typo detection),
    never silent corrections in either direction.
    """
    rows = []
    for e in sorted(published):
        c = computed.coeff(e)
        rows.append(
            {
                "exponent": e,
                "computed": str(c),
                "published": str(published[e]),
                "matches": c == Fraction(published[e]),
            }
        )
    return rows


class KernelSolution(NamedTuple):
    """The solution for one t, derived from the surviving root s.

    The level-k prefix series follow the geometric law f_k = s^-k,
    g_k = g0 s^-k and h_k = h0 s^-k.  ``s_inv`` is s^-1 on the window of
    ``s``; ``s_inv_powers`` memoises its powers for `s_inv_power` and is
    created with each solution.
    """

    t: int
    order: int
    s: Series
    g0: Series
    h0: Series
    total: Series
    s_inv: Series
    s_inv_powers: list

    def s_inv_power(self, k: int) -> Series:
        """s^(-k) for k >= 1, each power computed once per solution."""
        if k < 1:
            raise ValueError("k must be >= 1")
        powers = self.s_inv_powers
        while len(powers) < k:
            powers.append(powers[-1] * self.s_inv)
        return powers[k - 1]


def solve(t: int, order: int = DEFAULT_ORDER) -> KernelSolution:
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
        s_inv=s_inv,
        s_inv_powers=[s_inv],
    )


def prefix_series(
    t: int,
    layer: Layer,
    k: int,
    order: int = DEFAULT_ORDER,
    solution: KernelSolution | None = None,
) -> Series:
    """Closed-form series for level-k prefixes in one layer.

    The geometric law: s^-k for F (1 at k = 0), g0 s^-k for G and
    h0 s^-k for H.  Each is a genuine power series: s^-k starts at z^k
    (the all-U word), and g0 and h0 start higher still.
    """
    if k < 0:
        raise ValueError("k must be >= 0")
    if solution is None:
        solution = solve(t, order)
    if solution.t != t:
        raise ValueError(f"solution is for t={solution.t}, not t={t}")
    if solution.order < order:
        raise SeriesError(
            f"solution order {solution.order} too small for level {k} at O(z^{order})"
        )
    if k >= order:
        return Series.zero(order)  # s^-k starts at z^k: no prefix is that short
    if layer is Layer.F:
        out = Series.one(order) if k == 0 else solution.s_inv_power(k)
    else:
        out = solution.g0 if layer is Layer.G else solution.h0
        if k:
            # both factors vanish at z^0, so their product is exact on the window
            out = out.truncate(order) * solution.s_inv_power(k).truncate(order)
    return out.truncate(order)


def recurrence_residuals(columns: list[Series], t: int) -> list[Series]:
    """Apply the kernel-induced level recurrence to consecutive columns.

    The kernel K_t annihilates every layer column sequence a_k through

        sum over u-powers m of K_t:  coeff_m(z) * a_(k + 2t - m) = 0,

    so at t = 2, z a_k - a_(k+1) - z^2 a_(k+2) + 2 z a_(k+3)
    - z^3 a_(k+4) = 0.  Returns one residual per checkable window position.
    """
    poly = kernel_poly(t)
    depth = 2 * t
    # u^p stands for column k + depth - p: the window read backwards
    return [
        _weighted_sum(poly, columns[k : k + depth + 1][::-1])
        for k in range(len(columns) - depth)
    ]


class RecurrenceReport(NamedTuple):
    layer: Layer
    k_max: int
    order: int
    residual_ok: tuple[bool, ...]

    @property
    def all_hold(self) -> bool:
        return all(self.residual_ok)


def recurrence_check(
    solution: KernelSolution,
    layer: Layer,
    k_max: int = 6,
    order: int = 30,
) -> RecurrenceReport:
    """Check the order-2t level recurrence on the closed forms of a solution."""
    t = solution.t
    cols = [
        prefix_series(t, layer, k, order + 2, solution) for k in range(k_max + 2 * t + 1)
    ]
    residuals = recurrence_residuals(cols, t)
    ok = tuple(r.truncate(order + 1).is_zero() for r in residuals[: k_max + 1])
    return RecurrenceReport(layer, k_max, order, ok)
