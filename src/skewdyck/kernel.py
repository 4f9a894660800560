"""Kernel-method closed forms for left-to-right skew t-Dyck paths.

The layer generating functions share the kernel denominator

    K_t(u, z) = z u^(2t) - u^(2t-1) - z^2 u^t + 2 z u^(t-1) - z^3.

Exactly one root of K_t in u has a 1/z leading term; it is the root that
survives in the power-series solution, and every level column of the
counting table is geometric in it.  The root is expanded by substituting
u = v/z, which clears the pole and leaves an equation Newton can solve
from the rational seed v(0) = 1:

    v^(2t) - v^(2t-1) - z^(t+1) v^t + 2 z^(t+1) v^(t-1) - z^(2t+2) = 0.

Every level column is geometric in the surviving root s: the level-k
prefix series are f_k = s^-k, g_k = g0 s^-k and h_k = h0 s^-k.  For
t = 2 the level-0 series g0 and h0 come from s in closed form, so the
root gives the whole solution; it is verified against the counting
table rather than re-derived by polynomial division (checking beats
symbol pushing here).  The remaining roots are never expanded: two of
them ramify at z = 0 and all of them cancel out of the answer.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Mapping, NamedTuple, Sequence

from .automaton import CountTable, Layer, dp_counts
from .series import AlgebraicEq, Series, SeriesError, newton_root

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


def eval_poly_at_series(coeffs_by_power: Mapping[int, Mapping[int, int]], u: Series) -> Series:
    """Evaluate a {u-power: z-poly} table at a (possibly Laurent) series."""
    # u^0 .. u^max built in a loop: a recursive u^p = u^(p-1) * u would
    # pass the recursion limit for the 2t-th power once t is about 500
    powers = [Series.one(u.order)]
    for _ in range(max(coeffs_by_power)):
        powers.append(powers[-1] * u)
    return _weighted_sum(coeffs_by_power, powers)


def good_root(t: int, order: int = DEFAULT_ORDER) -> Series:
    """The kernel root with leading term 1/z, to O(z^order).

    Newton-solves the pole-cleared equation in v = z*u from the seed
    v(0) = 1 (a simple root there), then shifts back.  The ramified
    roots are unreachable through this normalization, so the solver
    cannot wander onto them.
    """
    if t < 2:
        raise ValueError("t must be >= 2")
    eq = AlgebraicEq(
        {
            2 * t: {0: 1},
            2 * t - 1: {0: -1},
            t: {t + 1: -1},
            t - 1: {t + 1: 2},
            0: {2 * t + 2: -1},
        }
    )
    v = newton_root(eq, 1, order + 1)
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
    """The complete t=2 solution derived from the surviving root s.

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


def solve_t2(order: int = DEFAULT_ORDER) -> KernelSolution:
    """Closed forms for t = 2, all to O(z^order).

    With s the surviving root:  1 + g0 = 1/(z s),
    h0 = 1/(z s) - z/s^2 - 1,  total = 1 + g0 + h0.
    """
    work = order + 4
    s = good_root(2, work)
    s_inv = s.reciprocal()
    inv_zs = s_inv.shift(-1)  # 1/(z s)
    g0 = inv_zs - 1
    h0 = inv_zs - (s_inv * s_inv).shift(1) - 1
    total = g0 + h0 + 1
    # s is cut at O(z^order) from its z^-1 lead, so s^-1 keeps order + 1 terms from z
    s_inv = s_inv.truncate(order + 2)
    return KernelSolution(
        t=2,
        order=order,
        s=s.truncate(order),
        g0=g0.truncate(order),
        h0=h0.truncate(order),
        total=total.truncate(order),
        s_inv=s_inv,
        s_inv_powers=[s_inv],
    )


def prefix_series_t2(
    layer: Layer,
    k: int,
    order: int = DEFAULT_ORDER,
    solution: KernelSolution | None = None,
) -> Series:
    """Closed-form series for level-k prefixes in one layer (t = 2).

    The geometric law: s^-k for F (1 at k = 0), g0 s^-k for G and
    h0 s^-k for H.  Each is a genuine power series: s^-k starts at z^k
    (the all-U word), and g0 and h0 start higher still.
    """
    if k < 0:
        raise ValueError("k must be >= 0")
    if solution is None:
        solution = solve_t2(order + k + 3)
    if layer is Layer.F:
        out = Series.one(solution.order) if k == 0 else solution.s_inv_power(k)
    else:
        out = solution.g0 if layer is Layer.G else solution.h0
        if k:
            out = out * solution.s_inv_power(k)
    if out.frontier < order:
        raise SeriesError(
            f"solution order {solution.order} too small for level {k} at O(z^{order})"
        )
    return out.truncate(order)


def recurrence_residuals(columns: list[Series], t: int) -> list[Series]:
    """Apply the kernel-induced level recurrence to consecutive columns.

    The kernel K_t annihilates every layer column sequence a_k through

        sum over u-powers m of K_t:  coeff_m(z) * a_(k + 2t - m) = 0,

    which for t = 2 reads z a_k - a_(k+1) - z^2 a_(k+2) + 2 z a_(k+3)
    - z^3 a_(k+4).  Returns one residual per checkable window position.
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
    layer: Layer,
    k_max: int = 6,
    order: int = 30,
    solution: KernelSolution | None = None,
) -> RecurrenceReport:
    """Check the order-4 level recurrence on the t=2 closed forms."""
    if solution is None:
        solution = solve_t2(order + k_max + 9)
    cols = [prefix_series_t2(layer, k, order + 2, solution) for k in range(k_max + 5)]
    residuals = recurrence_residuals(cols, 2)
    ok = tuple(r.truncate(order + 1).is_zero() for r in residuals[: k_max + 1])
    return RecurrenceReport(layer, k_max, order, ok)


class RatioReport(NamedTuple):
    t: int
    k_max: int
    order: int
    results: tuple[tuple[str, int, bool], ...]  # (layer name, k, ok)

    @property
    def all_hold(self) -> bool:
        return all(ok for _, _, ok in self.results)


def ratio_property(
    t: int,
    k_max: int = 4,
    order: int = 20,
    table: CountTable | None = None,
) -> RatioReport:
    """Each level column is the next one times the surviving root.

    This is the general-t shape of the closed forms: column k equals
    column k+1 multiplied by the root, exactly, for every layer.  The
    per-layer constants stay implicit; the geometric law is what pins
    the kernel construction for t beyond 3.
    """
    s = good_root(t, order + 3)
    if table is None:
        table = dp_counts(t, order + 1, k_max=k_max + 1)
    if table.n_max < order + 1 or table.k_max < k_max + 1:
        raise ValueError("table too small for the requested ratio check")
    results = []
    for layer in Layer:
        for k in range(k_max + 1):
            lhs = table.column_series(layer, k)
            rhs = table.column_series(layer, k + 1) * s
            ok = (lhs - rhs).truncate(order + 1).is_zero()
            results.append((layer.value, k, ok))
    return RatioReport(t, k_max, order, tuple(results))
