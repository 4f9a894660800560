"""Kernel-method closed forms for left-to-right skew t-Dyck paths.

The layer generating functions share the kernel denominator

    K_t(u, z) = z u^(2t) - u^(2t-1) - z^2 u^t + 2 z u^(t-1) - z^3.

Exactly one root of K_t in u has a 1/z leading term; it is the root that
survives in the power-series solution, and every level column of the
counting table is geometric in it.  The root is expanded by substituting
u = v/z, which clears the pole and leaves an equation Newton can solve
from the rational seed v(0) = 1:

    v^(2t) - v^(2t-1) - z^(t+1) v^t + 2 z^(t+1) v^(t-1) - z^(2t+2) = 0.

For t = 2 the surviving root gives closed forms for the whole solution;
they are verified against the counting table rather than re-derived by
polynomial division (checking beats symbol pushing here).  The remaining
roots are never expanded: two of them ramify at z = 0 and all of them
cancel out of the answer.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Mapping

from .automaton import CountTable, Layer, dp_counts
from .series import AlgebraicEq, Series, SeriesError, newton_root

DEFAULT_ORDER = 64

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


@dataclass(frozen=True)
class KernelSpec:
    """K_t as {u-power: {z-exponent: integer coefficient}}."""

    t: int
    coeffs_by_power: Mapping[int, Mapping[int, int]]

    def as_algebraic_eq(self) -> AlgebraicEq:
        return AlgebraicEq(self.coeffs_by_power)


def kernel_poly(t: int) -> KernelSpec:
    """The kernel denominator K_t(u, z)."""
    if t < 2:
        raise ValueError("t must be >= 2")
    return KernelSpec(
        t,
        {
            2 * t: {1: 1},
            2 * t - 1: {0: -1},
            t: {2: -1},
            t - 1: {1: 2},
            0: {3: -1},
        },
    )


def eval_poly_at_series(coeffs_by_power: Mapping[int, Mapping[int, int]], u: Series) -> Series:
    """Evaluate a {u-power: z-poly} table at a (possibly Laurent) series."""
    acc = None
    # u^0 .. u^max built in a loop: a recursive u^p = u^(p-1) * u would
    # pass the recursion limit for the 2t-th power once t is about 500
    powers = [Series.one(u.order)]
    for _ in range(max(coeffs_by_power)):
        powers.append(powers[-1] * u)

    for p, zpoly in coeffs_by_power.items():
        up = powers[p]
        for e, c in zpoly.items():
            term = (up * c).shift(e)
            acc = term if acc is None else acc + term
    return acc


def kernel_residual(spec: KernelSpec, u: Series) -> Series:
    return eval_poly_at_series(spec.coeffs_by_power, u)


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


@dataclass(frozen=True)
class KernelSolution:
    """The complete t=2 solution derived from the surviving root.

    ``c_f`` and ``c_g`` are the prefix-series constants:
    f_k = c_f * s^(-k-1) / z,  g_k = c_g * s^(-k-1),  h_k = h0 * s^(-k).
    ``s_inv`` is s^-1 on the window of ``s``; its powers are memoised per
    solution by `s_inv_power`.
    """

    t: int
    order: int
    s: Series
    g0: Series
    h0: Series
    total: Series
    f1: Series
    g1_plus_h1: Series
    c_f: Series
    c_g: Series
    s_inv: Series
    _s_inv_powers: list = field(default_factory=list, init=False, repr=False, compare=False)

    def s_inv_power(self, k: int) -> Series:
        """s^(-k) for k >= 1, each power computed once per solution."""
        if k < 1:
            raise ValueError("k must be >= 1")
        powers = self._s_inv_powers
        if not powers:
            powers.append(self.s_inv)
        while len(powers) < k:
            powers.append(powers[-1] * self.s_inv)
        return powers[k - 1]

    def to_json(self) -> str:
        fields = {
            "t": self.t,
            "order": self.order,
            "s": self.s,
            "g0": self.g0,
            "h0": self.h0,
            "total": self.total,
            "f1": self.f1,
            "g1_plus_h1": self.g1_plus_h1,
            "c_f": self.c_f,
            "c_g": self.c_g,
        }
        return json.dumps(
            {k: (v.to_json() if isinstance(v, Series) else v) for k, v in fields.items()},
            indent=2,
        )


def solve_t2(order: int = DEFAULT_ORDER) -> KernelSolution:
    """Closed forms for t = 2, all to O(z^order).

    With s the surviving root:  1 + g0 = 1/(z s),
    h0 = 1/(z s) - z/s^2 - 1,  total = 1 + g0 + h0,  f1 = z + z g0,
    g1 + h1 = h0 s / z.
    """
    work = order + 4
    s = good_root(2, work)
    s_inv = s.reciprocal()
    inv_zs = s_inv.shift(-1)  # 1/(z s)
    g0 = inv_zs - 1
    h0 = inv_zs - (s_inv * s_inv).shift(1) - 1
    total = g0 + h0 + 1
    f1 = (g0 + 1).shift(1)
    g1_plus_h1 = (h0 * s).shift(-1)
    c_f = Series.one(work) - (g0 + 1).shift(3) - (h0 * s).shift(1)
    c_g = (g0 + 1).shift(2) + h0 * s
    cut = lambda x: x.truncate(order)
    return KernelSolution(
        t=2,
        order=order,
        s=cut(s),
        g0=cut(g0),
        h0=cut(h0),
        total=cut(total),
        f1=cut(f1),
        g1_plus_h1=cut(g1_plus_h1),
        c_f=cut(c_f),
        c_g=cut(c_g),
        # s is cut at O(z^order) from its z^-1 lead, so s^-1 keeps order + 1 terms from z
        s_inv=s_inv.truncate(order + 2),
    )


def prefix_series_t2(
    layer: Layer,
    k: int,
    order: int = DEFAULT_ORDER,
    solution: KernelSolution | None = None,
) -> Series:
    """Closed-form series for level-k prefixes in one layer (t = 2).

    Each is a genuine power series: the level eats k powers of the
    root's 1/z lead, so the lowest term is z^k (the all-U word) for the
    F layer and correspondingly higher for G and H.
    """
    if k < 0:
        raise ValueError("k must be >= 0")
    if solution is None:
        solution = solve_t2(order + k + 3)
    if layer is Layer.F:
        out = (solution.c_f * solution.s_inv_power(k + 1)).shift(-1)
    elif layer is Layer.G:
        out = solution.c_g * solution.s_inv_power(k + 1)
    else:
        out = solution.h0 if k == 0 else solution.h0 * solution.s_inv_power(k)
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
    spec = kernel_poly(t)
    depth = 2 * t
    out = []
    for k in range(len(columns) - depth):
        acc = None
        for p, zpoly in spec.coeffs_by_power.items():
            col = columns[k + depth - p]
            for e, c in zpoly.items():
                term = (col * c).shift(e)
                acc = term if acc is None else acc + term
        out.append(acc)
    return out


@dataclass(frozen=True)
class RecurrenceReport:
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


@dataclass(frozen=True)
class RatioReport:
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
