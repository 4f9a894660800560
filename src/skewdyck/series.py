"""Truncated Laurent series over exact rationals, with an online root solver.

Every series here stands for

    sum(nums[i] / den * z**(valuation + i) for i in range(len(nums))) + O(z**frontier)

with ``frontier = valuation + len(nums)``.  Precision is tracked
explicitly: arithmetic returns results on the window the operands actually
support (the min-rule for addition, shifted by valuations for products)
and never claims coefficients beyond it.  Coefficients are stored as
Python-int numerators over one common denominator, in one canonical
form: ``den > 0``, ``gcd(den, *nums) == 1`` and a nonzero leading
numerator (a series that is zero on its window has ``nums == ()`` and
``den == 1``).  Equal series therefore have equal fields.  Every ring
operation reads and writes that form, and so does printing (`__str__`
and `to_json` reduce each coefficient by a gcd).  `window` hands a run
of coefficients out in the same form, as integer numerators over the
common denominator, so a comparison with integers is exact without a
division, and `integer_coeff` reads one coefficient that must be an
integer.  An exact rational coefficient is an int or an integer pair
(p, q) for p/q, and `_ratio` is its one reader; a scalar operand of
``+ - * /`` is an int.  Anything else, a float or a `fractions.Fraction`,
is refused with `TypeError`.  `coeffs` alone builds `Fraction`s, and
imports `fractions` to do so; no package route reads it.
A series is built from a coefficient list (`Series(valuation, coeffs)`),
from a term dict (`Series.poly`) or as `Series.zero`.

Roots (`newton_root`), reciprocals (a v - 1 = 0) and square roots
(v^2 - a = 0) are one expansion, `_solve_ints`, which fixes each
coefficient from the ones below it (Knuth, TAOCP vol. 2, 4.7).  It
replaced precision-doubling Newton iteration (Brent & Kung 1978): with
schoolbook products every Newton step is quadratic anyway, and it paid
for about eight products of the whole window per solve.

A polynomial in the unknown is a plain dict {power: {z-exponent:
coefficient}}: `horner` is its one evaluator at a series and
`newton_root` its solver (named for the Newton iteration it replaced,
as the tests import it and the benchmark traces it), which the package
calls only through `kernel.series_root`, once a root's valuation is
normalised.

Negative exponents are supported down to any finite valuation, which is
all the counting work needs (the useful algebraic roots have a single
1/z term).  Fractional exponents are not supported: roots that ramify at
z=0 must be removed by an explicit substitution before solving.
"""

from __future__ import annotations

from itertools import islice
from math import gcd, isqrt, lcm
from operator import mul


class SeriesError(ValueError):
    """An operation a truncated series cannot honestly perform."""


def _ratio(x) -> tuple[int, int]:
    """(numerator, denominator) of an exact rational, in lowest terms with a
    positive denominator: an int or an integer pair (p, q)."""
    if isinstance(x, int):
        return int(x), 1
    if type(x) is tuple and len(x) == 2:
        p, q = x
        if not (isinstance(p, int) and isinstance(q, int)):
            raise TypeError(f"exact rational pair of ints expected, got {x!r}")
        if not q:
            raise ZeroDivisionError(f"exact rational pair {x!r} has a zero denominator")
        g = gcd(p, q)
        if q < 0:
            g = -g
        return p // g, q // g
    # bool is an int subclass; no other types are exact
    raise TypeError(f"exact rational coefficient expected, got {type(x).__name__}")


def _ratio_text(p: int, q: int) -> str:
    """p/q (q > 0) reduced to lowest terms and written as `Fraction.__str__`
    writes it."""
    g = gcd(p, q)
    p, q = p // g, q // g
    return str(p) if q == 1 else f"{p}/{q}"


# -- integer kernels ---------------------------------------------------------
#
# A vector of rationals travels as (nums, den): the value of entry i is
# nums[i] / den, with den > 0 and gcd(den, *nums) == 1.


def _reduced(nums: list[int], den: int) -> tuple[list[int], int]:
    """(nums, den) with the common factor removed and den > 0."""
    g = gcd(den, *nums)
    if den < 0:
        g = -g
    if g == 1:
        return nums, den
    return [x // g for x in nums], den // g


def _mul_ints(a, b, n: int) -> list[int]:
    """The first n coefficients of the product of two integer polynomials."""
    out = [0] * n
    nz_b = [(j, y) for j, y in enumerate(b[:n]) if y]
    for i, x in enumerate(a[:n]):
        if x:
            room = n - i
            for j, y in nz_b:
                if j >= room:
                    break
                out[i + j] += x * y
    return out


def _solve_ints(poly: dict, sp: int, sq: int, n: int) -> tuple[list[int], int]:
    """First n coefficients (nums, den) of the root v(0) = sp/sq (sq > 0)
    of P = sum(poly[p](z) v^p), for integer {z-exponent >= 0: coefficient}.

    Raises unless the seed is a simple root of P(v, 0).  The solve runs in
    x = z^g, g the gcd of P's own z-exponents.  x^m of P(v) is linear in
    v_m with slope P_v(seed, 0), which fixes v_m from v_<m.  Each power
    v^p is a running convolution (v^p = v^ceil(p/2) v^floor(p/2)), its x^m
    stored times sq^p R^m as an integer.  R grows from 1 only by what an
    inexact division needs, so a rational root is never carried over one
    inflated common denominator.
    """
    g = gcd(*(e for zp in poly.values() for e, c in zp.items() if c)) or n
    size = -(-n // g)  # coefficients in x
    top = max(poly, default=0)
    # P(v) scaled by sq^top R^m at x^m: K[p][e] = a_pe sq^(top - p) R^e
    K = {}
    for p, zp in poly.items():
        terms = {e // g: c * sq ** (top - p) for e, c in zp.items() if c and e < n}
        K[p] = [terms.get(e, 0) for e in range(max(terms, default=0) + 1)]
    const = K.pop(0, [])
    const += [0] * (size - len(const))
    # sq^top P(seed, 0) and sq^(top - 1) P_v(seed, 0)
    if const[0] + sum(row[0] * sp**p for p, row in K.items()):
        raise SeriesError(f"seed {_ratio_text(sp, sq)} is not a root of P(v, 0)")
    slope = sum(p * row[0] * sp ** (p - 1) for p, row in K.items())
    if not slope:
        raise SeriesError(
            f"root at seed {_ratio_text(sp, sq)} is ramified (derivative vanishes at z=0); "
            "apply a normalizing substitution before solving"
        )
    # W[i] holds v^powers[i]; halving p down to 1 reaches each power needed
    powers = sorted({c for p in K for k in range(p.bit_length()) for c in (p >> k, -(-p >> k))})
    at = {p: i for i, p in enumerate(powers)}
    steps = [(i, at[(p + 1) // 2], at[p // 2]) for i, p in enumerate(powers) if p > 1]
    W = [[sp**p] for p in powers]
    lin = [p * sp ** (p - 1) for p in powers]
    rows = [(at[p], row) for p, row in K.items()]
    part = [0] * len(powers)  # x^m of each v^p with v_m still 0
    R = 1
    for m in range(1, size):
        for i, q, r in steps:
            a, b = W[q], W[r]
            if q == r:
                c = 2 * (sum(map(mul, a[1 : (m + 1) // 2], reversed(a))) + a[0] * part[q])
                if not m % 2:
                    c += a[m // 2] ** 2
            else:
                c = sum(map(mul, a[1:], reversed(b))) + a[0] * part[r] + b[0] * part[q]
            part[i] = c
        T = const[m]
        for i, row in rows:
            T += row[0] * part[i] + sum(map(mul, islice(row, 1, None), reversed(W[i])))
        if T % slope:
            f = slope // gcd(T, slope)
            R *= f
            for w in W:
                w[:] = [x * f**e for e, x in enumerate(w)]
            rows = [(i, [x * f**e for e, x in enumerate(row)]) for i, row in rows]
            const = [x * f**e for e, x in enumerate(const)]
            fm = f**m
            part = [c * fm for c in part]
            T *= fm
        vm = -T // slope
        for w, c, k in zip(W, part, lin):
            w.append(c + k * vm)
    nums = [0] * n
    nums[::g] = W[0] if R == 1 else [x * R ** (size - 1 - m) for m, x in enumerate(W[0])]
    return nums, sq * R ** (size - 1)


# -- canonical form ----------------------------------------------------------


def _raw(val: int, nums: tuple, den: int, frontier: int) -> "Series":
    """A series from fields that are already in canonical form."""
    s = object.__new__(Series)
    s._val = val
    s._nums = nums
    s._den = den
    s._frontier = frontier
    return s


def _fill(s: "Series", val: int, nums, den: int) -> "Series":
    """Store sum(nums[i]/den z^(val+i)) + O(z^(val+len(nums))) canonically in s.

    ``den`` must be positive; every caller multiplies positive denominators.
    """
    n = len(nums)
    lead = 0
    while lead < n and not nums[lead]:
        lead += 1
    s._frontier = val + n
    if lead == n:
        s._val, s._nums, s._den = val + n, (), 1
        return s
    if lead:
        nums = nums[lead:]
    if den != 1:
        nums, den = _reduced(nums, den)
    s._val = val + lead
    s._nums = tuple(nums)
    s._den = den
    return s


def _canonical(val: int, nums, den: int) -> "Series":
    return _fill(object.__new__(Series), val, nums, den)


class Series:
    """Immutable truncated Laurent series with exact coefficients."""

    __slots__ = ("_val", "_nums", "_den", "_frontier")

    def __init__(self, valuation: int, coeffs):
        pairs = [_ratio(c) for c in coeffs]
        den = lcm(*(q for _, q in pairs))
        _fill(self, valuation, [p * (den // q) for p, q in pairs], den)

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, frontier: int) -> "Series":
        return _raw(frontier, (), 1, frontier)

    @classmethod
    def poly(cls, terms: dict, frontier: int) -> "Series":
        """Series from {exponent: coefficient}; exact up to the frontier."""
        if not terms:
            return cls.zero(frontier)
        lo = min(terms)
        if max(terms) >= frontier:
            raise SeriesError(f"polynomial term beyond the O(z^{frontier}) window")
        pairs = [(e, *_ratio(c)) for e, c in terms.items()]
        den = lcm(*(q for _, _, q in pairs))
        nums = [0] * (frontier - lo)
        for e, p, q in pairs:
            nums[e - lo] = p * (den // q)
        return _canonical(lo, nums, den)

    # -- structure ---------------------------------------------------------

    @property
    def valuation(self) -> int:
        return self._val

    @property
    def coeffs(self) -> tuple:
        """The window's coefficients as `Fraction`s.  No package route reads
        them: the tests and the benchmark's layer trace do."""
        from fractions import Fraction

        den = self._den
        return tuple(Fraction(x, den) for x in self._nums)

    @property
    def order(self) -> int:
        """Number of known coefficients (window length)."""
        return len(self._nums)

    @property
    def frontier(self) -> int:
        """Exponent of the O(z**frontier) error term."""
        return self._frontier

    def is_zero(self) -> bool:
        return not self._nums

    def window(self, lo: int, hi: int) -> tuple[list[int], int]:
        """(nums, den): the coefficient of z**e is nums[e - lo] / den for
        lo <= e < hi, with den the series' common denominator.

        Exponents below the valuation are exactly zero for a normalized
        series; exponents at or beyond the frontier are unknown and raise.
        """
        if hi > self._frontier:
            raise SeriesError(
                f"coefficient of z^{hi - 1} requested, but the series is only known "
                f"on [{self._val}, {self._frontier})"
            )
        val = self._val
        if lo >= val:
            return list(self._nums[lo - val : hi - val]), self._den
        return [0] * (min(hi, val) - lo) + list(self._nums[: max(hi - val, 0)]), self._den

    def integer_coeff(self, n: int, name: str) -> int:
        """[z^n], which must be an integer; checked, not rounded.  ``name``
        names the series in the error."""
        (x,), den = self.window(n, n + 1)
        if x % den:
            raise ValueError(f"{name} has non-integer z^{n} coefficient {_ratio_text(x, den)}")
        return x // den

    # -- ring operations ---------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, Series):
            if not isinstance(other, int):
                return NotImplemented
            if not other or self._frontier <= 0:
                return self  # the constant is zero or outside the window
            other = Series.poly({0: other}, self._frontier)
        frontier = min(self._frontier, other._frontier)
        lo = min(self._val, other._val, frontier)
        den = self._den if self._den == other._den else lcm(self._den, other._den)
        out = [0] * (frontier - lo)
        for src in (self, other):
            scale = den // src._den
            for i, x in enumerate(src._nums[: max(frontier - src._val, 0)], src._val - lo):
                out[i] += x * scale
        return _canonical(lo, out, den)

    __radd__ = __add__

    def __neg__(self):
        return _raw(self._val, tuple(-x for x in self._nums), self._den, self._frontier)

    def __sub__(self, other):
        if not isinstance(other, (Series, int)):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if not isinstance(other, Series):
            if not isinstance(other, int):
                return NotImplemented
            if not other:
                return Series.zero(self._frontier)
            return _canonical(self._val, [x * other for x in self._nums], self._den)
        frontier = min(self._frontier + other._val, other._frontier + self._val)
        if not self._nums or not other._nums:
            return Series.zero(frontier)
        val = self._val + other._val
        n = frontier - val  # == min(self.order, other.order)
        return _canonical(val, _mul_ints(self._nums, other._nums, n), self._den * other._den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, int):
            if not other:
                raise ZeroDivisionError("series divided by zero scalar")
            if other < 0:  # the denominator stays positive
                return -self / -other
            return _canonical(self._val, self._nums, self._den * other)
        if not isinstance(other, Series):
            return NotImplemented
        return self * other.reciprocal()

    def __pow__(self, n: int):
        """self**n for an integer n >= 1, by repeated squaring."""
        if not isinstance(n, int) or n < 1:
            raise SeriesError(f"series powers must be integers >= 1, got {n!r}")
        acc = None
        base = self
        while n:
            if n & 1:
                acc = base if acc is None else acc * base
            n >>= 1
            if n:
                base = base * base
        return acc

    def shift(self, m: int) -> "Series":
        """Multiply by z**m (exact; the window shifts with it)."""
        return _raw(self._val + m, self._nums, self._den, self._frontier + m)

    def truncate(self, frontier: int) -> "Series":
        """Forget coefficients at or beyond the given exponent."""
        if frontier >= self._frontier:
            return self
        if frontier <= self._val:
            return Series.zero(frontier)
        return _canonical(self._val, self._nums[: frontier - self._val], self._den)

    def reciprocal(self) -> "Series":
        """Multiplicative inverse as a Laurent series.

        The lead coefficient must be visible on the window; a series that
        is zero to its order has no reciprocal.
        """
        a, den = self._nums, self._den
        if not a:
            raise SeriesError("no reciprocal: series is zero to its order")
        (sp,), sq = _reduced([den], a[0])
        # a(z) v - den = 0 with v(0) = den / a0
        poly = {1: {i: x for i, x in enumerate(a) if x}, 0: {0: -den}}
        return _canonical(-self._val, *_solve_ints(poly, sp, sq, len(a)))

    def sqrt(self) -> "Series":
        """Square root with positive leading coefficient.

        Requires an even valuation and a leading coefficient that is the
        square of a rational; anything else has no Laurent square root
        and raises (no fractional exponents are ever produced).
        """
        a, den = self._nums, self._den
        if not a:
            raise SeriesError("square root of a series with no visible nonzero term")
        if self._val % 2:
            raise SeriesError(
                f"odd valuation {self._val}: no Laurent square root exists"
            )
        g = gcd(a[0], den)
        p, q = a[0] // g, den // g
        rp, rq = isqrt(abs(p)), isqrt(q)
        if rp * rp != p or rq * rq != q:  # a negative p fails the first test
            raise SeriesError(
                f"leading coefficient {_ratio_text(p, q)} is not the square of a rational"
            )
        # den v^2 - a(z) = 0 with v(0) = rp / rq
        poly = {2: {0: den}, 0: {i: -x for i, x in enumerate(a) if x}}
        return _canonical(self._val // 2, *_solve_ints(poly, rp, rq, len(a)))

    # -- comparisons -------------------------------------------------------

    def agrees(self, other: "Series", upto: int | None = None) -> bool:
        """True if the two series coincide on their shared window.

        With ``upto`` the comparison is demanded through exponent
        ``upto - 1``.  A shared window that ends short of it, or (without
        ``upto``) at or below both valuations, supports no comparison, so
        this raises instead of vacuously passing.
        """
        diff = self - other
        if upto is None:
            if diff.frontier <= min(self._val, other._val):
                raise SeriesError(f"nothing to compare: shared window ends at O(z^{diff.frontier})")
            return diff.is_zero()
        if upto > diff.frontier:
            raise SeriesError(
                f"cannot compare through z^{upto - 1}: shared window ends "
                f"at O(z^{diff.frontier})"
            )
        return diff.truncate(upto).is_zero()

    def __eq__(self, other):
        if not isinstance(other, Series):
            return NotImplemented
        return (
            self._val == other._val
            and self._den == other._den
            and self._frontier == other._frontier
            and self._nums == other._nums
        )

    __hash__ = None

    # -- presentation ------------------------------------------------------

    def __str__(self) -> str:
        parts = []
        den = self._den
        for e, x in enumerate(self._nums, self._val):
            if not x:
                continue
            a = _ratio_text(abs(x), den)
            if e == 0:
                mono = a
            else:
                zs = "z" if e == 1 else f"z^{e}"
                mono = zs if a == "1" else f"{a}*{zs}"
            if not parts:
                parts.append(mono if x > 0 else f"-{mono}")
            else:
                parts.append(f"+ {mono}" if x > 0 else f"- {mono}")
        body = " ".join(parts) if parts else "0"
        return f"{body} + O(z^{self._frontier})"

    def __repr__(self) -> str:
        return f"Series(valuation={self._val}, order={self.order}, frontier={self._frontier})"

    def to_json(self) -> dict:
        """Exact-string JSON form: {valuation, order, coeffs}, each
        coefficient written as a `Fraction` prints it."""
        return {
            "valuation": self._val,
            "order": self.order,
            "coeffs": [_ratio_text(x, self._den) for x in self._nums],
        }


def horner(poly: dict, v: Series) -> Series:
    """P(v(z), z) by Horner's rule, for P = {v-power: {z-exponent: coefficient}}.

    The z-polynomials are exact: they enter on a window wide enough that
    only the window of ``v`` limits the result's.  A gap of several
    powers between two coefficients is one `Series.__pow__`, computed
    once per gap size (the kernels have two gaps of t - 1).
    """
    # a power whose coefficients are all zero, (0, q) pairs included, is absent
    powers = sorted((p for p, zp in poly.items() if any(_ratio(c)[0] for c in zp.values())), reverse=True)
    max_zexp = max((e for zp in poly.values() for e in zp), default=0)
    frontier = v.order + max_zexp + 1 + max(powers, default=0) * max(v.valuation, 0)
    acc = Series.zero(frontier)
    v_pow = {}
    for p, below in zip(powers, powers[1:] + [0]):
        acc = acc + Series.poly(poly[p], frontier)
        if p > below:
            gap = p - below
            if gap not in v_pow:
                v_pow[gap] = v**gap
            acc = acc * v_pow[gap]
    return acc


def newton_root(poly: dict, seed, order: int) -> Series:
    """Series root of P(v, z) = 0 with v(0) = seed, known to O(z**order).

    ``poly`` maps each v-power to {z-exponent: coefficient}, as `horner`
    reads it, each coefficient an int or an integer pair (p, q) for p/q.
    The seed is an int or such a pair too, and it must be a simple root of
    P(v, 0): a vanishing derivative means the root ramifies at z = 0 and
    needs a substitution first (fractional-power expansions are out of
    scope).  The coefficients are fixed one at a time by `_solve_ints`,
    in z^g for g the gcd of the polynomial's own z-exponents, never read
    from the counting table; the name is kept from the Newton iteration
    this replaced.  The residual P(v) is then checked by
    `horner` at the full order, and a nonzero residual raises.
    """
    sp, sq = _ratio(seed)
    if order < 1:
        raise ValueError("order must be at least 1")
    ratios = {p: {e: _ratio(c) for e, c in zp.items() if c} for p, zp in poly.items()}
    scale = lcm(*(q for zp in ratios.values() for _, q in zp.values()))
    ints = {p: {e: c * (scale // q) for e, (c, q) in zp.items()} for p, zp in ratios.items() if zp}
    v = _canonical(0, *_solve_ints(ints, sp, sq, order))
    residual = horner(poly, v).truncate(order)
    if not residual.is_zero():
        raise SeriesError("root expansion failed to cancel the residual")
    return v
