"""Truncated Laurent series over exact rationals, with a Newton root solver.

Every series here stands for

    sum(coeffs[i] * z**(valuation + i) for i in range(len(coeffs))) + O(z**frontier)

with ``frontier = valuation + len(coeffs)``.  Precision is tracked
explicitly: arithmetic returns results on the window the operands actually
support (the min-rule for addition, shifted by valuations for products)
and never claims coefficients beyond it.  Coefficients are stored as
`fractions.Fraction` values and floats are rejected outright.

The quadratic kernels (products, reciprocals, square roots) do not do
`Fraction` arithmetic: each operand is put over one common denominator,
the O(n^2) work runs on the Python-int numerators, and every output
coefficient is normalised back to a `Fraction` once.  Reciprocals and
square roots are Newton iterations that double their working precision
on each step (Brent & Kung 1978; von zur Gathen & Gerhard, *Modern
Computer Algebra*, ch. 9), and so is `newton_root`.

Negative exponents are supported down to any finite valuation, which is
all the counting work needs (the useful algebraic roots have a single
1/z term).  Fractional exponents are not supported: roots that ramify at
z=0 must be removed by an explicit substitution before solving.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, isqrt, lcm


class SeriesError(ValueError):
    """An operation a truncated series cannot honestly perform."""


def _as_fraction(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    # bool is an int subclass; no other types are exact
    raise TypeError(f"exact rational coefficient expected, got {type(x).__name__}")


def _fraction_sqrt(x: Fraction) -> Fraction | None:
    """Exact square root of a nonnegative rational, or None."""
    if x < 0:
        return None
    p, q = x.numerator, x.denominator
    rp, rq = isqrt(p), isqrt(q)
    if rp * rp != p or rq * rq != q:
        return None
    return Fraction(rp, rq)


# -- integer kernels ---------------------------------------------------------
#
# A vector of rationals travels as (nums, den): the value of entry i is
# nums[i] / den, with den > 0 and gcd(den, *nums) == 1.


def _to_ints(coeffs) -> tuple[list[int], int]:
    """Numerators of `coeffs` over their least common denominator."""
    den = lcm(*(c.denominator for c in coeffs))
    if den == 1:
        return [c.numerator for c in coeffs], 1
    return [c.numerator * (den // c.denominator) for c in coeffs], den


def _to_fractions(nums: list[int], den: int) -> list[Fraction]:
    if den == 1:
        return [Fraction(x) for x in nums]
    return [Fraction(x, den) for x in nums]


def _reduced(nums: list[int], den: int) -> tuple[list[int], int]:
    """(nums, den) with the common factor removed and den > 0."""
    g = gcd(den, *nums)
    if den < 0:
        g = -g
    if g == 1:
        return nums, den
    return [x // g for x in nums], den // g


def _mul_ints(a: list[int], b: list[int], n: int) -> list[int]:
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


def _reciprocal_ints(a: list[int], den: int, n: int) -> tuple[list[int], int]:
    """First n coefficients of den / a(z), for a(0) != 0.

    Newton's iteration x <- x + x (1 - (a/den) x), doubling the number of
    correct coefficients each step.  With x/e right to h terms, the
    product (a/den)(x/e) = p/(den e) is 1 + O(z^h), so the correction
    x (1 - p/(den e)) only has terms from z^h on and only p[h:] enters.
    """
    x, e = _reduced([den], a[0])  # x = den / a0
    while len(x) < n:
        h = len(x)
        m = min(2 * h, n)
        p = _mul_ints(a, x, m)
        de = den * e
        x = [c * de for c in x] + _mul_ints(x, [-c for c in p[h:m]], m - h)
        x, e = _reduced(x, de * e)
    return x, e


def _inverse_sqrt_ints(
    a: list[int], den: int, r0: Fraction, n: int
) -> tuple[list[int], int]:
    """First n coefficients of (a(z)/den)^(-1/2) with constant term 1/r0.

    Newton's iteration w <- w + w (1 - (a/den) w^2) / 2; as for the
    reciprocal, (a/den)(w/f)^2 = p/(den f^2) is 1 + O(z^h) once w/f is
    right to h terms.
    """
    w, f = [r0.denominator], r0.numerator
    while len(w) < n:
        h = len(w)
        m = min(2 * h, n)
        p = _mul_ints(a, _mul_ints(w, w, m), m)
        scale = 2 * den * f * f
        w = [c * scale for c in w] + _mul_ints(w, [-c for c in p[h:m]], m - h)
        w, f = _reduced(w, scale * f)
    return w, f


class Series:
    """Immutable truncated Laurent series with exact coefficients."""

    __slots__ = ("_val", "_coeffs", "_frontier")

    def __init__(self, valuation: int, coeffs):
        cs = [_as_fraction(c) for c in coeffs]
        frontier = valuation + len(cs)
        lead = 0
        while lead < len(cs) and cs[lead] == 0:
            lead += 1
        # normalized: leading stored coefficient is nonzero, or the series is
        # identically zero on its window (empty coefficient tuple)
        self._coeffs = tuple(cs[lead:])
        self._val = valuation + lead if self._coeffs else frontier
        self._frontier = frontier

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, frontier: int) -> "Series":
        return cls(frontier, [])

    @classmethod
    def constant(cls, c, frontier: int) -> "Series":
        return cls.monomial(c, 0, frontier)

    @classmethod
    def one(cls, frontier: int) -> "Series":
        return cls.monomial(1, 0, frontier)

    @classmethod
    def monomial(cls, c, exp: int, frontier: int) -> "Series":
        if exp >= frontier:
            raise SeriesError(
                f"window up to O(z^{frontier}) cannot hold a z^{exp} term"
            )
        return cls(exp, [c] + [0] * (frontier - exp - 1))

    @classmethod
    def poly(cls, terms: dict, frontier: int) -> "Series":
        """Series from {exponent: coefficient}; exact up to the frontier."""
        if not terms:
            return cls.zero(frontier)
        lo = min(terms)
        if max(terms) >= frontier:
            raise SeriesError(f"polynomial term beyond the O(z^{frontier}) window")
        cs = [Fraction(0)] * (frontier - lo)
        for e, c in terms.items():
            cs[e - lo] = _as_fraction(c)
        return cls(lo, cs)

    # -- structure ---------------------------------------------------------

    @property
    def valuation(self) -> int:
        return self._val

    @property
    def coeffs(self) -> tuple:
        return self._coeffs

    @property
    def order(self) -> int:
        """Number of known coefficients (window length)."""
        return len(self._coeffs)

    @property
    def frontier(self) -> int:
        """Exponent of the O(z**frontier) error term."""
        return self._frontier

    def is_zero(self) -> bool:
        return not self._coeffs

    def coeff(self, n: int) -> Fraction:
        """Exact coefficient of z**n.

        Exponents below the valuation are exactly zero for a normalized
        series; exponents at or beyond the frontier are unknown and raise.
        """
        if n >= self._frontier:
            raise SeriesError(
                f"coefficient of z^{n} requested, but the series is only known "
                f"on [{self._val}, {self._frontier})"
            )
        if n < self._val:
            return Fraction(0)
        return self._coeffs[n - self._val]

    def terms(self):
        """Iterate (exponent, coefficient) over nonzero known terms."""
        for i, c in enumerate(self._coeffs):
            if c != 0:
                yield self._val + i, c

    # -- ring operations ---------------------------------------------------

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            if other == 0:
                return self
            other = Series.constant(other, self._frontier)
        if not isinstance(other, Series):
            return NotImplemented
        frontier = min(self._frontier, other._frontier)
        lo = min(self._val, other._val, frontier)
        parts = [
            (src._val - lo, *_to_ints(src._coeffs[: max(frontier - src._val, 0)]))
            for src in (self, other)
        ]
        den = lcm(parts[0][2], parts[1][2])
        out = [0] * (frontier - lo)
        for offset, nums, d in parts:
            scale = den // d
            for i, x in enumerate(nums, offset):
                out[i] += x * scale
        return Series(lo, _to_fractions(*_reduced(out, den)))

    __radd__ = __add__

    def __neg__(self):
        res = Series.__new__(Series)
        res._val = self._val
        res._coeffs = tuple(-c for c in self._coeffs)
        res._frontier = self._frontier
        return res

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            return self + (-other)
        if not isinstance(other, Series):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            k = _as_fraction(other)
            if k == 0:
                return Series.zero(self._frontier)
            res = Series.__new__(Series)
            res._val = self._val
            res._coeffs = tuple(c * k for c in self._coeffs)
            res._frontier = self._frontier
            return res
        if not isinstance(other, Series):
            return NotImplemented
        frontier = min(self._frontier + other._val, other._frontier + self._val)
        if self.is_zero() or other.is_zero():
            return Series.zero(frontier)
        val = self._val + other._val
        n = frontier - val  # == min(self.order, other.order)
        a, da = _to_ints(self._coeffs[:n])
        b, db = _to_ints(other._coeffs[:n])
        return Series(val, _to_fractions(*_reduced(_mul_ints(a, b, n), da * db)))

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            k = _as_fraction(other)
            if k == 0:
                raise ZeroDivisionError("series divided by zero scalar")
            return self * (1 / k)
        if not isinstance(other, Series):
            return NotImplemented
        return self * other.reciprocal()

    def __pow__(self, n: int):
        if not isinstance(n, int):
            raise TypeError("series powers must be integers")
        if n < 0:
            return self.reciprocal() ** (-n)
        if n == 0:
            return Series.one(max(self.order, 1))
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
        res = Series.__new__(Series)
        res._val = self._val + m
        res._coeffs = self._coeffs
        res._frontier = self._frontier + m
        return res

    def truncate(self, frontier: int) -> "Series":
        """Forget coefficients at or beyond the given exponent."""
        if frontier >= self._frontier:
            return self
        if frontier <= self._val:
            return Series.zero(frontier)
        return Series(self._val, list(self._coeffs[: frontier - self._val]))

    def reciprocal(self) -> "Series":
        """Multiplicative inverse as a Laurent series.

        The lead coefficient must be visible on the window; a series that
        is zero to its order has no reciprocal.
        """
        if self.is_zero():
            raise SeriesError("no reciprocal: series is zero to its order")
        a, den = _to_ints(self._coeffs)
        return Series(-self._val, _to_fractions(*_reciprocal_ints(a, den, len(a))))

    def sqrt(self) -> "Series":
        """Square root with positive leading coefficient.

        Requires an even valuation and a leading coefficient that is the
        square of a rational; anything else has no Laurent square root
        and raises (no fractional exponents are ever produced).
        """
        if self.is_zero():
            raise SeriesError("square root of a series with no visible nonzero term")
        if self._val % 2:
            raise SeriesError(
                f"odd valuation {self._val}: no Laurent square root exists"
            )
        c = self._coeffs
        r0 = _fraction_sqrt(c[0])
        if r0 is None or r0 == 0:
            raise SeriesError(
                f"leading coefficient {c[0]} is not the square of a rational"
            )
        a, den = _to_ints(c)
        n = len(a)
        w, f = _inverse_sqrt_ints(a, den, r0, n)
        # sqrt(a) = a * a^(-1/2)
        root = _reduced(_mul_ints(a, w, n), den * f)
        return Series(self._val // 2, _to_fractions(*root))

    # -- comparisons -------------------------------------------------------

    def agrees(self, other: "Series", upto: int | None = None) -> bool:
        """True if the two series coincide on their shared window.

        With ``upto`` the comparison is demanded through exponent
        ``upto - 1``; if the shared window is smaller the data does not
        support the comparison and this raises instead of vacuously
        passing.
        """
        diff = self - other
        if upto is not None:
            if upto > diff.frontier:
                raise SeriesError(
                    f"cannot compare through z^{upto - 1}: shared window ends "
                    f"at O(z^{diff.frontier})"
                )
            diff = diff.truncate(upto)
        return diff.is_zero()

    def __eq__(self, other):
        if not isinstance(other, Series):
            return NotImplemented
        return (
            self._val == other._val
            and self._coeffs == other._coeffs
            and self._frontier == other._frontier
        )

    __hash__ = None

    # -- presentation ------------------------------------------------------

    def __str__(self) -> str:
        parts = []
        for e, c in self.terms():
            if e == 0:
                mono = str(abs(c))
            else:
                zs = "z" if e == 1 else f"z^{e}"
                a = abs(c)
                mono = zs if a == 1 else f"{a}*{zs}"
            if not parts:
                parts.append(mono if c > 0 else f"-{mono}")
            else:
                parts.append(f"+ {mono}" if c > 0 else f"- {mono}")
        body = " ".join(parts) if parts else "0"
        return f"{body} + O(z^{self._frontier})"

    def __repr__(self) -> str:
        return f"Series(valuation={self._val}, order={self.order}, frontier={self._frontier})"

    def to_json(self) -> dict:
        """Exact-string JSON form: {valuation, order, coeffs}."""
        return {
            "valuation": self._val,
            "order": self.order,
            "coeffs": [str(c) for c in self._coeffs],
        }


class AlgebraicEq:
    """Polynomial P(v, z) with exact z-polynomial coefficients.

    ``coeffs_by_power`` maps each v-power to {z-exponent: coefficient}.
    Used as input to `newton_root`, which expands the unique series
    solution v(z) through a simple (unramified) root of P(v, 0).
    """

    def __init__(self, coeffs_by_power: dict):
        table: dict[int, dict[int, Fraction]] = {}
        for p, zpoly in coeffs_by_power.items():
            if not isinstance(p, int) or p < 0:
                raise ValueError(f"bad unknown-power {p!r}")
            cleaned = {}
            for e, c in zpoly.items():
                if not isinstance(e, int) or e < 0:
                    raise ValueError(f"bad z-exponent {e!r}")
                c = _as_fraction(c)
                if c != 0:
                    cleaned[e] = c
            if cleaned:
                table[p] = cleaned
        if not table:
            raise ValueError("equation has no nonzero coefficient")
        self._table = table
        self._degree = max(table)
        self._max_zexp = max(max(zp) for zp in table.values())

    @property
    def degree(self) -> int:
        return self._degree

    @property
    def coeffs_by_power(self) -> dict:
        return {p: dict(zp) for p, zp in self._table.items()}

    def derivative(self) -> "AlgebraicEq":
        """Formal derivative with respect to the unknown."""
        d = {}
        for p, zpoly in self._table.items():
            if p >= 1:
                d[p - 1] = {e: p * c for e, c in zpoly.items()}
        if not d:
            raise SeriesError("derivative is identically zero")
        return AlgebraicEq(d)

    def eval_at_origin(self, v0) -> Fraction:
        """P(v0, 0) for a rational v0."""
        v0 = _as_fraction(v0)
        acc = Fraction(0)
        for p, zpoly in self._table.items():
            c0 = zpoly.get(0)
            if c0:
                acc += c0 * v0**p
        return acc

    def eval(self, v: Series) -> Series:
        """P(v(z), z) by Horner's rule at full working precision."""
        frontier = v.frontier + self._max_zexp + 1
        acc = Series.zero(frontier)
        for p in range(self._degree, -1, -1):
            acc = acc * v if p < self._degree else acc
            zpoly = self._table.get(p)
            if zpoly:
                acc = acc + Series.poly(zpoly, frontier)
        return acc


def newton_root(eq: AlgebraicEq, seed, order: int) -> Series:
    """Series root of P(v, z) = 0 with v(0) = seed, known to O(z**order).

    The seed must be a simple root of P(v, 0): a vanishing derivative
    means the root ramifies at z = 0 and needs a substitution first
    (fractional-power expansions are out of scope).  Each iteration
    doubles the number of correct coefficients, so step k works on a
    window of min(2**k, order) coefficients only: with v right to h
    terms, v - P(v)/P'(v) is right to 2h, and P'(v) is needed to just h
    terms.  The residual is checked at the full order after the final
    step and a nonzero residual raises.
    """
    seed = _as_fraction(seed)
    if order < 1:
        raise ValueError("order must be at least 1")
    if eq.eval_at_origin(seed) != 0:
        raise SeriesError(f"seed {seed} is not a root of P(v, 0)")
    deq = eq.derivative()
    if deq.eval_at_origin(seed) == 0:
        raise SeriesError(
            f"root at seed {seed} is ramified (derivative vanishes at z=0); "
            "apply a normalizing substitution before solving"
        )
    v = Series.constant(seed, 1)
    m = 1
    while m < order:
        h, m = m, min(2 * m, order)
        v = Series(v.valuation, v.coeffs + (0,) * (m - v.frontier))  # to O(z^m)
        residual = eq.eval(v).truncate(m)
        if not residual.is_zero():
            step = residual * deq.eval(v.truncate(m - h)).reciprocal()
            v = (v - step).truncate(m)
    residual = eq.eval(v).truncate(order)
    if not residual.is_zero():
        raise SeriesError("newton iteration failed to cancel the residual")
    return v
