"""Series-ring unit tests: exact arithmetic, precision tracking, root solving."""

import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from skewdyck import series as series_module
from skewdyck.series import Series, SeriesError, horner, newton_root

# The package's exact scalars are ints and integer pairs (p, q); these
# tests keep `Fraction` as their reference model and convert at the border.


def as_pair(c):
    """An int as it is, a `Fraction` as the pair (numerator, denominator)."""
    return c if isinstance(c, int) else (c.numerator, c.denominator)


def as_pairs(poly):
    """A polynomial {power: {z-exponent: coefficient}} with pair coefficients."""
    return {p: {e: as_pair(c) for e, c in zp.items()} for p, zp in poly.items()}


def series_of(val, coeffs):
    """A series from `Fraction` (or int) coefficients."""
    return Series(val, [as_pair(c) for c in coeffs])


def scaled(s, k):
    """s times the rational k, by integer operands."""
    k = Fraction(k)
    return s * k.numerator / k.denominator


def coeff(s, n):
    """[z^n] of s as a `Fraction`, read from `Series.window`."""
    (x,), den = s.window(n, n + 1)
    return Fraction(x, den)


def rand_series(rng, nonzero_lead=False, val_range=(-3, 3), max_order=8):
    val = rng.randint(*val_range)
    order = rng.randint(1, max_order)
    coeffs = [Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(order)]
    if nonzero_lead and all(c == 0 for c in coeffs):
        coeffs[0] = Fraction(1)
    if nonzero_lead and coeffs[0] == 0:
        coeffs[0] = Fraction(rng.randint(1, 6))
    return series_of(val, coeffs)


def reaches_a_coefficient(x, y):
    # `agrees` refuses a shared window that ends at or below both valuations
    return min(x.frontier, y.frontier) > min(x.valuation, y.valuation)


class TestArithmetic:
    def test_mul_polynomials(self):
        a = Series.poly({0: 1, 1: 1}, 10)
        b = Series.poly({0: 1, 1: -1}, 10)
        assert (a * b).agrees(Series.poly({0: 1, 2: -1}, 10))

    def test_mul_laurent_square(self):
        s = Series.poly({-1: 1, 2: -1}, 10)
        sq = s * s
        assert sq.valuation == -2
        assert coeff(sq, -2) == 1
        assert coeff(sq, 1) == -2
        assert coeff(sq, 4) == 1
        assert coeff(sq, 0) == 0

    def test_scalar_ops(self):
        a = Series.poly({1: 2, 3: -4}, 8)
        assert coeff(a * -3, 1) == -6
        assert coeff(a / 2, 3) == -2
        assert coeff(a / -8, 1) == Fraction(-1, 4)
        assert coeff(1 + a, 0) == 1
        assert coeff(a - 2, 0) == -2

    @pytest.mark.parametrize("n", [0, -1, -3])
    def test_power_below_one_raises(self, n):
        # no package call takes a power below 1, so none is accepted
        with pytest.raises(SeriesError, match="integers >= 1"):
            Series.poly({0: 1, 1: 1}, 6) ** n

    def test_add_min_frontier(self):
        a = Series.poly({0: 1}, 12)
        b = Series.poly({0: 1}, 5)
        assert (a + b).frontier == 5
        # an int is a term at z^0: on a window that ends at or below z^0
        # it is outside, and the sum is the series, as with a series term
        s = Series.poly({-3: 1}, 0)
        assert s + 1 == s - 1 == s + b == s
        assert 1 - s == -s
        assert Series.zero(0) + 5 == 5 + Series.zero(0) == Series.zero(0)
        assert Series.zero(-2) - 3 == Series.zero(-2)

    def test_mul_frontier_shifts_with_valuation(self):
        # a = z^-2 known to O(z^4): 6 coefficients; times z^3 exactly
        a = Series(-2, [1, 0, 0, 0, 0, 1])
        b = Series.poly({3: 1}, 20)
        prod = a * b
        assert prod.valuation == 1
        assert prod.order == a.order
        assert prod.frontier == a.frontier + 3

    def test_float_rejected(self):
        with pytest.raises(TypeError):
            Series(0, [0.5])

    def test_fraction_rejected(self):
        # an int or an integer pair is the only exact scalar; a Fraction,
        # like a float, is refused wherever it enters
        half = Fraction(1, 2)
        s = Series.poly({0: 1, 1: 2}, 6)
        entries = [
            lambda: Series(0, [half]),
            lambda: Series.poly({0: half}, 4),
            lambda: s * half,
            lambda: half * s,
            lambda: s + half,
            lambda: half + s,
            lambda: s - half,
            lambda: s / half,
            lambda: newton_root({2: {1: 1}, 1: {0: -1}, 0: {0: 1}}, Fraction(1), 8),
            lambda: newton_root({2: {0: 4}, 1: {1: 1}, 0: {0: -1}}, half, 8),
            lambda: newton_root({2: {0: 1}, 1: {1: half}, 0: {0: -1}}, 1, 8),
            lambda: series_module._ratio(half),
        ]
        for entry in entries:
            with pytest.raises(TypeError):
                entry()

    def test_normalization_keeps_frontier(self):
        a = Series(0, [0, 0, 3, 0])
        assert a.valuation == 2
        assert a.frontier == 4
        assert coeff(a, 0) == 0
        assert coeff(a, 3) == 0

    def test_integer_coeff(self):
        # an integer coefficient comes back as an int; any other is refused
        a = Series.poly({-1: 3, 0: (4, 2), 1: (1, 6)}, 4)
        assert [a.integer_coeff(n, "a") for n in (-2, -1, 0)] == [0, 3, 2]
        assert type(a.integer_coeff(0, "a")) is int
        with pytest.raises(ValueError, match=r"^a has non-integer z\^1 coefficient 1/6$"):
            a.integer_coeff(1, "a")
        with pytest.raises(SeriesError, match=r"\[-1, 4\)"):
            a.integer_coeff(4, "a")

    def test_coeff_window_error(self):
        a = Series.poly({0: 1}, 4)
        with pytest.raises(SeriesError, match=r"\[0, 4\)"):
            coeff(a, 4)

    def test_agrees_refuses_a_comparison_of_nothing(self):
        # z^5 + O(z^9) and O(z^4) share the window below z^4, where both
        # are zero only because they start later: nothing is compared
        late, short = Series.poly({5: 1}, 9), Series.zero(4)
        with pytest.raises(SeriesError, match=r"nothing to compare: .*O\(z\^4\)"):
            late.agrees(short)
        with pytest.raises(SeriesError, match="nothing to compare"):
            Series.zero(6).agrees(Series.zero(6))
        # one known coefficient on the shared window is a comparison
        assert not late.agrees(Series.poly({3: 1}, 4))
        assert Series.poly({3: 1}, 9).agrees(Series.poly({3: 1}, 4))

    def test_ring_axioms_randomized(self):
        rng = random.Random(20240601)
        compared = 0
        for _ in range(100):
            a, b, c = (rand_series(rng) for _ in range(3))
            for left, right in (
                ((a + b) + c, a + (b + c)),
                (a * b, b * a),
                (a * (b + c), a * b + a * c),
            ):
                if reaches_a_coefficient(left, right):
                    assert left.agrees(right)
                    compared += 1
        assert compared > 250


class TestReciprocal:
    def test_geometric(self):
        inv = Series.poly({0: 1, 1: -1}, 12).reciprocal()
        assert all(coeff(inv, n) == 1 for n in range(12))

    def test_zero_raises(self):
        with pytest.raises(SeriesError, match="no reciprocal"):
            Series.zero(6).reciprocal()

    def test_involution_randomized(self):
        rng = random.Random(99)
        for _ in range(100):
            a = rand_series(rng, nonzero_lead=True)
            back = a.reciprocal().reciprocal()
            assert back.agrees(a)

    def test_mul_recip_is_one(self):
        rng = random.Random(7)
        for _ in range(100):
            a = rand_series(rng, nonzero_lead=True)
            prod = a * a.reciprocal()
            assert prod.valuation == 0
            assert coeff(prod, 0) == 1
            assert (prod - 1).is_zero()


class TestSqrt:
    def test_sqrt_one(self):
        assert Series.poly({0: 1}, 8).sqrt().agrees(Series.poly({0: 1}, 8))

    def test_sqrt_discriminant_squares_back(self):
        a = Series.poly({0: 1, 1: -8, 2: 4}, 24)
        root = a.sqrt()
        assert coeff(root, 0) == 1
        assert coeff(root, 1) == -4
        assert coeff(root, 2) == -6
        assert (root * root - a).is_zero()

    def test_sqrt_squares_back_randomized(self):
        rng = random.Random(4242)
        for _ in range(100):
            order = rng.randint(2, 8)
            coeffs = [Fraction(1)] + [
                Fraction(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(order - 1)
            ]
            a = series_of(2 * rng.randint(-2, 2), coeffs)
            root = a.sqrt()
            assert (root * root - a).is_zero()
            assert root.coeffs[0] > 0

    def test_odd_valuation_rejected(self):
        with pytest.raises(SeriesError, match="odd valuation"):
            Series.poly({1: 1}, 8).sqrt()

    def test_nonsquare_lead_rejected(self):
        with pytest.raises(SeriesError, match="not the square"):
            Series.poly({0: 2, 1: 1}, 8).sqrt()


def catalan_oracle(n_terms):
    """Independent recurrence: c0 = 1, c(n+1) = sum(ci * c(n-i))."""
    c = [1]
    for n in range(1, n_terms):
        c.append(sum(c[i] * c[n - 1 - i] for i in range(n)))
    return c


class TestNewton:
    def test_catalan(self):
        eq = {2: {1: 1}, 1: {0: -1}, 0: {0: 1}}  # z v^2 - v + 1
        v = newton_root(eq, 1, 16)
        expected = catalan_oracle(16)
        assert [coeff(v, n) for n in range(16)] == expected

    def test_quartic_shifted_good_root(self):
        # v^4 - v^3 - z^3 v^2 + 2 z^3 v - z^6, the pole-cleared t=2 kernel
        eq = {4: {0: 1}, 3: {0: -1}, 2: {3: -1}, 1: {3: 2}, 0: {6: -1}}
        v = newton_root(eq, 1, 14)
        assert [coeff(v, n) for n in range(14)] == [
            1, 0, 0, -1, 0, 0, -2, 0, 0, -8, 0, 0, -39, 0,
        ]

    def test_halfseed_quartic(self):
        # z^6 w^4 - z^3 w^3 - z^3 w^2 + 2 w - 1, seed 1/2
        eq = {4: {6: 1}, 3: {3: -1}, 2: {3: -1}, 1: {0: 2}, 0: {0: -1}}
        w = newton_root(eq, (1, 2), 9)
        assert coeff(w, 0) == Fraction(1, 2)
        assert coeff(w, 3) == Fraction(3, 16)
        assert coeff(w, 6) == Fraction(17, 128)

    def test_residual_is_zero(self):
        eq = {2: {1: 1}, 1: {0: -1}, 0: {0: 1}}
        v = newton_root(eq, 1, 40)
        assert horner(eq, v).truncate(40).is_zero()

    def test_corrupted_expansion_raises(self, monkeypatch):
        # the full-order residual check catches a wrong last coefficient
        solve = series_module._solve_ints

        def corrupted(*args):
            nums, den = solve(*args)
            nums[-1] += 1
            return nums, den

        monkeypatch.setattr(series_module, "_solve_ints", corrupted)
        eq = {2: {1: 1}, 1: {0: -1}, 0: {0: 1}}
        with pytest.raises(SeriesError, match="failed to cancel the residual"):
            newton_root(eq, 1, 12)

    def test_bad_seed_rejected(self):
        eq = {2: {1: 1}, 1: {0: -1}, 0: {0: 1}}
        with pytest.raises(SeriesError, match="not a root"):
            newton_root(eq, 2, 8)

    def test_ramified_root_rejected(self):
        # v^2 - z ramifies at the origin: the classic square-root branch
        eq = {2: {0: 1}, 0: {1: -1}}
        with pytest.raises(SeriesError, match="ramified"):
            newton_root(eq, 0, 8)


class TestSerialization:
    def test_exact_strings(self):
        data = Series.poly({2: (1, 3)}, 4).to_json()
        assert all(isinstance(c, str) for c in data["coeffs"])
        a = Series(-1, [1, (-3, 16), 0, 2])
        assert a.to_json() == {
            "valuation": -1, "order": 4, "coeffs": ["1", "-3/16", "0", "2"],
        }


# -- property tests against a plain-Fraction schoolbook reference ------------
#
# The engine runs its quadratic kernels on integer numerators: products
# by schoolbook, and roots, reciprocals and square roots one coefficient
# at a time in the stride variable z^g, over denominators that grow only
# when a division is inexact.  The references below are the textbook
# coefficient recurrences on `Fraction`s, one term at a time in z, with
# no stride and one denominator per coefficient.

rationals = st.builds(Fraction, st.integers(-9, 9), st.integers(1, 6))
leads = st.sampled_from(
    [Fraction(1), Fraction(-1), Fraction(1, 2), Fraction(-3, 4), Fraction(5, 3)]
)
nonzero = leads | rationals.filter(bool)


@st.composite
def series(draw, nonzero_lead=False, max_order=12):
    val = draw(st.integers(-4, 4))
    order = draw(st.integers(1, max_order))
    coeffs = draw(st.lists(rationals, min_size=order, max_size=order))
    if nonzero_lead:
        coeffs[0] = draw(nonzero)
    return series_of(val, coeffs)


def ref_mul(a, b):
    frontier = min(a.frontier + b.valuation, b.frontier + a.valuation)
    if a.is_zero() or b.is_zero():
        return Series.zero(frontier)
    n = frontier - a.valuation - b.valuation
    out = [Fraction(0)] * n
    for i, x in enumerate(a.coeffs[:n]):
        for j, y in enumerate(b.coeffs[: n - i]):
            out[i + j] += x * y
    return series_of(a.valuation + b.valuation, out)


def ref_reciprocal(a):
    c = a.coeffs
    out = [1 / c[0]]
    for m in range(1, len(c)):
        out.append(-sum(c[i] * out[m - i] for i in range(1, m + 1)) / c[0])
    return series_of(-a.valuation, out)


def ref_sqrt(a, r0):
    c = a.coeffs
    out = [r0]
    for m in range(1, len(c)):
        out.append((c[m] - sum(out[i] * out[m - i] for i in range(1, m))) / (2 * r0))
    return series_of(a.valuation // 2, out)


def ref_root(table, seed, order):
    """Root of sum(z-poly * v^p) term by term: v_m = -[z^m] P(v_<m) / P_v(seed, 0)."""

    def times(x, y):
        return [sum(x[i] * y[m - i] for i in range(m + 1) if x[i]) for m in range(len(x))]

    def evaluate(v):
        # P(v) on the window of v
        n = len(v)
        acc = [Fraction(0)] * n
        for p, zpoly in table.items():
            term = [Fraction(0)] * n
            for e, c in zpoly.items():
                if e < n:
                    term[e] = Fraction(c)
            for _ in range(p):
                term = times(term, v)
            acc = [x + y for x, y in zip(acc, term)]
        return acc

    slope = sum(p * Fraction(zp.get(0, 0)) * seed ** (p - 1) for p, zp in table.items() if p)
    v = [seed]
    for m in range(1, order):
        v.append(-evaluate(v + [Fraction(0)])[m] / slope)
    return series_of(0, v)


def ref_horner(poly, v):
    """P(v) as the sum of its terms c z^e v^p, each power a chain of `ref_mul`.

    The constant terms (p = 0) are exact, so they are added on the window
    the other terms leave.
    """
    acc = None
    for p, zp in poly.items():
        if not p:
            continue
        vp = v
        for _ in range(p - 1):
            vp = ref_mul(vp, v)
        for e, c in zp.items():
            if c:
                term = scaled(vp, c).shift(e)
                acc = term if acc is None else acc + term
    consts = {e: c for e, c in poly.get(0, {}).items() if e < acc.frontier}
    return acc + Series.poly({e: as_pair(c) for e, c in consts.items()}, acc.frontier)


def stretched(b, g):
    """b(z^g), known on the window b's window stretches to."""
    coeffs = [0] * (g * b.order)
    coeffs[::g] = b.coeffs
    return series_of(g * b.valuation, coeffs)


polys = st.dictionaries(
    st.integers(0, 4),
    st.dictionaries(st.integers(0, 3), rationals, min_size=1, max_size=3),
    min_size=1,
    max_size=4,
)


class TestProperties:
    @settings(deadline=None, max_examples=200)
    @given(series(), series(), series())
    def test_ring_laws(self, a, b, c):
        assert (a * b) == (b * a)
        assert (a - a).is_zero()
        assert a * Series.poly({0: 1}, a.order + 1) == a
        laws = [
            ((a + b) + c, a + (b + c)),
            (a + b, b + a),
            ((a * b) * c, a * (b * c)),
            (a * (b + c), a * b + a * c),
        ]
        # a law whose two sides share no known coefficient checks nothing
        assume(all(reaches_a_coefficient(left, right) for left, right in laws))
        for left, right in laws:
            assert left.agrees(right)

    @settings(deadline=None, max_examples=200)
    @given(series(), series())
    def test_mul_matches_reference(self, a, b):
        assert a * b == ref_mul(a, b)

    @settings(deadline=None, max_examples=200)
    @given(series(nonzero_lead=True))
    def test_reciprocal_matches_reference(self, a):
        inv = a.reciprocal()
        assert inv == ref_reciprocal(a)
        assert inv.reciprocal() == a
        assert a * inv == Series.poly({0: 1}, a.order)

    @settings(deadline=None, max_examples=200)
    @given(series(nonzero_lead=True), nonzero)
    def test_sqrt_matches_reference(self, b, r0):
        # an even valuation and a square lead: scale b so its lead is r0**2
        a = scaled(b, r0 * r0 / b.coeffs[0])
        a = a.shift(-(a.valuation % 2))
        root = a.sqrt()
        assert root == ref_sqrt(a, abs(r0))
        assert root * root == a
        square = b * b
        assert square.sqrt() == (b if b.coeffs[0] > 0 else -b)

    @settings(deadline=None, max_examples=100)
    @given(
        st.dictionaries(
            st.integers(1, 4),
            st.dictionaries(st.integers(0, 3), rationals, max_size=3),
            min_size=1,
            max_size=4,
        ),
        nonzero | st.just(Fraction(0)),
        st.integers(1, 10),
    )
    def test_newton_root_matches_reference(self, table, seed, order):
        # the constant term puts a root at the seed: P(seed, 0) = 0
        c0 = -sum(Fraction(zp.get(0, 0)) * seed**p for p, zp in table.items())
        table = {**table, 0: {**table.get(0, {}), 0: c0}}
        slope = sum(p * Fraction(zp.get(0, 0)) * seed ** (p - 1) for p, zp in table.items() if p)
        assume(slope != 0)
        v = newton_root(as_pairs(table), as_pair(seed), order)
        assert v == ref_root(table, seed, order).truncate(order)
        assert v.frontier == order

    @settings(deadline=None, max_examples=100)
    @given(st.data(), st.integers(2, 4), nonzero | st.just(Fraction(0)), st.integers(1, 40))
    def test_newton_root_in_the_stride_variable(self, data, g, seed, order):
        # every z-exponent a multiple of g: the solver works in x = z^g
        table = data.draw(
            st.dictionaries(
                st.integers(1, 3),
                st.dictionaries(st.integers(0, 3).map(lambda k: g * k), rationals, max_size=3),
                min_size=1,
                max_size=3,
            )
        )
        c0 = -sum(Fraction(zp.get(0, 0)) * seed**p for p, zp in table.items())
        multiples = st.integers(1, 3).map(lambda k: g * k)
        consts = data.draw(st.dictionaries(multiples, rationals, max_size=2))
        table = {**table, 0: {**consts, 0: c0}}
        slope = sum(p * Fraction(zp.get(0, 0)) * seed ** (p - 1) for p, zp in table.items() if p)
        assume(slope != 0)
        v = newton_root(as_pairs(table), as_pair(seed), order)
        assert v == ref_root(table, seed, order).truncate(order)
        assert v.frontier == order

    @settings(deadline=None, max_examples=100)
    @given(series(nonzero_lead=True), st.integers(2, 4))
    def test_reciprocal_of_a_strided_series(self, b, g):
        a = stretched(b, g)
        inv = a.reciprocal()
        assert inv == ref_reciprocal(a)
        assert a * inv == Series.poly({0: 1}, a.order)

    @settings(deadline=None, max_examples=100)
    @given(series(nonzero_lead=True), nonzero, st.integers(2, 4))
    def test_sqrt_of_a_strided_series(self, b, r0, g):
        a = stretched(scaled(b, r0 * r0 / b.coeffs[0]), g)
        a = a.shift(-(a.valuation % 2))
        root = a.sqrt()
        assert root == ref_sqrt(a, abs(r0))
        assert root * root == a

    @settings(deadline=None, max_examples=200)
    @given(polys, series())
    # a zero top coefficient, a (0, 1) pair here, must not cut the window of a Laurent v
    @example({1: {0: Fraction(1)}, 3: {0: Fraction(0)}}, Series(-1, [1]))
    def test_horner_matches_power_sum(self, poly, v):
        assume(any(p and any(zp.values()) for p, zp in poly.items()))
        h = horner(as_pairs(poly), v)
        ref = ref_horner(poly, v)
        assert h.frontier == ref.frontier
        assert h == ref


# -- stored representation against a plain-Fraction model -------------------
#
# `Series` stores integer numerators over one denominator in a canonical
# form.  `Model` keeps the same values the obvious way, as a list of
# `Fraction`s with the leading zeros stripped; random operation chains
# run on both, and every presentation method must agree with the model.


class Model:
    def __init__(self, val, coeffs):
        cs = [Fraction(c) for c in coeffs]
        frontier = val + len(cs)
        lead = 0
        while lead < len(cs) and cs[lead] == 0:
            lead += 1
        self.cs = cs[lead:]
        self.val = val + lead if self.cs else frontier
        self.frontier = frontier

    def __eq__(self, other):
        return (self.val, self.cs, self.frontier) == (other.val, other.cs, other.frontier)

    def zero(self, frontier):
        return Model(frontier, [])

    def add(self, other, sign=1):
        f = min(self.frontier, other.frontier)
        lo = min(self.val, other.val, f)
        out = [Fraction(0)] * (f - lo)
        for src, sgn in ((self, 1), (other, sign)):
            for i, c in enumerate(src.cs):
                if src.val + i < f:
                    out[src.val + i - lo] += sgn * c
        return Model(lo, out)

    def scale(self, k):
        if k == 0:
            return self.zero(self.frontier)
        return Model(self.val, [c * k for c in self.cs])

    def mul(self, other):
        f = min(self.frontier + other.val, other.frontier + self.val)
        if not self.cs or not other.cs:
            return self.zero(f)
        n = f - self.val - other.val
        out = [Fraction(0)] * n
        for i, x in enumerate(self.cs[:n]):
            for j, y in enumerate(other.cs[: n - i]):
                out[i + j] += x * y
        return Model(self.val + other.val, out)

    def shift(self, m):
        return Model(self.val + m, self.cs) if self.cs else self.zero(self.frontier + m)

    def truncate(self, f):
        if f >= self.frontier:
            return self
        if f <= self.val:
            return self.zero(f)
        return Model(self.val, self.cs[: f - self.val])

    def reciprocal(self):
        c = self.cs
        out = [1 / c[0]]
        for m in range(1, len(c)):
            out.append(-sum(c[i] * out[m - i] for i in range(1, m + 1)) / c[0])
        return Model(-self.val, out)

    def sqrt(self, r0):
        c = self.cs
        out = [r0]
        for m in range(1, len(c)):
            out.append((c[m] - sum(out[i] * out[m - i] for i in range(1, m))) / (2 * r0))
        return Model(self.val // 2, out)

    def text(self):
        parts = []
        for i, c in enumerate(self.cs):
            if c == 0:
                continue
            e = self.val + i
            a = abs(c)
            zs = "z" if e == 1 else f"z^{e}"
            mono = str(a) if e == 0 else (zs if a == 1 else f"{a}*{zs}")
            if not parts:
                parts.append(mono if c > 0 else f"-{mono}")
            else:
                parts.append(f"+ {mono}" if c > 0 else f"- {mono}")
        return f"{' '.join(parts) if parts else '0'} + O(z^{self.frontier})"


exact = st.integers(-9, 9) | rationals
scalars = st.integers(-7, 7)  # a scalar operand is an int


@st.composite
def chains(draw):
    """A pool of (Series, Model) pairs grown by a random operation chain."""
    pool = []
    for _ in range(2):
        val = draw(st.integers(-3, 3))
        coeffs = draw(st.lists(exact, min_size=0, max_size=7))
        pool.append((series_of(val, coeffs), Model(val, coeffs)))
    for _ in range(draw(st.integers(1, 8))):
        op = draw(st.sampled_from(["add", "sub", "mul", "scale", "divide", "add-scalar", "shift", "truncate", "reciprocal", "sqrt"]))
        (s, m), (s2, m2) = (pool[draw(st.integers(0, len(pool) - 1))] for _ in range(2))
        if op == "add":
            pool.append((s + s2, m.add(m2)))
        elif op == "sub":
            pool.append((s - s2, m.add(m2, -1)))
        elif op == "mul":
            pool.append((s * s2, m.mul(m2)))
        elif op == "scale":
            k = draw(scalars)
            pool.append((k * s if draw(st.booleans()) else s * k, m.scale(k)))
        elif op == "divide":
            k = draw(scalars.filter(bool))
            pool.append((s / k, m.scale(Fraction(1, k))))
        elif op == "add-scalar":
            k = draw(scalars)
            if m.frontier > 0:
                pool.append((s + k, m.add(Model(0, [k] + [0] * (m.frontier - 1)))))
        elif op == "shift":
            k = draw(st.integers(-3, 3))
            pool.append((s.shift(k), m.shift(k)))
        elif op == "truncate":
            f = draw(st.integers(m.val - 1, m.frontier + 1))
            pool.append((s.truncate(f), m.truncate(f)))
        elif op == "reciprocal" and m.cs:
            pool.append((s.reciprocal(), m.reciprocal()))
        elif op == "sqrt" and m.cs:
            # a square always has a root; its lead is positive
            sq, msq = s * s, m.mul(m)
            pool.append((sq.sqrt(), msq.sqrt(abs(m.cs[0]))))
    return pool


def assert_canonical(s):
    nums, den = s._nums, s._den
    assert type(nums) is tuple and type(den) is int and den > 0
    assert all(type(x) is int for x in nums)
    assert gcd(den, *nums) == 1
    assert (nums == () and den == 1) or nums[0] != 0
    assert s._frontier == s._val + len(nums)


class TestRepresentation:
    @settings(deadline=None, max_examples=150)
    @given(chains())
    def test_canonical_form(self, pool):
        for s, _ in pool:
            assert_canonical(s)

    @settings(deadline=None, max_examples=150)
    @given(chains())
    def test_presentation_matches_model(self, pool):
        for s, m in pool:
            assert (s.valuation, s.frontier, s.order) == (m.val, m.frontier, len(m.cs))
            assert s.coeffs == tuple(m.cs)
            assert all(type(c) is Fraction for c in s.coeffs)
            for n in range(m.val - 2, m.frontier):
                want = m.cs[n - m.val] if n >= m.val else 0
                assert coeff(s, n) == want
            with pytest.raises(SeriesError):
                coeff(s, m.frontier)
            nonzero = [(e, coeff(s, e)) for e in range(m.val, m.frontier) if coeff(s, e)]
            assert nonzero == [(m.val + i, c) for i, c in enumerate(m.cs) if c]
            assert str(s) == m.text()
            assert s.to_json() == {
                "valuation": m.val, "order": len(m.cs), "coeffs": [str(c) for c in m.cs],
            }

    @settings(deadline=None, max_examples=150)
    @given(chains())
    def test_equality_is_equality_of_values(self, pool):
        for s, m in pool:
            for s2, m2 in pool:
                assert (s == s2) == (m == m2)

    @settings(deadline=None, max_examples=150)
    @given(chains(), scalars.filter(bool), st.integers(-3, 3))
    def test_routes_to_one_value_agree(self, pool, k, m):
        (a, _), (b, _) = pool[0], pool[-1]
        window = min(a.frontier, b.frontier)
        assert (a + b) - b == a.truncate(window)
        assert (a - a) + a == a
        assert a * b == b * a
        assert (a * k) / k == a
        assert a / k * k == a
        assert a.shift(m).shift(-m) == a
        assert series_of(a.valuation, a.coeffs) == a
        assert -(-a) == a
        if not a.is_zero():
            assert a.reciprocal().reciprocal() == a
            assert (a * a).sqrt() == (a if a.coeffs[0] > 0 else -a)


# -- integer paths against the Fraction arithmetic they replace --------------
#
# Printing, scalar division, the square root's lead and the root solver's seed
# checks all run on integers; each must give what the same step gives on
# `Fraction`s, error messages included.


def fraction_text(s):
    """str(s) as a printer that builds one Fraction per nonzero term writes it."""
    parts = []
    for e, x in enumerate(s._nums, s.valuation):
        if not x:
            continue
        c = Fraction(x, s._den)
        a = abs(c)
        zs = "z" if e == 1 else f"z^{e}"
        mono = str(a) if e == 0 else (zs if a == 1 else f"{a}*{zs}")
        if not parts:
            parts.append(mono if c > 0 else f"-{mono}")
        else:
            parts.append(f"+ {mono}" if c > 0 else f"- {mono}")
    return f"{' '.join(parts) if parts else '0'} + O(z^{s.frontier})"


negatives = st.integers(-9, -1)


class TestIntegerPaths:
    @settings(deadline=None, max_examples=200)
    @given(st.integers(-4, 4), st.lists(st.integers(-40, 40), max_size=8), st.integers(1, 36))
    def test_str_matches_fraction_printing(self, val, nums, den):
        s = Series(val, [(x, den) for x in nums])
        assert str(s) == fraction_text(s)

    @settings(deadline=None, max_examples=200)
    @given(series(), negatives)
    def test_division_by_a_negative_scalar(self, a, k):
        q = a / k
        assert q == series_of(a.valuation, [c / k for c in a.coeffs])
        assert_canonical(q)

    def test_sqrt_of_a_rational_square_lead(self):
        a = Series.poly({0: (9, 4), 1: 1}, 8)
        root = a.sqrt()
        assert coeff(root, 0) == Fraction(3, 2)
        assert (root * root - a).is_zero()

    @pytest.mark.parametrize("lead", [Fraction(2, 3), Fraction(-9, 4), Fraction(4, 3), -1, 2])
    def test_nonsquare_lead_message(self, lead):
        with pytest.raises(SeriesError) as info:
            Series.poly({0: as_pair(lead), 1: 1}, 8).sqrt()
        assert str(info.value) == f"leading coefficient {Fraction(lead)} is not the square of a rational"

    @settings(deadline=None, max_examples=100)
    @given(rationals, nonzero, rationals.filter(bool))
    def test_newton_seed_messages(self, r, c, delta):
        # c ((v - r)^2 - z) has the double root r at z = 0: it ramifies there
        eq = as_pairs({2: {0: c}, 1: {0: -2 * r * c}, 0: {0: r * r * c, 1: -c}})
        with pytest.raises(SeriesError) as info:
            newton_root(eq, as_pair(r), 8)
        assert str(info.value) == (
            f"root at seed {r} is ramified (derivative vanishes at z=0); "
            "apply a normalizing substitution before solving"
        )
        with pytest.raises(SeriesError) as info:
            newton_root(eq, as_pair(r + delta), 8)
        assert str(info.value) == f"seed {r + delta} is not a root of P(v, 0)"

    @pytest.mark.parametrize(
        "pair, ratio",
        [((6, 4), (3, 2)), ((3, -6), (-1, 2)), ((-4, -8), (1, 2)), ((0, -5), (0, 1)), ((7, 1), (7, 1))],
    )
    def test_ratio_reduces_a_pair(self, pair, ratio):
        # an integer pair (p, q) is p/q, in lowest terms with q > 0, as a Fraction reads it
        f = Fraction(*pair)
        assert series_module._ratio(pair) == ratio == (f.numerator, f.denominator)

    @pytest.mark.parametrize(
        "pair, error",
        [
            ((1, 0), ZeroDivisionError),
            ((1.0, 2), TypeError),
            ((1, Fraction(1, 2)), TypeError),
            (("1", 2), TypeError),
            ((1, 2, 3), TypeError),
        ],
    )
    def test_ratio_rejects_a_bad_pair(self, pair, error):
        with pytest.raises(error):
            series_module._ratio(pair)

    def test_pair_seed_is_the_fraction_seed(self):
        # the unreduced pair (2, 4) seeds the root the reference finds from 1/2
        eq = {2: {0: 4}, 1: {1: 1}, 0: {0: -1}}  # 4 v^2 + z v - 1, v(0) = 1/2
        assert newton_root(eq, (2, 4), 12) == newton_root(eq, (1, 2), 12)
        assert newton_root(eq, (2, 4), 12) == ref_root(eq, Fraction(1, 2), 12)

    @settings(deadline=None, max_examples=200)
    @given(series(), st.integers(0, 6), st.integers(0, 16))
    def test_window_reads_what_coeff_reads(self, s, below, width):
        # from under the valuation up to any stop within the frontier, the
        # numerators over the common denominator are the coefficients that
        # `coeffs` hands out, with zeros below the valuation
        lo = s.valuation - below
        hi = min(lo + width, s.frontier)
        nums, den = s.window(lo, hi)
        assert all(type(x) is int for x in nums) and type(den) is int and den > 0
        padded = [Fraction(0)] * below + list(s.coeffs)
        assert [Fraction(x, den) for x in nums] == padded[: hi - lo]
        with pytest.raises(SeriesError) as info:
            s.window(lo, s.frontier + 1)
        assert str(info.value) == (
            f"coefficient of z^{s.frontier} requested, but the series is only known "
            f"on [{s.valuation}, {s.frontier})"
        )
