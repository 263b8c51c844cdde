"""Ring laws and canonical forms for the sparse polynomial layer."""

import math
import threading
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hooklab.errors import ExponentOverflow
from hooklab.multipoly import (
    EXP_LIMIT,
    NVARS,
    SLOT_BITS,
    VAR_INDEX,
    VARIABLES,
    ZERO_EXP,
    MultiPoly,
    ONE,
    Packing,
    RatFunc,
    exact_div,
    poly_gcd,
)

T = MultiPoly.var("t")
Q = MultiPoly.var("q")
V = MultiPoly.var("v")


def _mono(te, qe, num, den):
    return MultiPoly.monomial({"t": te, "q": qe}, Fraction(num, den))


small_polys = st.builds(
    lambda terms: sum(
        (_mono(te, qe, num, den) for te, qe, num, den in terms),
        MultiPoly.const(0),
    ),
    st.lists(
        st.tuples(
            st.integers(0, 4),
            st.integers(0, 3),
            st.integers(-9, 9),
            st.integers(1, 5),
        ),
        max_size=5,
    ),
)

nonzero_polys = small_polys.filter(lambda p: not p.is_zero())


@given(small_polys, small_polys, small_polys)
def test_ring_laws(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a + b == b + a
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + MultiPoly.const(0) == a
    assert a * ONE == a
    assert a - a == MultiPoly.const(0)


@given(small_polys, small_polys)
def test_evaluation_is_a_ring_hom(a, b):
    point = {"t": Fraction(3, 2), "q": Fraction(-1, 3)}
    assert (a + b).evaluate(point) == a.evaluate(point) + b.evaluate(point)
    assert (a * b).evaluate(point) == a.evaluate(point) * b.evaluate(point)


def test_constructors_and_predicates():
    assert MultiPoly.const(0).is_zero()
    assert ONE.is_one()
    assert MultiPoly.const(Fraction(5, 3)).as_fraction() == Fraction(5, 3)
    assert (T + 1).degree("t") == 1
    assert (T + 1).degree("q") == 0
    assert MultiPoly.var("t", 3) == T**3
    with pytest.raises(KeyError):
        MultiPoly.var("w")


def test_products_accept_exactly_exact_scalars():
    # A MultiPoly factor is tested for first; the scalars stay int (bool
    # included) and Fraction.
    assert T * True == T == True * T
    assert (T * False).is_zero()
    assert T * Fraction(1, 2) == Fraction(1, 2) * T == T / 2
    for bad in (0.5, Decimal(1), 1j, "t"):
        with pytest.raises(TypeError):
            T * bad
        with pytest.raises(TypeError):
            bad * T


@given(small_polys, st.sampled_from(["t", "q"]))
def test_from_dense_inverts_dense_coeffs(p, name):
    other = "q" if name == "t" else "t"
    p = p.subs(other, Fraction(2, 3))
    assert MultiPoly.from_dense(p.dense_coeffs(name), name) == p
    assert MultiPoly.from_dense([], name).is_zero()
    assert MultiPoly.from_dense([0, 0], name).is_zero()


def test_subs_against_evaluate():
    p = 2 * T**2 * Q - 3 * T + Q + 7
    half = Fraction(1, 2)
    assert p.subs("t", half).subs("q", 2) == MultiPoly.const(
        p.evaluate({"t": half, "q": 2})
    )
    # substituting a polynomial composes
    assert p.subs("t", Q) == 2 * Q**3 - 3 * Q + Q + 7


@given(small_polys)
def test_univariate_views_reassemble(p):
    parts = p.as_univariate("t")
    rebuilt = MultiPoly.const(0)
    for deg, coeff in parts.items():
        rebuilt = rebuilt + coeff * T**deg
    assert rebuilt == p
    for deg, coeff in parts.items():
        assert p.coeff_of("t", deg) == coeff
    assert all(not c.is_zero() for c in parts.values())


def test_dense_coeffs_pad():
    p = T**3 + 2
    assert p.dense_coeffs("t") == [
        Fraction(2),
        Fraction(0),
        Fraction(0),
        Fraction(1),
    ]


def test_derivative_product_rule():
    a = T**2 * Q + 3 * T
    b = Q * T - 1
    lhs = (a * b).derivative("t")
    assert lhs == a.derivative("t") * b + a * b.derivative("t")


@given(small_polys, nonzero_polys)
def test_exact_division_inverts_multiplication(a, b):
    assert exact_div(a * b, b) == a


def test_exact_div_rejects_non_multiples():
    assert exact_div(T + 1, T) is None
    assert exact_div(T**2 + 1, T + 1) is None


@settings(deadline=None, max_examples=40)
@given(nonzero_polys, nonzero_polys, nonzero_polys)
def test_gcd_divides_both(a, b, c):
    g = poly_gcd(a * c, b * c)
    assert exact_div(a * c, g) is not None
    assert exact_div(b * c, g) is not None
    # common factor survives
    assert exact_div(g, c.primitive()) is not None


def test_gcd_of_known_pairs_is_canonical():
    # The remainder sequences of these pairs end in a multiple of the gcd
    # with an integer content or a negative leading coefficient.
    cases = [
        ((T + 1) * (T - 2), (T + 1) * (T + 3), T + 1),
        (6 * (T + 1) ** 2 * (T - 2), 4 * (T + 1) * (T * T + 1), T + 1),
        ((2 * T - 3) * (T + 5), (2 * T - 3) * (T - 7), 2 * T - 3),
        ((T * T + T + 1) * (3 * T - 4), (T * T + T + 1) * (2 * T + 9), T * T + T + 1),
        ((Q**2 - 2) * (T + Q), (Q**2 - 2) * (T - Q), Q**2 - 2),
        ((T - Q) * (T + 1), (T - Q) * (Q + 2), T - Q),
    ]
    for x, y, want in cases:
        g = poly_gcd(x, y)
        assert g.prim == want.prim and g.cont == 1


univariate_polys = st.lists(
    st.fractions(min_value=-9, max_value=9, max_denominator=4), min_size=1, max_size=5
).map(lambda cs: sum((c * T**i for i, c in enumerate(cs)), MultiPoly.const(0)))


@settings(deadline=None, max_examples=40)
@given(
    univariate_polys.filter(bool),
    univariate_polys.filter(bool),
    univariate_polys.filter(bool),
)
def test_univariate_gcd_against_sympy(a, b, c):
    sympy = pytest.importorskip("sympy")
    t = sympy.Symbol("t")

    def to_sympy(p):
        coeffs = [sympy.Rational(v.numerator, v.denominator) for v in p.dense_coeffs("t")]
        return sympy.Poly(coeffs[::-1], t, domain="QQ")

    g = poly_gcd(a * c, b * c)
    theirs = sympy.gcd(to_sympy(a * c), to_sympy(b * c))
    assert g.degree("t") == theirs.degree()
    # same gcd up to a rational scale: compare the monic forms
    assert to_sympy(g).monic() == theirs.monic()


q_only_polys = st.lists(
    st.fractions(min_value=-9, max_value=9, max_denominator=4), min_size=1, max_size=4
).map(lambda cs: sum((c * Q**i for i, c in enumerate(cs)), MultiPoly.const(0)))

# Inputs in (t, q), some free of t; planted factors include ones free of t.
gcd_inputs = st.one_of(nonzero_polys, q_only_polys.filter(bool))
planted_factors = st.one_of(
    nonzero_polys,
    q_only_polys.filter(bool),
    st.sampled_from([2 * Q + 3, Q**2 - 2, T - Q, 2 * T * Q + 3, T**2 + Q**2 + 1]),
)


@settings(deadline=None, max_examples=40)
@given(gcd_inputs, gcd_inputs, planted_factors)
def test_bivariate_gcd_against_sympy(a, b, c):
    sympy = pytest.importorskip("sympy")
    t, q = sympy.symbols("t q")

    def to_sympy(p):
        expr = sum(
            sympy.Rational(v.numerator, v.denominator) * t ** e[0] * q ** e[1]
            for e, v in p.terms.items()
        )
        return sympy.Poly(expr, t, q, domain="QQ")

    # with a planted common factor, and as drawn (mostly coprime)
    for x, y in ((a * c, b * c), (a, b)):
        g = poly_gcd(x, y)
        # canonical: a primitive integer map with a positive lex-leading coefficient
        assert g.cont == 1 and math.gcd(*g.prim.values()) == 1 and g == g.primitive()
        ours = to_sympy(g)
        theirs = sympy.gcd(to_sympy(x), to_sympy(y))
        assert (ours.degree(t), ours.degree(q)) == (theirs.degree(t), theirs.degree(q))
        assert ours.monic() == theirs.monic()


def test_render_readable():
    p = T**2 - 2 * T * Q + 1
    s = p.render()
    assert "t^2" in s and "q" in s
    assert MultiPoly.const(0).render() == "0"


# ----- rational functions --------------------------------------------------------


@settings(deadline=None)
@given(small_polys, nonzero_polys, small_polys, nonzero_polys)
def test_ratfunc_equality_is_cross_multiplication(p, q, r, s):
    assert (p / q == r / s) == (p * s == r * q)


@settings(deadline=None, max_examples=40)
@given(small_polys, nonzero_polys, small_polys, nonzero_polys)
def test_ratfunc_field_laws(p, q, r, s):
    x = p / q
    y = r / s
    total, prod = x + y, x * y
    assert total == y + x
    assert prod == y * x
    assert total - y == x
    results = [total, prod]
    if not y.is_zero():
        results.append(x / y)
        assert results[-1] * y == x
    # A gcd test of these results would double the time of this test, since
    # coprime bivariate gcds are the slow part of poly_gcd; products and
    # quotients of one quotient take it in
    # test_a_quotient_is_a_multipoly_exactly_when_division_is_exact.
    for z in results:
        assert_canonical_quotient(z, coprime=False)


def test_ratfunc_canonical_form():
    # gcd-reduced, denominator lex-monic, a quotient that divides out is a MultiPoly
    r = (T * T - 1) / (T + 1)
    assert type(r) is MultiPoly and r == T - 1
    assert (ONE / (2 * Q)).den == Q
    assert (T / -Q).num == -T
    assert (T * Q) / (Q * Q) == T / Q
    # a product cancels each numerator against the other denominator
    assert (ONE / Q) * (Q / (T + 1)) == ONE / (T + 1) == (Q / (T + 1)) * (ONE / Q)


def test_ratfunc_sum_divides_out_only_the_shared_denominator_factor():
    # d1 = T(T+1) and d2 = T(T-1) share g = T, and t = (T-1) + (T+1) = 2T
    # shares T with g, so the sum drops it: 2/(T^2 - 1).
    x, y = ONE / (T * (T + 1)), ONE / (T * (T - 1))
    total = x + y
    assert total == 2 / (T * T - 1) == y + x
    assert total.num == MultiPoly.const(2) and total.den == T * T - 1
    # g = T, and t = 2T + 1 shares nothing with it: the denominator keeps g once.
    total = ONE / (T * (T + 1)) + (T + 2) / (T * (T - 1))
    assert total == (T * T + 4 * T + 1) / (T * (T * T - 1))
    assert total.den == T * (T * T - 1)
    # Equal denominators that cancel, and a sum whose common factor is a
    # power: g = T^2 with t = 2T.
    assert (T / (Q * Q + 1) - T / (Q * Q + 1)).is_zero()
    total = ONE / (T * T * (T + 1)) + ONE / (T * T * (T - 1))
    assert total == 2 / (T * (T * T - 1)) and total.den == T * (T * T - 1)
    # A polynomial or scalar operand takes the d2 = 1 path; coprime
    # denominators take no gcd of the cross sum.
    assert (Q / (T + 1) + T) == (T * T + T + Q) / (T + 1)
    assert (Q / (T + 1) + Fraction(1, 2)) == (2 * Q + T + 1) / (2 * T + 2)
    assert (ONE / (T + 1) + ONE / (T - 1)).den == T * T - 1
    for z in (x + y, ONE / (T * (T + 1)) + (T + 2) / (T * (T - 1)), Q / (T + 1) + T):
        assert_canonical_quotient(z)


def test_scalar_over_polynomial_and_no_public_constructor():
    assert 1 / T == ONE / T
    assert Fraction(1, 2) / T == ONE / (2 * T)
    assert 6 / MultiPoly.const(4) == MultiPoly.const(Fraction(3, 2))
    assert type(2 / (1 / T)) is MultiPoly
    # an unreduced pair would compare and hash apart from its equal value
    with pytest.raises(TypeError, match="num / den"):
        RatFunc(T * T - 1, T + 1)
    with pytest.raises(TypeError):
        RatFunc(T, Q)


def test_ratfunc_division_by_zero():
    with pytest.raises(ZeroDivisionError):
        ONE / MultiPoly.const(0)
    with pytest.raises(ZeroDivisionError):
        (ONE / T) / 0


def test_ratfunc_subs_and_render():
    r = (T + Q) / (T - Q)
    assert r.subs("q", 0) == MultiPoly.const(1)
    assert "/" in (ONE / T).render()


# ----- (content, primitive) storage against a Fraction-map oracle ------------------


class FractionMapPoly:
    """The earlier storage, kept as an oracle: one Fraction per monomial."""

    def __init__(self, terms=None):
        self.terms = {tuple(e): Fraction(c) for e, c in (terms or {}).items() if c}

    def __add__(self, other):
        out = dict(self.terms)
        for exp, c in other.terms.items():
            out[exp] = out.get(exp, 0) + c
        return FractionMapPoly(out)

    def __neg__(self):
        return FractionMapPoly({exp: -c for exp, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return FractionMapPoly({exp: c * other for exp, c in self.terms.items()})
        out = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                exp = tuple(a + b for a, b in zip(e1, e2))
                out[exp] = out.get(exp, 0) + c1 * c2
        return FractionMapPoly(out)

    def __truediv__(self, c):
        return self * (1 / Fraction(c))

    def __pow__(self, n):
        result = FractionMapPoly({ZERO_EXP: 1})
        for _ in range(n):
            result = result * self
        return result

    def subs(self, name, value):
        i = VAR_INDEX[name]
        if isinstance(value, (int, Fraction)):
            value = FractionMapPoly({ZERO_EXP: value})
        result = FractionMapPoly()
        for exp, c in self.terms.items():
            rest = FractionMapPoly({exp[:i] + (0,) + exp[i + 1 :]: c})
            result = result + rest * value ** exp[i]
        return result

    def derivative(self, name):
        i = VAR_INDEX[name]
        return FractionMapPoly(
            {exp[:i] + (exp[i] - 1,) + exp[i + 1 :]: c * exp[i] for exp, c in self.terms.items() if exp[i]}
        )

    def evaluate(self, point):
        total = Fraction(0)
        for exp, c in self.terms.items():
            for i, e in enumerate(exp):
                if e:
                    c *= Fraction(point[VARIABLES[i]]) ** e
            total += c
        return total

    def lex_leading(self):
        exp = max(self.terms)
        return exp, self.terms[exp]

    def content(self):
        if not self.terms:
            return Fraction(1)
        nums = math.gcd(*(c.numerator for c in self.terms.values()))
        dens = math.lcm(*(c.denominator for c in self.terms.values()))
        return Fraction(nums, dens)

    def primitive(self):
        if not self.terms:
            return self
        c = self.content()
        return self / (c if self.lex_leading()[1] > 0 else -c)

    def dense_coeffs(self, name):
        i = VAR_INDEX[name]
        out = [Fraction(0)] * (max((e[i] for e in self.terms), default=0) + 1)
        for exp, c in self.terms.items():
            out[exp[i]] = c
        return out

    def render(self):
        if not self.terms:
            return "0"
        parts = []
        for exp in sorted(self.terms, key=lambda e: (sum(e), e)):
            c = self.terms[exp]
            factors = [VARIABLES[i] + (f"^{e}" if e > 1 else "") for i, e in enumerate(exp) if e]
            mag = abs(c)
            body = "*".join(([str(mag)] if mag != 1 or not factors else []) + factors)
            parts.append(("-" if c < 0 else "") + body if not parts else ("+ " if c > 0 else "- ") + body)
        return " ".join(parts)


def oracle_exact_div(p, d):
    d_exp, d_coeff = d.lex_leading()
    quotient = FractionMapPoly()
    rem = p
    while rem.terms:
        r_exp, r_coeff = rem.lex_leading()
        diff = tuple(a - b for a, b in zip(r_exp, d_exp))
        if min(diff) < 0:
            return None
        step = FractionMapPoly({diff: r_coeff / d_coeff})
        quotient = quotient + step
        rem = rem - step * d
    return quotient


def slots(key):
    """The NVARS slots of a packed key, t first, each SLOT_BITS wide."""
    mask = (1 << SLOT_BITS) - 1
    return tuple(key >> (SLOT_BITS * (NVARS - 1 - i)) & mask for i in range(NVARS))


def assert_canonical(p):
    assert p.cont > 0 and (type(p.cont) is int or type(p.cont) is Fraction and p.cont.denominator > 1)
    assert all(type(c) is int and c for c in p.prim.values())
    for key in p.prim:
        assert type(key) is int and 0 <= key < 1 << (SLOT_BITS * NVARS)
        assert all(e < EXP_LIMIT for e in slots(key))
    assert [slots(key) for key in p.prim] == [tuple(e) for e in p.terms]
    if p.prim:
        assert math.gcd(*p.prim.values()) == 1
    else:
        assert p.cont == 1


def agree(p, oracle):
    assert_canonical(p)
    assert p.terms == oracle.terms


def assert_canonical_quotient(x, coprime=True):
    """x is a canonical MultiPoly, or a RatFunc whose denominator is not
    constant and has lex-leading coefficient 1, in lowest terms unless the
    caller vouches for that (the gcd test is the slow part)."""
    if type(x) is MultiPoly:
        assert_canonical(x)
        return
    assert type(x) is RatFunc
    assert_canonical(x.num)
    assert_canonical(x.den)
    assert not x.den.is_constant() and x.den.lex_leading()[1] == 1
    if coprime:
        assert poly_gcd(x.num, x.den) == ONE


# Monomials in up to three of all twelve variables, so every slot of a
# packed key is used, the y-block and the least significant (y6) included.
term_lists = st.lists(
    st.tuples(
        st.dictionaries(st.sampled_from(VARIABLES), st.integers(0, 3), max_size=3),
        st.integers(-9, 9),
        st.integers(1, 6),
    ),
    max_size=4,
)
scalars = st.fractions(min_value=-5, max_value=5, max_denominator=6)


def both(terms):
    """The same polynomial as a sum of monomials and as an oracle term map."""
    poly, exact = MultiPoly.const(0), {}
    for powers, num, den in terms:
        poly = poly + MultiPoly.monomial(powers, Fraction(num, den))
        exp = tuple(powers.get(name, 0) for name in VARIABLES)
        exact[exp] = exact.get(exp, 0) + Fraction(num, den)
    oracle = FractionMapPoly(exact)
    agree(poly, oracle)
    assert MultiPoly(exact) == poly
    return poly, oracle


@settings(deadline=None, max_examples=150)
@given(term_lists, term_lists, scalars, st.integers(0, 3), st.sampled_from(VARIABLES))
def test_operations_match_fraction_map_oracle(ta, tb, c, n, name):
    a, oa = both(ta)
    b, ob = both(tb)
    agree(a + b, oa + ob)
    agree(a - b, oa - ob)
    agree(a * b, oa * ob)
    # the cross terms cancel, so the product must drop them
    agree((a + b) * (a - b), (oa + ob) * (oa - ob))
    agree(-a, -oa)
    agree(a * c, oa * c)
    agree(c * a, oa * c)
    agree(a * MultiPoly.const(c), oa * c)
    agree(a + c, oa + FractionMapPoly({ZERO_EXP: c}))
    if c:
        agree(a / c, oa / c)
    agree(a**n, oa**n)
    agree(a.subs(name, c), oa.subs(name, c))
    agree(a.subs(name, b), oa.subs(name, ob))
    agree(a.derivative(name), oa.derivative(name))
    agree(a.primitive(), oa.primitive())
    assert a.content() == oa.content()
    point = {v: Fraction(i + 1, 2) for i, v in enumerate(VARIABLES)} | {name: c}
    assert a.evaluate(point) == oa.evaluate(point)
    univariate, ounivariate = a, oa
    for other in VARIABLES:
        if other != name:
            univariate, ounivariate = univariate.subs(other, c), ounivariate.subs(other, c)
    assert univariate.dense_coeffs(name) == ounivariate.dense_coeffs(name)
    parts = a.as_univariate(name)
    assert sum((p * MultiPoly.var(name, d) for d, p in parts.items()), MultiPoly.const(0)) == a
    assert all(a.coeff_of(name, d) == p and p.degree(name) == 0 for d, p in parts.items())
    assert a.used_vars() == tuple(sorted({i for e in oa.terms for i, x in enumerate(e) if x}))
    assert a.render() == oa.render()
    if a:
        assert a.lex_leading() == oa.lex_leading()
    if b:
        agree(exact_div(a * b, b), oa)
        mine, theirs = exact_div(a, b), oracle_exact_div(oa, ob)
        assert (mine is None) == (theirs is None)
        if mine is not None:
            agree(mine, theirs)


@settings(deadline=None, max_examples=60)
@given(small_polys, nonzero_polys)
def test_ratfunc_parts_are_canonical(p, q):
    assert_canonical_quotient(p / q)


@settings(deadline=None, max_examples=60)
@given(small_polys, nonzero_polys)
def test_a_quotient_is_a_multipoly_exactly_when_division_is_exact(p, q):
    x = p / q
    exact = exact_div(p, q)
    assert (type(x) is MultiPoly) == (exact is not None)
    if exact is not None:
        assert x == exact
    reduced = [x, x / T, ONE / x] if x else [x]  # each a gcd or a cross-reduction
    # Coprime when x is: scalar steps keep the factors, powers raise them.
    derived = [x - 1, 2 - x, x * Fraction(-3, 2), x**2]
    if type(x) is RatFunc:
        derived += [x**0, x**-1, x**-2]
        # subs through a value at which the denominator does not vanish
        reduced += [x.subs("q", v) for v in (3, T + 1) if x.den.subs("q", v)]
    for z in reduced:
        assert_canonical_quotient(z)
    for z in derived:
        assert_canonical_quotient(z, coprime=False)



@given(small_polys, small_polys)
def test_equal_values_by_different_routes_hash_alike(a, b):
    routes = [a * b, b * a, (a * 2) * b / 2, a * b + T - T, MultiPoly(dict((a * b).terms))]
    for p in routes:
        assert_canonical(p)
        assert p == routes[0] and hash(p) == hash(routes[0])


def test_spot_routes_are_equal_and_hash_alike():
    for p in [(T / 2) * 2, T + Q - Q, T * Fraction(-1, 3) * -3, exact_div(T * Q, Q)]:
        assert p == T and hash(p) == hash(T)
        assert p.prim == T.prim and p.cont == T.cont
    assert_canonical((T + Q) * (T - Q))
    assert (T + Q) * (T - Q) == T**2 - Q**2
    assert (T - T).prim == {} and (T - T).cont == 1
    assert (T * 0).prim == {} and (T * 0).cont == 1


def test_hash_agrees_with_equality_across_types():
    assert MultiPoly.const(3) == 3
    assert len({MultiPoly.const(3), 3}) == 1
    assert len({MultiPoly.const(Fraction(-2, 3)), Fraction(-2, 3)}) == 1
    assert len({MultiPoly.const(0), 0}) == 1
    assert T / 1 == T
    assert len({T / ONE, T}) == 1
    assert len({ONE / 2, Fraction(1, 2), MultiPoly.const(Fraction(1, 2))}) == 1
    # A RatFunc has a denominator, so it never equals a polynomial or a scalar.
    for r in (ONE / T, T / (T + 1), (T * T + Q) / (2 * T)):
        for other in (T, ONE, MultiPoly.const(0), 1, 0, Fraction(1, 2)):
            assert r != other and other != r
        assert len({r, T, 1, 0}) == 4
        assert r == r * 1 and hash(r) == hash(r * 1)


def _repeated_product(p, n):
    out = ONE
    for _ in range(n):
        out = out * p
    return out


@pytest.mark.parametrize(
    "mono",
    [
        T,
        MultiPoly.const(-3),
        MultiPoly.monomial({"t": 2}, -1),
        MultiPoly.monomial({"q": 3}, Fraction(-2, 3)),
        MultiPoly.monomial({"t": 1, "q": 2, "a": 3}, Fraction(5, 4)),
    ],
    ids=["var", "negative-constant", "negative", "rational", "multivariate"],
)
def test_monomial_power_matches_repeated_product(mono):
    for n in (0, 1, 2, 5):
        got = mono**n
        want = _repeated_product(mono, n)
        assert_canonical(got)
        assert got == want
        assert got.prim == want.prim and got.cont == want.cont
        assert got.render() == want.render()
    assert (mono**0).is_one()


def test_a_fraction_content_to_the_power_zero_is_one():
    # Fraction(1, 2) ** 0 is Fraction(1), an integral content that is no int.
    for mono in (MultiPoly.const(Fraction(1, 2)), MultiPoly.monomial({"q": 3}, Fraction(-2, 3))):
        p = mono**0
        assert_canonical(p)
        assert p.prim == ONE.prim and type(p.cont) is int and p.cont == 1


def test_integral_contents_are_ints_and_views_are_fractions():
    # Contents are ints where they are integral, but no view hands one out,
    # so a caller's / never turns into float division.
    polys = [
        3 * T + 6,
        T * Fraction(3, 2) * Fraction(2, 3),
        (T / 2 + Q / 3) * 6,
        T / 2 + Q,
        MultiPoly.const(4),
        MultiPoly.const(Fraction(-1, 2)),
    ]
    for p in polys:
        assert_canonical(p)
        assert all(type(c) is Fraction for c in p.terms.values())
        assert type(p.constant_term()) is Fraction
        assert type(p.content()) is Fraction
        assert type(p.lex_leading()[1]) is Fraction
        assert type(p.evaluate({"t": 2, "q": 3})) is Fraction
        assert all(type(c) is Fraction for c in p.subs("q", 1).dense_coeffs("t"))
    assert [type(p.cont) for p in polys[:3]] == [int, int, int]
    assert type(MultiPoly.const(4).as_fraction()) is Fraction


@pytest.mark.parametrize(
    "scalar", [0, 1, -1, 7, Fraction(-3, 4), Fraction(5, 2)], ids=str
)
def test_ratfunc_times_scalar_matches_coerced_product(scalar):
    for r in [(T + Q) / (T - 1), (T * Fraction(2, 3) - 1) / (Q * T + 1), ONE / (Q + 2)]:
        want = r * MultiPoly.const(scalar)
        for got in (r * scalar, scalar * r):
            assert got == want
            assert got.render() == want.render()
            assert_canonical_quotient(got)
            assert type(got) is (RatFunc if scalar else MultiPoly)


# ----- packed exponent keys: the boundary and the slot limit ----------------------


def test_constructor_rejects_a_negative_exponent():
    with pytest.raises(ValueError):
        MultiPoly.monomial({"t": -1})
    with pytest.raises(ValueError):
        MultiPoly({(0, -2) + (0,) * (NVARS - 2): 1})


def test_constructor_rejects_a_wrong_length_vector():
    with pytest.raises(ValueError):
        MultiPoly({(1, 2): 3})
    with pytest.raises(ValueError):
        MultiPoly({(0,) * (NVARS + 1): 3})


def test_constructor_rejects_a_non_int_exponent():
    with pytest.raises(TypeError, match="exponent of t must be an int"):
        MultiPoly({(1.5,) + (0,) * (NVARS - 1): 1})
    with pytest.raises(TypeError, match="exponent of q must be an int"):
        MultiPoly.var("q", 2.0)


def test_largest_exponent_round_trips():
    top = EXP_LIMIT - 1
    exp = (top, 1) + (0,) * (NVARS - 3) + (top,)
    p = MultiPoly({exp: Fraction(-3, 2)})
    assert_canonical(p)
    assert p == MultiPoly.monomial({"t": top, "q": 1, "y6": top}, Fraction(-3, 2))
    assert p.terms == {exp: Fraction(-3, 2)}
    assert p.lex_leading() == (exp, Fraction(-3, 2))
    assert p.render() == f"-3/2*t^{top}*q*y6^{top}"
    assert (p + 1).render() == f"1 - 3/2*t^{top}*q*y6^{top}"
    assert MultiPoly.var("y6", top).degree("y6") == top
    assert (p * MultiPoly.var("v")).degree("y6") == top


@pytest.mark.parametrize("name", ["t", "q", "y5", "y6"])
def test_reaching_the_limit_raises(name):
    near = MultiPoly.var(name, EXP_LIMIT - 1)
    x = MultiPoly.var(name)
    with pytest.raises(ExponentOverflow):
        near * x
    with pytest.raises(ExponentOverflow):
        (near + 1) * (x + T + 1)
    with pytest.raises(ExponentOverflow):
        MultiPoly.var(name, EXP_LIMIT // 2) ** 2
    with pytest.raises(ExponentOverflow):
        (near + 1) ** 2
    with pytest.raises(ExponentOverflow):
        (-2 * MultiPoly.var(name, 3) * V) ** (EXP_LIMIT // 3 + 1)
    with pytest.raises(ExponentOverflow):
        MultiPoly.var(name, EXP_LIMIT)
    with pytest.raises(ExponentOverflow):
        MultiPoly.monomial({name: EXP_LIMIT})
    with pytest.raises(ExponentOverflow):
        MultiPoly({tuple(EXP_LIMIT if v == name else 0 for v in VARIABLES): 1})
    assert (MultiPoly.var(name, EXP_LIMIT // 2 - 1) ** 2).degree(name) == EXP_LIMIT - 2


def test_exact_div_borrow_case():
    # The leading slot of p is larger, so a plain key difference would borrow
    # from it and hide that d's exponent of the other variable is larger.
    assert exact_div(T**2 * Q, T * Q**2) is None
    y5, y6 = MultiPoly.var("y5"), MultiPoly.var("y6")
    assert exact_div(y5**2, y5 * y6) is None
    assert exact_div(y5**2 * y6 + y5, y5 * y6**2 + 1) is None
    assert exact_div(T**2 * Q * y6, T * Q * y6) == T


def test_exact_div_past_the_limit_is_inexact():
    # q^3*y6^(L-1) / (q^2*y6 + q*y6^3) meets a term q^2*y6^(L+1): no polynomial
    # quotient exists.  Were that term kept, the guard-bit test would read it
    # as q^2*y6, the step meant to cancel it would miss it, and the division
    # would loop forever; hence the daemon thread and the time limit.
    q, y6 = Q, MultiPoly.var("y6")
    p, d = q**3 * y6 ** (EXP_LIMIT - 1), q**2 * y6 + q * y6**3
    results = []
    worker = threading.Thread(target=lambda: results.append(exact_div(p, d)), daemon=True)
    worker.start()
    worker.join(10)
    assert not worker.is_alive() and results == [None]
    top = y6 ** (EXP_LIMIT - 3)
    assert exact_div(top * (q * y6 + y6**2), q + y6) == top * y6


# ----- packed integers (Kronecker substitution) -----------------------------------


def _layout_for(value, parts):
    """A Packing whose bounds hold value: its degree in each variable it
    uses and the sum of the norms of the parts it was built from."""
    degrees = {VARIABLES[i]: value.degree(VARIABLES[i]) for i in value.used_vars()}
    return Packing(degrees, sum(parts))


# A packed image is dense in every variable it uses, so these monomials use
# three: the most and least significant slots and one between them.
packed_term_lists = st.lists(
    st.tuples(
        st.dictionaries(st.sampled_from(["t", "b", "y6"]), st.integers(0, 3), max_size=3),
        st.integers(-9, 9),
        st.integers(1, 6),
    ),
    max_size=4,
)


@settings(deadline=None, max_examples=100)
@given(packed_term_lists, packed_term_lists, packed_term_lists, st.integers(-5, 5),
       st.integers(1, 12))
def test_packed_sums_and_products_match_multipoly_arithmetic(ta, tb, tc, k, den):
    (a, _), (b, _), (c, _) = both(ta), both(tb), both(tc)
    # The images hold each polynomial over its content.
    want = a * b * Fraction(1, a.content() * b.content()) + c * Fraction(k, c.content())
    layout = _layout_for(want, [Packing.norm(a) * Packing.norm(b), abs(k) * Packing.norm(c)])
    got = layout.read(layout.image(a) * layout.image(b) + k * layout.image(c), den)
    assert got == want * Fraction(1, den)
    assert_canonical(got)


@pytest.mark.parametrize(
    "value",
    [
        # Digits one bit short: the coefficient 7 is the bound.
        7 * T + 3,
        7 * T * Q - 7 * MultiPoly.var("y6"),
        # Digits read unsigned: negative totals over several digits.
        -(T + 3),
        T - 2,
        -(T**2) * Q + 4 * Q - 1,
        # One digit.
        MultiPoly.const(-3),
        MultiPoly.const(0),
    ],
    ids=["bound-coefficient", "bound-multivariate", "negative", "negative-low-digit",
         "negative-multivariate", "negative-constant", "zero"],
)
def test_packed_edge_values_read_back(value):
    # The tightest bound: the largest coefficient over the content.
    top = max((abs(c / value.content()) for c in value.terms.values()), default=0)
    layout = _layout_for(value, [int(top)])
    for den in (1, 3):
        got = layout.read(layout.image(value), den)
        assert got == value * Fraction(1, den * value.content())


def test_packed_layout_rejects_a_degree_at_the_limit():
    # Raised before the 2^31-digit integer could be allocated.
    with pytest.raises(ExponentOverflow, match="q\\^2147483648"):
        Packing({"t": 3, "q": EXP_LIMIT}, 1)
