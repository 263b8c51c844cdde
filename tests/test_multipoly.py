"""Ring laws and canonical forms for the sparse polynomial layer."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hooklab.multipoly import (
    MultiPoly,
    ONE,
    RatFunc,
    dense_linear_product,
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


@given(st.lists(st.integers(-6, 6), max_size=8))
def test_dense_linear_product_matches_factor_product(shifts):
    expected = ONE
    for r in shifts:
        expected = expected * (T + r)
    coeffs = dense_linear_product(shifts)
    assert all(type(c) is int for c in coeffs)
    assert len(coeffs) == len(shifts) + 1
    assert MultiPoly.from_dense(coeffs, "t") == expected


def test_dense_linear_product_spots():
    assert dense_linear_product([]) == [1]
    assert dense_linear_product([0, 0]) == [0, 0, 1]
    assert dense_linear_product([1, -1]) == [-1, 0, 1]


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


def test_render_readable():
    p = T**2 - 2 * T * Q + 1
    s = p.render()
    assert "t^2" in s and "q" in s
    assert MultiPoly.const(0).render() == "0"


# ----- rational functions --------------------------------------------------------


@settings(deadline=None)
@given(small_polys, nonzero_polys, small_polys, nonzero_polys)
def test_ratfunc_equality_is_cross_multiplication(p, q, r, s):
    assert (RatFunc(p, q) == RatFunc(r, s)) == (p * s == r * q)


@settings(deadline=None, max_examples=40)
@given(small_polys, nonzero_polys, small_polys, nonzero_polys)
def test_ratfunc_field_laws(p, q, r, s):
    x = RatFunc(p, q)
    y = RatFunc(r, s)
    assert x + y == y + x
    assert x * y == y * x
    assert (x + y) - y == x
    if not y.is_zero():
        assert (x / y) * y == x


def test_ratfunc_canonical_form():
    # gcd-reduced, denominator lex-monic, polynomials collapse to den 1
    r = RatFunc(T * T - 1, T + 1)
    assert r.is_polynomial() and r.as_poly() == T - 1
    assert RatFunc(ONE, 2 * Q).den == Q
    assert RatFunc(T, -Q).num == -T
    assert RatFunc(T * Q, Q * Q) == RatFunc(T, Q)


def test_ratfunc_division_by_zero():
    with pytest.raises(ZeroDivisionError):
        RatFunc(ONE, MultiPoly.const(0))
    with pytest.raises(ZeroDivisionError):
        RatFunc.coerce(1) / RatFunc.coerce(0)


def test_ratfunc_subs_and_render():
    r = RatFunc(T + Q, T - Q)
    assert r.subs("q", 0) == RatFunc.coerce(1)
    assert "/" in RatFunc(ONE, T).render()
