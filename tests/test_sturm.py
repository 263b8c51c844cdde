"""Exact real-root counting and coefficient unimodality."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hooklab.identities import hook_square_polynomial
from hooklab.multipoly import MultiPoly, ONE
from hooklab.permstats import eulerian_A, eulerian_B
from hooklab.sturm import SturmReport, sturm_analysis, unimodal

T = MultiPoly.var("t")


def _product_of_roots(roots):
    p = ONE
    for r in roots:
        p = p * (T - MultiPoly.const(Fraction(r)))
    return p


@settings(deadline=None, max_examples=60)
@given(
    st.sets(
        st.fractions(min_value=Fraction(-50), max_value=Fraction(-1, 7), max_denominator=8),
        min_size=1,
        max_size=6,
    )
)
def test_distinct_negative_roots_fully_counted(roots):
    rep = sturm_analysis(_product_of_roots(roots), "t")
    assert rep.real_root_count == len(roots)
    assert rep.all_roots_simple
    assert rep.all_roots_negative


@settings(deadline=None, max_examples=40)
@given(
    st.sets(
        st.fractions(min_value=Fraction(-20), max_value=Fraction(20), max_denominator=5),
        min_size=1,
        max_size=5,
    )
)
def test_signs_of_roots_detected(roots):
    rep = sturm_analysis(_product_of_roots(roots), "t")
    assert rep.real_root_count == len(roots)
    assert rep.all_roots_negative == all(r < 0 for r in roots)


def test_repeated_root_flagged():
    rep = sturm_analysis((T + 1) ** 2 * (T + 2), "t")
    assert rep.real_root_count == 2  # distinct roots
    assert not rep.all_roots_simple
    assert rep.all_roots_negative


def test_complex_pair_lowers_the_count():
    # (t^2 + t + 1) has no real roots
    rep = sturm_analysis((T**2 + T + 1) * (T + 3), "t")
    assert rep.real_root_count == 1
    assert rep.all_roots_simple
    assert rep.all_roots_negative


def test_zero_root_is_not_negative():
    rep = sturm_analysis(T * (T + 1), "t")
    assert rep.real_root_count == 2
    assert not rep.all_roots_negative


def test_scaling_is_irrelevant():
    # In the chains of the sparse cubic and quintic a pseudo-remainder drops
    # two degrees in one elimination step, so there an odd power of a
    # negative leading coefficient would flip the sign of a chain entry.
    cases = [
        ((T + 2) * (T + 5), SturmReport(2, True, True)),
        # (t + 1)(t + 2)(t - 3)
        (T**3 - 7 * T - 6, SturmReport(3, True, False)),
        # changes sign on (-2, -1), (0, 1) and (1, 2), and has no fourth real root
        (T**5 - 3 * T + 1, SturmReport(3, True, False)),
        (T**4 + 1, SturmReport(0, True, True)),
    ]
    for p, report in cases:
        for scale in (1, Fraction(3, 7), -1, Fraction(-5, 2)):
            assert sturm_analysis(p * scale, "t") == report


def test_eulerian_polynomials_are_real_rooted():
    # classical fact, an independent workout for the chain on dense polynomials
    for n in range(1, 9):
        for poly in (eulerian_A(n), eulerian_B(n)):
            deg = max(poly.as_univariate("t"))
            rep = sturm_analysis(poly, "t")
            assert rep.real_root_count == deg
            assert rep.all_roots_simple
            assert rep.all_roots_negative


def test_unimodal_scans():
    assert unimodal(ONE + 2 * T + 3 * T**2 + T**3, "t")
    assert unimodal((ONE + T) ** 6, "t")
    assert not unimodal(ONE + T**2, "t")  # internal zero dips
    assert not unimodal(2 + T + 2 * T**2, "t")
    assert unimodal(MultiPoly.const(5), "t")


def test_hook_square_root_census_against_sympy():
    # Independent oracle for C2.2a: P_n = sum over lambda |- n of
    # prod_h (h^2 + t)/h^2 is the x^n coefficient of prod_k (1 - x^k)^-(t+1)
    # (Nekrasov-Okounkov), so n P_n = (t+1) sum_{k=1..n} sigma(k) P_{n-k}.
    # sympy builds P_n from that recurrence and counts its real roots with its
    # own arithmetic; hooklab's enumeration and Sturm chain must agree.
    sympy = pytest.importorskip("sympy")
    t = sympy.Symbol("t")
    polys = [sympy.Poly(1, t, domain="QQ")]
    census = {}
    for n in range(1, 13):
        acc = sum(
            (sympy.divisor_sigma(k) * polys[n - k] for k in range(1, n + 1)),
            sympy.Poly(0, t, domain="QQ"),
        )
        p = acc * sympy.Poly(t + 1, t, domain="QQ") * sympy.Rational(1, n)
        polys.append(p)
        ours = hook_square_polynomial(n)
        theirs = [Fraction(int(c.p), int(c.q)) for c in reversed(p.all_coeffs())]
        assert ours.dense_coeffs("t") == theirs
        count = p.count_roots()
        assert count == sturm_analysis(ours, "t").real_root_count
        census[n] = (count, p.degree())
    assert census[9] == (9, 9)
    # the only non-real-rooted P_n up to n = 12: one conjugate pair each
    assert {n: c for n, c in census.items() if c[0] != c[1]} == {10: (8, 10), 12: (10, 12)}


# (t - r)^m with m <= 3 (r = 0 included), or t^2 + b t + c with b^2 < 4c.
_linear_power = st.tuples(
    st.fractions(min_value=-6, max_value=6, max_denominator=3), st.integers(1, 3)
).map(lambda rm: (T - MultiPoly.const(rm[0])) ** rm[1])
_quadratic = st.tuples(st.integers(-4, 4), st.integers(1, 5)).map(
    lambda bk: T**2 + bk[0] * T + (bk[0] * bk[0] // 4 + bk[1])
)


@settings(deadline=None, max_examples=60)
@given(
    st.lists(st.one_of(_linear_power, _quadratic), min_size=1, max_size=5),
    st.sampled_from([Fraction(1), Fraction(-3, 2), Fraction(5, 7)]),
)
def test_sturm_report_against_sympy(factors, scale):
    sympy = pytest.importorskip("sympy")
    p = MultiPoly.const(scale)
    for f in factors:
        p = p * f
    coeffs = [sympy.Rational(c.numerator, c.denominator) for c in reversed(p.dense_coeffs("t"))]
    theirs = sympy.Poly(coeffs, sympy.Symbol("t"), domain="QQ")
    rep = sturm_analysis(p, "t")
    real = theirs.count_roots()
    # count_roots(None, 0) counts the closed interval (-inf, 0]
    negatives = theirs.count_roots(None, 0) - (theirs.eval(0) == 0)
    assert rep.real_root_count == real
    assert rep.all_roots_simple == (theirs.sqf_part().degree() == theirs.degree())
    assert rep.all_roots_negative == (negatives == real)
