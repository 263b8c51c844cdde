"""Truncated power series: algebra, exp/log, q-objects, eta products."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hooklab.errors import BadConstantTerm, DivisionByNonUnit
from hooklab.identities import partition_gf, rr_q_series
from hooklab.multipoly import ONE, MultiPoly, RatFunc, exact_div
from hooklab.partitions import partition_count, partition_list
from hooklab.permstats import involution_egf
from hooklab.series import (
    TruncatedSeries,
    binomial_poly,
    binomial_series,
    eta_product,
    gaussian_binomial,
    geometric,
    log_one_minus,
    pochhammer,
    qpoch_poly,
)

ORD = 12


def from_ints(vals, order=ORD):
    vals = list(vals) + [0] * (order + 1 - len(vals))
    return TruncatedSeries("x", order, [Fraction(v) for v in vals[: order + 1]])


def test_basic_algebra():
    s = from_ints([1, 2, 3])
    t = from_ints([0, 1])
    assert (s + t).coefficient(1).as_fraction() == 3
    assert (s - s).is_zero()
    assert (s * t).coefficient(1).as_fraction() == 1
    assert (s * t).coefficient(3).as_fraction() == 3


def test_uncoercible_operands_are_not_implemented():
    s = from_ints([1, 2, 3])
    assert s.__sub__(0.5) is NotImplemented
    assert s.__rsub__(0.5) is NotImplemented
    with pytest.raises(TypeError, match="'float' and 'TruncatedSeries'"):
        0.5 - s
    with pytest.raises(TypeError):
        s - 0.5
    assert (1 - s).coefficient(0).as_fraction() == 0
    assert (1 - s).coefficient(1).as_fraction() == -2


def test_ratfunc_defers_to_series_and_rejects_floats():
    s = from_ints([1, 2, 3])
    r = RatFunc(MultiPoly.var("q") + 1, MultiPoly.var("q") + 2)
    assert r.__truediv__(s) is NotImplemented
    assert r.__rtruediv__(0.5) is NotImplemented
    assert r.__rsub__(0.5) is NotImplemented
    assert (r / s).first_difference(s.__rtruediv__(r)) is None
    assert ((r / s) * s).first_difference(TruncatedSeries.const(r, "x", ORD)) is None
    assert (r - s).first_difference(-(s - r)) is None
    with pytest.raises(TypeError, match="'float' and 'RatFunc'"):
        0.5 - r
    with pytest.raises(TypeError, match="'float' and 'RatFunc'"):
        0.5 / r
    with pytest.raises(TypeError, match="'RatFunc' and 'float'"):
        r / 0.5


@pytest.mark.parametrize(
    "build",
    [
        lambda: TruncatedSeries("x", ORD, [1, 0.5]),
        lambda: TruncatedSeries.const(0.5, "x", ORD),
        lambda: TruncatedSeries.monomial("x", ORD, 2, 0.5),
        lambda: TruncatedSeries.monomial("x", 3, 5, 0.5),  # past the order too
        lambda: from_ints([1, 2]) * 0.5,
        lambda: 0.5 * from_ints([1, 2]),
        lambda: from_ints([1, 2]) / 0.5,
        lambda: geometric("x", ORD, 1, 0.5),
        lambda: log_one_minus("x", ORD, 1, 0.5),
        lambda: binomial_series(0.5, "x", ORD),
        lambda: eta_product([(1, 0, 1), (2, 1, 0.5)], ORD),
    ],
    ids=[
        "constructor", "const", "monomial", "monomial-past-order", "scalar-mul",
        "scalar-rmul", "scalar-div", "geometric-coeff", "log_one_minus-coeff",
        "binomial-exponent", "eta-exponent",
    ],
)
def test_floats_are_rejected(build):
    with pytest.raises(TypeError):
        build()


def test_polynomial_builders_hold_only_multipoly_values():
    t = MultiPoly.var("t")
    built = {
        "eta_product": eta_product([(1, 0, t + 1), (2, 1, 2, True)], 10),
        "binomial_series": binomial_series(t * t - 1, "x", 8, deg=2),
        "partition_gf": partition_gf(10),
        "involution_egf": involution_egf(8),
    }
    for kind in ("prop91", "prop92_middle", "prop92_right", "thm95"):
        built[kind] = rr_q_series(kind, 9)
    kinds = {name: {type(c) for c in s.coeffs} for name, s in built.items()}
    assert kinds == {name: {MultiPoly} for name in built}


def test_ratfunc_series_divide_by_one_minus_t():
    # As in q_eulerian_B_reference: RatFunc coefficients, constant term 1 - t.
    t, q = MultiPoly.var("t"), MultiPoly.var("q")
    den = TruncatedSeries("x", 5, [RatFunc(1 - t), RatFunc(t, 1 - q), RatFunc(ONE, 1 - q * q)])
    num = TruncatedSeries("x", 5, [1, t, RatFunc(q, 1 + t)])
    quotient = num / den
    assert quotient.coefficient(0) == RatFunc(ONE, 1 - t)
    assert (quotient * den).first_difference(num) is None
    assert (num / RatFunc(1 - t)).first_difference(num * RatFunc(ONE, 1 - t)) is None


def test_geometric_inverts_one_minus_x():
    one_minus = from_ints([1, -1])
    assert (geometric("x", ORD) * one_minus).first_difference(from_ints([1])) is None


def test_division_roundtrip():
    a = from_ints([1, 5, -2, 7])
    b = from_ints([1, -3, 3, 0, 2])
    assert ((a * b) / b).first_difference(a) is None


def test_division_needs_unit_constant_term():
    with pytest.raises(DivisionByNonUnit):
        from_ints([1]) / from_ints([0, 1])
    # A unit of the coefficient ring: no silent switch to RatFunc coefficients.
    t = MultiPoly.var("t")
    s = from_ints([1, 2, 3])
    with pytest.raises(DivisionByNonUnit, match="not 1 - t"):
        s / TruncatedSeries("x", ORD, [1 - t, 1])
    with pytest.raises(DivisionByNonUnit, match="not t"):
        s / t
    for zero in (0, Fraction(0), MultiPoly.const(0), RatFunc(0)):
        with pytest.raises(ZeroDivisionError):
            s / zero
    halved = s / MultiPoly.const(2)
    assert halved.first_difference(s * Fraction(1, 2)) is None
    assert {type(c) for c in halved.coeffs} == {MultiPoly}


rational_lists = st.lists(
    st.fractions(min_value=-5, max_value=5, max_denominator=6), min_size=0, max_size=6
)


@settings(deadline=None)
@given(rational_lists)
def test_log_exp_roundtrip(vals):
    s = TruncatedSeries("x", 10, [Fraction(0)] + [Fraction(v) for v in vals])
    assert s.exp().log().first_difference(s) is None


@settings(deadline=None)
@given(rational_lists, rational_lists)
def test_exp_turns_sums_into_products(u, v):
    a = TruncatedSeries("x", 8, [Fraction(0)] + [Fraction(x) for x in u])
    b = TruncatedSeries("x", 8, [Fraction(0)] + [Fraction(x) for x in v])
    assert ((a + b).exp()).first_difference(a.exp() * b.exp()) is None


def test_exp_requires_zero_constant_term():
    with pytest.raises(BadConstantTerm):
        from_ints([1, 1]).exp()
    with pytest.raises(BadConstantTerm):
        from_ints([0, 1]).log()


def test_coefficients_must_not_involve_the_series_variable():
    z = MultiPoly.var("z")
    with pytest.raises(ValueError, match="must not involve z"):
        TruncatedSeries("z", 4, [1, z + 1])
    with pytest.raises(ValueError, match="must not involve z"):
        TruncatedSeries("z", 4, [1, RatFunc(1, 1 + z)])
    in_x = TruncatedSeries("x", 4, [1, z, RatFunc(1, 1 + z)])
    assert in_x.coefficient(1) == RatFunc.coerce(z)


def test_from_poly_and_coefficient_views():
    t = MultiPoly.var("t")
    p = 3 * t**2 + t + 2
    s = TruncatedSeries.from_poly(p, "t", "x", ORD)
    assert s.coefficient(0).as_fraction() == 2
    assert s.coefficient(2).as_fraction() == 3
    assert s.coefficient(5) == RatFunc.coerce(0)
    # coefficient returns the element stored: scalars lifted, the rest as given
    r = RatFunc(t)
    given = TruncatedSeries("x", 3, [2, t, r])
    assert given.coefficient(0) == 2 and type(given.coefficient(0)) is MultiPoly
    assert given.coefficient(1) is t and given.coefficient(2) is r
    assert type(given.coefficient(3)) is MultiPoly


def test_first_difference_reports_smallest_order():
    a = from_ints([1, 2, 3, 4])
    b = from_ints([1, 2, 9, 4])
    assert a.first_difference(b) == 2
    assert a.first_difference(a) is None


# ----- named series ---------------------------------------------------------------


def test_pentagonal_number_expansion():
    # prod (1 - x^j) has +-1 coefficients exactly at k(3k+-1)/2
    euler = eta_product([(1, 0, -1)], 20)
    expected = {0: 1, 1: -1, 2: -1, 5: 1, 7: 1, 12: -1, 15: -1}
    for n in range(21):
        assert euler.coefficient(n).as_fraction() == expected.get(n, 0)


def test_partition_generating_series_two_ways():
    gf = eta_product([(1, 0, 1)], 25)
    for n in range(26):
        assert gf.coefficient(n).as_fraction() == partition_count(n)
    # and the recurrence agrees with raw enumeration
    for n in range(12):
        assert partition_count(n) == len(partition_list(n))


def test_binomial_series_is_group_like():
    t = MultiPoly.var("t")
    up = binomial_series(t, "x", 10)
    down = binomial_series(-t, "x", 10)
    prod = up * down
    assert prod.coefficient(0).is_one()
    assert all(prod.coefficient(n).is_zero() for n in range(1, 11))


def test_binomial_series_integer_exponent_matches_binomials():
    s = binomial_series(MultiPoly.const(3), "x", 8)
    # (1-x)^-3 has coefficients C(n+2, 2)
    for n in range(9):
        assert s.coefficient(n).as_fraction() == math.comb(n + 2, 2)


def test_binomial_poly_spot():
    t = MultiPoly.var("t")
    assert binomial_poly(t, 2) == t * (t - 1) * Fraction(1, 2)
    assert binomial_poly(MultiPoly.const(5), 3).as_fraction() == 10


def _box_partition_gf(k, m):
    """Size generating function of partitions in a k x m box, by direct DP.

    Split on the number of parts: fewer than k (drop a row) or exactly k
    (strip the first column, costing q^k).
    """
    table = [[None] * (m + 1) for _ in range(k + 1)]
    for a in range(k + 1):
        for b in range(m + 1):
            if a == 0 or b == 0:
                table[a][b] = {0: 1}
            else:
                merged = dict(table[a - 1][b])
                for exp, c in table[a][b - 1].items():
                    merged[exp + a] = merged.get(exp + a, 0) + c
                table[a][b] = merged
    return table[k][m]


def test_gaussian_binomial_counts_box_partitions():
    for n in range(9):
        for k in range(n + 1):
            gb = gaussian_binomial(n, k)
            box = _box_partition_gf(k, n - k)
            dense = {e: int(c) for e, c in enumerate(gb.dense_coeffs("q")) if c}
            assert dense == {e: c for e, c in box.items() if c}


def test_gaussian_binomial_symmetry_and_unit():
    for n in range(9):
        for k in range(n + 1):
            assert gaussian_binomial(n, k) == gaussian_binomial(n, n - k)
            assert gaussian_binomial(n, k).subs("q", 1).as_fraction() == math.comb(n, k)


def test_gaussian_binomial_matches_the_qpoch_quotient():
    for n in range(13):
        for k in range(n + 1):
            quotient = exact_div(qpoch_poly(n), qpoch_poly(k) * qpoch_poly(n - k))
            assert gaussian_binomial(n, k) == quotient, (n, k)
    assert gaussian_binomial(5, -1).is_zero() and gaussian_binomial(5, 6).is_zero()


def test_qpoch_recurrence():
    q = MultiPoly.var("q")
    for n in range(8):
        assert qpoch_poly(n + 1) == qpoch_poly(n) * (1 - q ** (n + 1))


def test_pochhammer_finite_product():
    q = TruncatedSeries.monomial("x", 10, 1)
    a = TruncatedSeries.monomial("x", 10, 1)
    # (x; x)_3 = (1-x)(1-x^2)(1-x^3)
    lhs = pochhammer(a, q, 3, 10)
    rhs = from_ints([1, -1], 10) * from_ints([1, 0, -1], 10) * from_ints(
        [1, 0, 0, -1], 10
    )
    assert lhs.first_difference(rhs) is None


def test_eta_product_with_offset_and_plus_sign():
    # prod 1/(1 + x^(2j-1)) via the negated factor form
    s = eta_product([(2, 1, 1, True)], 10)
    direct = TruncatedSeries.const(1, "x", 10)
    for j in range(1, 11):
        off = 2 * j - 1
        if off > 10:
            break
        direct = direct / (
            TruncatedSeries.const(1, "x", 10) + TruncatedSeries.monomial("x", 10, off)
        )
    assert s.first_difference(direct) is None


def test_polynomial_exponent_eta_factor():
    t = MultiPoly.var("t")
    # prod (1-x^j)^(-(t+1)) at t=0 collapses to the partition series
    s = eta_product([(1, 0, t + 1)], 10)
    at0 = TruncatedSeries(
        "x", 10, [s.coefficient(n).subs("t", 0) for n in range(11)]
    )
    assert at0.first_difference(eta_product([(1, 0, 1)], 10)) is None


def test_render_smoke():
    assert "x" in geometric("x", 4).render()
