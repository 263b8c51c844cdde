"""Truncated power series: algebra, exp/log, q-objects, eta products."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hooklab.checks import _contents, _linear
from hooklab.errors import BadConstantTerm, DivisionByNonUnit
from hooklab.identities import (
    _qpoch,
    arm_zero_sum,
    leg_zero_sum,
    linear_product_series,
    partition_gf,
    prop91_series,
    prop92_middle_series,
    prop92_right_series,
    surd_hook_factor,
    thm95_series,
)
from hooklab.multipoly import ONE, VARIABLES, MultiPoly, RatFunc, exact_div
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
    qpoch_poly,
)

ORD = 12


def from_ints(vals, order=ORD):
    vals = list(vals) + [0] * (order + 1 - len(vals))
    return TruncatedSeries(order, [Fraction(v) for v in vals[: order + 1]])


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


def test_a_scalar_never_equals_a_series():
    # Equality must agree with hashing and stay transitive, so a series is
    # not lifted from a scalar, a polynomial or a rational function.
    one3, one5 = TruncatedSeries(3, [1]), TruncatedSeries(5, [1])
    q = MultiPoly.var("q")
    for other in (1, Fraction(1), MultiPoly.const(1), q, ONE / (q + 1)):
        assert one3 != other and other != one3
        assert one3.__eq__(other) is NotImplemented
    assert len({one3, 1}) == 2
    assert one3 != one5
    assert one3 == TruncatedSeries(3, [MultiPoly.const(1)])
    assert len({one3, TruncatedSeries(3, [1, 0])}) == 1


def test_ratfunc_defers_to_series_and_rejects_floats():
    s = from_ints([1, 2, 3])
    r = (MultiPoly.var("q") + 1) / (MultiPoly.var("q") + 2)
    assert r.__truediv__(s) is NotImplemented
    assert r.__rtruediv__(0.5) is NotImplemented
    assert r.__rsub__(0.5) is NotImplemented
    assert (r / s).first_difference(s.__rtruediv__(r)) is None
    assert ((r / s) * s).first_difference(TruncatedSeries(ORD, [r])) is None
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
        lambda: TruncatedSeries(ORD, [1, 0.5]),
        lambda: TruncatedSeries(ORD, [0.5]),
        lambda: TruncatedSeries.monomial(ORD, 2, 0.5),
        lambda: TruncatedSeries.monomial(3, 5, 0.5),  # past the order too
        lambda: from_ints([1, 2]) * 0.5,
        lambda: 0.5 * from_ints([1, 2]),
        lambda: from_ints([1, 2]) / 0.5,
        lambda: log_one_minus(ORD, 1, 0.5),
        lambda: binomial_series(0.5, ORD),
        lambda: eta_product([(1, 0, 1), (2, 1, 0.5)], ORD),
    ],
    ids=[
        "constructor", "const", "monomial", "monomial-past-order", "scalar-mul",
        "scalar-rmul", "scalar-div", "log_one_minus-coeff",
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
        "binomial_series": binomial_series(t * t - 1, 8, deg=2),
        "partition_gf": partition_gf(10),
        "involution_egf": involution_egf(8),
        "arm_zero_sum": TruncatedSeries(9, [arm_zero_sum(n) for n in range(10)]),
        "leg_zero_sum": TruncatedSeries(9, [leg_zero_sum(n) for n in range(10)]),
        # X3.2's sum: the denominator n!^2 is an integer, so it divides out.
        "linear_product_series": linear_product_series(7, _linear(_contents, 2), 2, "tv"),
    }
    for build in (prop91_series, prop92_middle_series, prop92_right_series, thm95_series):
        built[build.__name__] = build(9)
    kinds = {name: {type(c) for c in s.coeffs} for name, s in built.items()}
    assert kinds == {name: {MultiPoly} for name in built}
    assert [type(surd_hook_factor(h)) for h in range(1, 13)] == [MultiPoly] * 2 + [RatFunc] * 10


def test_ratfunc_series_divide_by_one_minus_t():
    # As in q_eulerian_B_reference: RatFunc coefficients, constant term 1 - t,
    # which is no unit of the polynomial ring until both sides are scaled by
    # 1/(1 - t).
    t, q = MultiPoly.var("t"), MultiPoly.var("q")
    den = TruncatedSeries(5, [1 - t, t / (1 - q), ONE / (1 - q * q)])
    num = TruncatedSeries(5, [1, t, q / (1 + t)])
    with pytest.raises(DivisionByNonUnit, match="not 1 - t"):
        num / den
    with pytest.raises(DivisionByNonUnit, match="not 1 - t"):
        num / (1 - t)
    unit = 1 / (1 - t)
    quotient = num * unit / (den * unit)
    assert quotient.coefficient(0) == ONE / (1 - t)
    assert (quotient * den).first_difference(num) is None
    assert (num / unit).first_difference(num * (1 - t)) is None


def test_geometric_inverts_one_minus_x():
    one_minus = from_ints([1, -1])
    assert (geometric(ORD) * one_minus).first_difference(from_ints([1])) is None


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
        s / TruncatedSeries(ORD, [1 - t, 1])
    with pytest.raises(DivisionByNonUnit, match="not t"):
        s / t
    for zero in (0, Fraction(0), MultiPoly.const(0), MultiPoly.const(0) / t):
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
    s = TruncatedSeries(10, [Fraction(0)] + [Fraction(v) for v in vals])
    assert s.exp().log().first_difference(s) is None


@settings(deadline=None)
@given(rational_lists, rational_lists)
def test_exp_turns_sums_into_products(u, v):
    a = TruncatedSeries(8, [Fraction(0)] + [Fraction(x) for x in u])
    b = TruncatedSeries(8, [Fraction(0)] + [Fraction(x) for x in v])
    assert ((a + b).exp()).first_difference(a.exp() * b.exp()) is None


def test_exp_requires_zero_constant_term():
    with pytest.raises(BadConstantTerm):
        from_ints([1, 1]).exp()
    with pytest.raises(BadConstantTerm):
        from_ints([0, 1]).log()


def test_coefficients_may_use_any_coefficient_variable():
    # The series variable x is no coefficient variable, so any of them, z
    # included, may appear in a coefficient, inside a RatFunc too.
    for name in VARIABLES:
        v = MultiPoly.var(name)
        s = TruncatedSeries(4, [1, v, ONE / (1 + v)])
        assert s.coefficient(1) == v and s.coefficient(2) == ONE / (1 + v)
        assert (s * s).coefficient(1) == 2 * v


def test_dense_coefficients_and_coefficient_views():
    t = MultiPoly.var("t")
    p = 3 * t**2 + t + 2
    s = TruncatedSeries(ORD, p.dense_coeffs("t"))
    assert s.coefficient(0).as_fraction() == 2
    assert s.coefficient(2).as_fraction() == 3
    assert s.coefficient(5) == MultiPoly.const(0)
    # coefficient returns the element stored: scalars lifted, the rest as given
    r = t / (t + 1)
    given = TruncatedSeries(3, [2, t, r])
    assert given.coefficient(0) == 2 and type(given.coefficient(0)) is MultiPoly
    assert given.coefficient(1) is t and given.coefficient(2) is r
    assert type(given.coefficient(3)) is MultiPoly


def test_first_difference_reports_smallest_order():
    a = from_ints([1, 2, 3, 4])
    b = from_ints([1, 2, 9, 4])
    assert a.first_difference(b) == 2
    assert a.first_difference(a) is None


@pytest.mark.parametrize(
    "op",
    [
        lambda a, b: a + b,
        lambda a, b: a - b,
        lambda a, b: a * b,
        lambda a, b: a / b,
        lambda a, b: a.first_difference(b),
    ],
    ids=["add", "sub", "mul", "div", "first_difference"],
)
def test_series_of_different_orders_do_not_mix(op):
    a, b = from_ints([1, 2], 3), from_ints([1, 2], 5)
    with pytest.raises(ValueError, match="orders differ: 3 vs 5"):
        op(a, b)
    with pytest.raises(ValueError, match="orders differ: 5 vs 3"):
        op(b, a)


def test_bad_orders_degrees_and_indices_raise():
    with pytest.raises(ValueError, match="order must be nonnegative"):
        TruncatedSeries(-1)
    with pytest.raises(ValueError, match="order must be nonnegative"):
        TruncatedSeries.monomial(-1, 0)
    with pytest.raises(ValueError, match="degree must be nonnegative"):
        TruncatedSeries.monomial(4, -1)
    s = from_ints([1, 2, 3], 4)
    assert s.coefficient(0) == ONE and s.coefficient(4).is_zero()
    for n in (-1, 5):
        with pytest.raises(IndexError, match=f"coefficient {n} outside truncation order 4"):
            s.coefficient(n)
    for deg in (0, -1):
        with pytest.raises(ValueError, match="degree >= 1"):
            log_one_minus(4, deg)


@pytest.mark.parametrize(
    "build",
    [
        lambda: TruncatedSeries("x", 3),
        lambda: TruncatedSeries("x", 3, [1, 2]),
        lambda: TruncatedSeries.monomial("x", 3, 1),
        lambda: geometric("x", 4),
        lambda: log_one_minus("x", 4, 1),
        lambda: binomial_series(1, "x", 4),
        lambda: binomial_series(1, "x", 4, deg=2),
    ],
    ids=[
        "constructor", "constructor-coeffs", "monomial", "geometric",
        "log_one_minus", "binomial_series", "binomial_series-deg",
    ],
)
def test_a_series_variable_name_is_refused(build):
    # Every series is in x; the old leading variable name never builds one.
    with pytest.raises(TypeError):
        build()


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
    up = binomial_series(t, 10)
    down = binomial_series(-t, 10)
    prod = up * down
    assert prod.coefficient(0).is_one()
    assert all(prod.coefficient(n).is_zero() for n in range(1, 11))


def test_binomial_series_integer_exponent_matches_binomials():
    s = binomial_series(MultiPoly.const(3), 8)
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


def test_qpoch_finite_product():
    # (x; x)_3 = (1-x)(1-x^2)(1-x^3)
    rhs = from_ints([1, -1], 10) * from_ints([1, 0, -1], 10) * from_ints(
        [1, 0, 0, -1], 10
    )
    assert _qpoch(1, 3, 10).first_difference(rhs) is None
    assert _qpoch(1, 0, 10) == TruncatedSeries(10, [1])
    # (qx; x)_2 = (1 - qx)(1 - qx^2) = 1 - qx - qx^2 + q^2 x^3
    q = MultiPoly.var("q")
    assert _qpoch(q, 2, 5) == TruncatedSeries(5, [1, -q, -q, q**2])
    # past the order the factors are 1: (x; x)_9 at order 4 is (x; x)_4 there
    full = TruncatedSeries(4, [1, -1, -1, 0, 0])  # Euler: 1 - x - x^2 + x^5 + ...
    assert _qpoch(1, 9, 4) == full == _qpoch(1, 4, 4)
    assert _qpoch(q, 7, 3) == TruncatedSeries(3, [1, -q, -q, q**2 - q])


def test_eta_product_with_offset_and_plus_sign():
    # prod 1/(1 + x^(2j-1)) via the negated factor form
    s = eta_product([(2, 1, 1, True)], 10)
    direct = TruncatedSeries(10, [1])
    for j in range(1, 11):
        off = 2 * j - 1
        if off > 10:
            break
        direct = direct / (
            TruncatedSeries(10, [1]) + TruncatedSeries.monomial(10, off)
        )
    assert s.first_difference(direct) is None


def test_eta_product_needs_offset_below_stride():
    # stride*j - offset must be positive for j = 1: (2, 2) would divide by
    # 1 - x^0 and (3, 5) take 1 - x^(-2).
    for factor in ((2, 2, 1), (3, 5, 1), (1, 1, 1, True)):
        with pytest.raises(ValueError, match="must be below stride"):
            eta_product([(1, 0, 1), factor], 6)
    for stride in (0, -1):
        with pytest.raises(ValueError, match="stride must be >= 1"):
            eta_product([(stride, 0, 1)], 6)
    # odd and even parts give every partition; offset stride - 1 starts at x^1
    assert eta_product([(1, 0, 1)], 6) == eta_product([(2, 1, 1), (2, 0, 1)], 6)
    assert eta_product([(5, 4, 1)], 3).first_difference(geometric(3)) is None


def test_polynomial_exponent_eta_factor():
    t = MultiPoly.var("t")
    # prod (1-x^j)^(-(t+1)) at t=0 collapses to the partition series
    s = eta_product([(1, 0, t + 1)], 10)
    at0 = TruncatedSeries(10, [s.coefficient(n).subs("t", 0) for n in range(11)])
    assert at0.first_difference(eta_product([(1, 0, 1)], 10)) is None


def test_render_smoke():
    assert geometric(2).render() == "1 + x + x^2 + O(x^3)"
    assert TruncatedSeries(3).render() == "0"
    assert "x^20 + O(x^21)" in geometric(20).render()
