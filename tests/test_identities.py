"""Partition-indexed series, square statistics and finite identities.

Every frozen constant in this file was computed by the brute-force oracle
next to it; the library paths being tested never enumerate the same way.
"""

import math
import random
from collections import Counter
from fractions import Fraction

import pytest

from hooklab import identities
from hooklab.checks import _constant, _contents, _fraction_sum, _linear
from hooklab.errors import ExponentOverflow, NotSquare
from hooklab.harness import run_check
from hooklab.identities import (
    arm_zero_sum,
    cycle_index_sums,
    det_bareiss,
    equivalence_classes_D,
    hook_falling_factorial_moment,
    hook_product_sum,
    hook_square_polynomial,
    hook_sum_series,
    involution_moment_poly,
    leg_zero_sum,
    linear_product_series,
    linear_product_sum,
    marked_hook_rhs_series,
    marked_part_rhs_series,
    max_unit_hooks,
    multiplicity_binomial_sum,
    partition_gf,
    part_count_rhs_series,
    part_marker_rhs_series,
    part_sum_series,
    power_sum_rhs_series,
    power_traces,
    prop91_series,
    prop92_middle_series,
    prop92_right_series,
    rr_count_series,
    rr_product_series,
    squares_polynomial,
    squares_total,
    surd_hook_factor,
    thm95_series,
    top_hook_polynomial,
    triangular_series,
)
from hooklab.multipoly import EXP_LIMIT, MultiPoly, ONE, RatFunc
from hooklab.partitions import (
    Partition,
    cell_stats,
    hook_part_census,
    partition_count,
    partition_list,
    rr_sets,
)
from hooklab.series import TruncatedSeries, binomial_poly, geometric

T = MultiPoly.var("t")
Q = MultiPoly.var("q")
V = MultiPoly.var("v")
A = MultiPoly.var("a")


# ----- geometric square-count oracle ----------------------------------------------


def _squares_by_fitting(lam):
    """Count k x k blocks by scanning top-left corners; no hook shortcuts."""
    parts = lam.parts
    total = 0
    for i in range(1, len(parts) + 1):
        for j in range(1, parts[i - 1] + 1):
            k = 1
            while (
                i + k - 1 <= len(parts) and parts[i + k - 2] >= j + k - 1
            ):
                total += 1
                k += 1
    return total


def test_square_count_routes_agree_with_fitting_scan():
    for n in range(11):
        for lam in partition_list(n):
            expected = _squares_by_fitting(lam)
            assert lam.squares_count() == expected
            assert lam.squares_count_geometric() == expected
            assert lam.squares_count_by_diagonal() == expected


def test_squares_polynomial_and_total():
    for n in range(1, 11):
        poly = squares_polynomial(n)
        assert poly.subs("q", 1).as_fraction() == partition_count(n)
        assert squares_total(n) == sum(
            _squares_by_fitting(lam) for lam in partition_list(n)
        )
        assert squares_total(n) == poly.derivative("q").subs("q", 1).as_fraction()
    # frozen from the fitting scan
    assert [squares_total(n) for n in range(1, 9)] == [1, 4, 9, 21, 37, 73, 117, 202]
    # Theorem 9.5(iii)'s sparse double series, at every truncation up to 14
    fitted = [
        sum((Q ** _squares_by_fitting(lam) for lam in partition_list(n)), MultiPoly.const(0))
        for n in range(15)
    ]
    for order in range(15):
        assert thm95_series(order) == TruncatedSeries(order, fitted[: order + 1])


def test_equivalence_classes_partition_everything():
    for n in range(1, 13):
        classes = equivalence_classes_D(n)
        assert sum(len(v) for v in classes.values()) == partition_count(n)
        assert min(classes) >= n
        poly = squares_polynomial(n)
        for j, members in classes.items():
            assert poly.coeff_of("q", j).as_fraction() == len(members)


# ----- hook-square polynomials ------------------------------------------------------


def test_hook_square_polynomial_small_cases():
    half = Fraction(1, 2)
    assert hook_square_polynomial(1) == ONE + T
    assert hook_square_polynomial(2) == (ONE + T) * (4 + T) * half
    for n in range(1, 10):
        p = hook_square_polynomial(n)
        assert p.subs("t", 0).as_fraction() == partition_count(n)
        lead = p.coeff_of("t", n).as_fraction()
        assert lead == Fraction(1, math.factorial(n))


def _hook_square_by_factors(n):
    """Oracle: multiply the Fraction factors (t + h^2)/h^2 cell by cell."""
    total = MultiPoly.const(0)
    for lam in partition_list(n):
        num = ONE
        den = 1
        for h in lam.hook_lengths():
            num = num * (T + h * h)
            den *= h * h
        total = total + num * Fraction(1, den)
    return total


def _multiplicity_binomials_by_factors(n):
    """Oracle: multiply the binomial polynomials binom(t + k, k) part by part."""
    total = MultiPoly.const(0)
    for lam in partition_list(n):
        prod = ONE
        for k in lam.multiplicities().values():
            prod = prod * binomial_poly(T + k, k)
        total = total + prod
    return total


def test_integer_sums_match_factor_products():
    for n in range(15):
        for fast, oracle in (
            (hook_square_polynomial(n), _hook_square_by_factors(n)),
            (multiplicity_binomial_sum(n), _multiplicity_binomials_by_factors(n)),
        ):
            assert fast == oracle
            assert fast.render() == oracle.render()


def test_hook_square_polynomials_are_computed_once_per_n():
    hook_square_polynomial.cache_clear()
    assert run_check("C2.1", {"max_n": 6, "eta_order": 8}).status == "verified"
    assert run_check("C2.2b", {"max_n": 10}).status == "verified"
    assert hook_square_polynomial.cache_info().misses == 11  # n = 0..10


def test_hook_square_and_multiplicity_invariants_past_default_bounds():
    # t=0 counts partitions; t=-1 is the constant 1 of prod (1-x^k)^-(t+1)
    for n in range(25):
        for p in (hook_square_polynomial(n), multiplicity_binomial_sum(n)):
            assert p.evaluate({"t": 0}) == partition_count(n)
            assert p.degree("t") == n
            assert p.coeff_of("t", n).as_fraction() == Fraction(1, math.factorial(n))
            assert p.evaluate({"t": -1}) == (0 if n else 1)


# ----- the per-cell product sum ------------------------------------------------------


def _cell_product_sum(n, weight):
    """sum over lambda |- n of the product of weight(u) over the cells of lambda.

    Integer and Fraction weights multiply one scalar per partition; the
    MultiPoly and RatFunc weights group partitions by their multiset of
    objects, by identity, for identities._multiset_product_sum.  A weight
    that returns shared objects gets the sharing; fresh objects give the
    same sum without it.
    """
    index, objects, groups = {}, [], {}  # objects keeps every id distinct for the call
    for lam in partition_list(n):
        scale, key = 1, []
        for cs in cell_stats(lam):
            w = weight(cs, lam)
            if isinstance(w, (MultiPoly, RatFunc)):
                if id(w) not in index:
                    index[id(w)] = len(objects)
                    objects.append(w)
                key.append(index[id(w)])
            else:
                scale *= w
        key = tuple(sorted(key))
        groups[key] = groups.get(key, 0) + scale
    return identities._multiset_product_sum(groups, objects)


# ----- the linear product kernel ----------------------------------------------------


def _content(lam, i, j):
    return j - i


_sp = Partition.symplectic_content
_orth = Partition.orthogonal_content


def _shift_weight(stat, square, power):
    """Per-cell weight (t + a_u)/h_u^power with a_u = stat, squared if asked."""

    def weight(cs, lam):
        a = stat(lam, cs.i, cs.j)
        return (T + (a * a if square else a)) * Fraction(1, cs.hook**power)

    return weight


def _scalar_weight(stat, power):
    """Per-cell weight a_u^power / h_u^power."""
    return lambda cs, lam: Fraction(stat(lam, cs.i, cs.j) ** power, cs.hook**power)


# Each check's factors and power, built as the check builds them from
# whole-diagram vectors, beside the per-cell weight that _cell_product_sum
# multiplies out cell by cell, and the variables if not t alone.
PORTED_WEIGHTS = {
    "X3.2": (
        _linear(_contents, 2),
        2,
        lambda cs, lam: (T + cs.content) * (V + cs.content) * Fraction(1, cs.hook**2),
        "tv",
    ),
    "X3.3": (_linear(_contents, 1), 1, _shift_weight(_content, False, 1)),
    "X3.4": (_linear(_contents, 2), 2, _shift_weight(_content, False, 2)),
    "C6.2a": (_linear(Partition.symplectic_contents, 1), 1, _shift_weight(_sp, False, 1)),
    "C6.2b": (_linear(Partition.orthogonal_contents, 1), 1, _shift_weight(_orth, False, 1)),
    "C6.2c-and-P6.1-sp": (
        _constant(Partition.symplectic_contents, 1), 1, _scalar_weight(_sp, 1)
    ),
    "P6.1-orth": (_constant(Partition.orthogonal_contents, 1), 1, _scalar_weight(_orth, 1)),
    "C6.3a-sp": (
        _linear(lambda lam: [a * a for a in lam.symplectic_contents()], 2),
        2,
        _shift_weight(_sp, True, 2),
    ),
    "C6.3a-orth": (
        _linear(lambda lam: [a * a for a in lam.orthogonal_contents()], 2),
        2,
        _shift_weight(_orth, True, 2),
    ),
    "C6.3b": (_constant(Partition.symplectic_contents, 2), 2, _scalar_weight(_sp, 2)),
}


@pytest.mark.parametrize("name", sorted(PORTED_WEIGHTS))
def test_linear_kernel_matches_generic_product_sum(name):
    factors, power, cell_weight, *names = PORTED_WEIGHTS[name]
    for n in range(13):
        got = linear_product_sum(n, factors, power, *names)
        want = _cell_product_sum(n, cell_weight)
        assert got == want, (name, n)
        assert got.render() == want.render()


def test_linear_series_matches_generic_product_series():
    factors, power, cell_weight = PORTED_WEIGHTS["C6.2a"]
    got = linear_product_series(8, factors, power)
    want = TruncatedSeries(8, [_cell_product_sum(n, cell_weight) for n in range(9)])
    assert got == want


def _linear_product_oracle(n, factors, power):
    """Multiply w * (t + r) factor by factor as MultiPolys, partition by
    partition, and divide the sum by n!^power."""
    total = MultiPoly.const(0)
    for lam in partition_list(n):
        shifts, w = factors(lam)
        prod = MultiPoly.const(w)
        for r in shifts:
            prod = prod * (T + r)
        total = total + prod
    return total * Fraction(1, math.factorial(n) ** power)


# Each case's factors and power.
EDGE_FACTORS = {
    "empty-shifts": (lambda lam: ((), len(lam) * 7), 1),
    "zero-weight": (lambda lam: (lam.hook_lengths(), len(lam) % 2), 0),
    "negative-shifts": (
        lambda lam: (
            [-h for h in lam.hook_lengths()] + [j - i - 3 for i, j in lam.cells()], -1
        ),
        0,
    ),
    # Signed weights 2, 3, 4, 9, 5, 10 by length over n!^2: the sum shares
    # some but not all of its factors with the denominator.
    "mixed-denominators": (
        lambda lam: (
            [p - 2 for p in lam.parts], (-1) ** len(lam) * (10, 2, 3, 4, 9, 5)[len(lam) % 6]
        ),
        2,
    ),
}


@pytest.mark.parametrize("name", sorted(EDGE_FACTORS))
def test_linear_kernel_edge_cases_match_factor_products(name):
    factors, power = EDGE_FACTORS[name]
    for n in range(10):
        got = linear_product_sum(n, factors, power)
        want = _linear_product_oracle(n, factors, power)
        assert got == want, (name, n)
        assert got.render() == want.render()


def test_linear_kernel_single_products_match_factor_products():
    # Over n = 0 the sum is the one product w * prod (t + r): shifts of both
    # signs, zero and repeated shifts, and signed weights.
    rng = random.Random(3)
    cases = [([0], 1), ([0, 0], 1), ([1, -1], 1), ([5, -2, -2], -3), ([-6] * 8, 1)]
    cases += [
        ([rng.randint(-6, 6) for _ in range(rng.randint(0, 8))], rng.choice([-2, -1, 1, 3]))
        for _ in range(100)
    ]
    for shifts, w in cases:
        want = MultiPoly.const(w)
        for r in shifts:
            want = want * (T + r)
        got = linear_product_sum(0, lambda lam: (shifts, w), 0)
        assert got == want, shifts
        assert got.degree("t") == len(shifts)


def test_linear_kernel_small_and_degenerate_sums():
    # n=0 sums over the empty partition alone, and 0! = 1.
    assert linear_product_sum(0, lambda lam: ((), 3), 2) == MultiPoly.const(3)
    assert linear_product_sum(0, lambda lam: ([5], 1), 1) == T + 5
    assert linear_product_sum(0, lambda lam: (lam.hook_lengths(), 1), 0) == ONE
    # Two partitions of 2, each weighing 3 over 2!^2.
    assert linear_product_sum(2, lambda lam: ((), 3), 2) == MultiPoly.const(Fraction(3, 2))
    # [2] and [1,1] cancel; a zero weight everywhere sums to zero.
    assert linear_product_sum(2, lambda lam: ([1, 2], 1 if len(lam) == 1 else -1), 0).is_zero()
    assert linear_product_sum(6, lambda lam: ([3, -1], 0), 1).is_zero()
    # 1/len(lam) is (2 // len(lam))/2!.
    assert linear_product_sum(2, lambda lam: ([-1], 2 // len(lam)), 1) == (
        (T - 1) * Fraction(3, 2)
    )


def test_linear_kernel_rejects_inexact_weights():
    # A weight is an int over n!^power; a Fraction, a float or a MultiPoly
    # never sums silently.
    for w in (Fraction(1, 2), 0.5, MultiPoly.const(1)):
        with pytest.raises(TypeError, match="integer weight"):
            linear_product_sum(3, lambda lam: ([1], w if len(lam) == 2 else 1), 0)


# ----- cancelled multisets and shift groups ----------------------------------------


def _recorded_shift_groups(monkeypatch):
    """Record the live groups of every linear_product_sum."""
    seen = []
    groups = identities._shift_groups

    def recorded(n, factors):
        seen.append(groups(n, factors))
        return seen[-1]

    monkeypatch.setattr(identities, "_shift_groups", recorded)
    return seen


def test_linear_kernel_merges_equal_shift_multisets(monkeypatch):
    # The hook-square sum has one live group per multiset of squared hooks,
    # weighing (f^lambda)^2 summed over its partitions; lambda and its
    # conjugate share one, so there are fewer groups than partitions.
    n = 12
    seen = _recorded_shift_groups(monkeypatch)
    assert hook_square_polynomial.__wrapped__(n) == _hook_square_by_factors(n)
    want = Counter()
    for lam in partition_list(n):
        want[tuple(sorted(h * h for h in lam.hook_lengths()))] += lam.dim_sytx() ** 2
    assert seen == [dict(want)]
    assert len(want) < len(partition_list(n))


_X, _Y, _W = T + 1, T + 2, (T + 3) ** 4


def _cancelling_weight(cs, lam):
    """Over n = 3: (3) and (2,1) both give the multiset {W} with scalars 1 and
    -1, which cancel; (1,1,1) gives {X, Y, Y}, of lower degree than W."""
    if (cs.i, cs.j) == (1, 1):
        return _X if len(lam) == 3 else _W
    if len(lam) == 3:
        return _Y
    return -1 if cs.i == 2 else 1


def _recorded_layouts(monkeypatch):
    """Record the degree bounds of every packed layout the kernels build."""
    seen = []

    class Recorded(identities.Packing):
        __slots__ = ()

        def __init__(self, degrees, bound):
            seen.append(dict(degrees))
            super().__init__(degrees, bound)

    monkeypatch.setattr(identities, "Packing", Recorded)
    return seen


def test_cancelled_multisets_are_not_walked(monkeypatch):
    # A cancelled multiset that were multiplied out would raise the
    # layout's degree bound from 3, that of {X, Y, Y}, to 4, that of {W}.
    layouts = _recorded_layouts(monkeypatch)
    assert _cell_product_sum(3, _cancelling_weight) == _X * _Y * _Y
    assert layouts == [{"t": 3}]
    # (3) and (2,1) cancel on the shifts {1, 2}; (1,1,1) alone is live.
    seen = _recorded_shift_groups(monkeypatch)
    got = linear_product_sum(3, lambda lam: ([4], 1) if len(lam) == 3 else (
        [len(lam), 3 - len(lam)], 1 if len(lam) == 1 else -1), 0)
    assert got == T + 4
    assert seen == [{(4,): 1}]


# ----- unit hooks -------------------------------------------------------------------


def test_max_unit_hooks_brute_force():
    def oracle(n):
        if n == 0:
            return 0
        return max(
            sum(1 for h in lam.hook_lengths() if h == 1)
            for lam in partition_list(n)
        )

    values = [oracle(n) for n in range(31)]
    assert values[:11] == [0, 1, 1, 2, 2, 2, 3, 3, 3, 3, 4]
    assert [max_unit_hooks(n) for n in range(31)] == values

    fixed = (triangular_series(30) - 1) * geometric(30)
    for n in range(31):
        assert fixed.coefficient(n).as_fraction() == values[n]


def test_uncorrected_unit_hook_series_overcounts_from_order_two():
    tri = triangular_series(6)
    assert tri == TruncatedSeries(6, [1, 1, 0, 1, 0, 0, 1])
    direct = tri * geometric(6) * TruncatedSeries.monomial(6, 1)
    assert direct.coefficient(1).as_fraction() == 1
    assert direct.coefficient(2).as_fraction() == 2  # the defect
    assert max_unit_hooks(2) == 1


# ----- first-hook q-series ----------------------------------------------------------


def _top_hook_poly(n, gap2_only):
    acc = MultiPoly.const(0)
    for lam in partition_list(n):
        ps = lam.parts
        if gap2_only and any(ps[i] - ps[i + 1] < 2 for i in range(len(ps) - 1)):
            continue
        acc = acc + MultiPoly.monomial({"q": ps[0] + len(ps) - 1})
    return acc


@pytest.mark.parametrize("gap2", [False, True])
def test_top_hook_series_matches_enumeration(gap2):
    # the x^n coefficients of P9.1's (gap2) and P9.2's left-hand sides
    for n in range(1, 13):
        family = rr_sets(n)[0] if gap2 else partition_list(n)
        assert top_hook_polynomial(family) == _top_hook_poly(n, gap2)


def test_rr_q_series_against_enumeration():
    prop91 = prop91_series(10)
    middle = prop92_middle_series(10)
    for n in range(1, 11):
        assert prop91.coefficient(n) == _top_hook_poly(n, True)
        assert middle.coefficient(n) == _top_hook_poly(n, False)
    assert prop91.coefficient(4) == 2 * Q**4
    assert prop91.coefficient(1) == Q
    # The sparse sum takes its k = 2 term, x^4 q^4/(qx;x)_2, exactly when
    # x^4 is inside the truncation: at order 4, not at order 3.
    assert prop91_series(4).coefficient(4) == 2 * Q**4
    assert prop91_series(3) == TruncatedSeries(3, [0, Q, Q**2, Q**3])
    for order in range(15):
        assert prop92_right_series(order) == prop92_middle_series(order)


def test_rr_counts_match_products_and_sets():
    count = rr_count_series(20)
    prod = rr_product_series(20)
    assert count == prod
    for n in range(21):
        a_set, b_set = rr_sets(n)
        assert count.coefficient(n).as_fraction() == len(a_set) == len(b_set)


# ----- partition-indexed series engines ---------------------------------------------


def test_partition_gf_counts():
    s = partition_gf(15)
    for n in range(16):
        assert s.coefficient(n).as_fraction() == partition_count(n)


def test_product_series_with_unit_weight_counts_partitions():
    s = linear_product_series(8, lambda lam: ((), 1), 0)
    for n in range(9):
        assert s.coefficient(n).as_fraction() == partition_count(n)


def test_product_sum_content_over_hook_known_case():
    # weight (t + c)/h summed over partitions of 1 is just t
    val = _cell_product_sum(1, lambda cs, lam: (T + cs.content) / MultiPoly.const(cs.hook))
    assert val == T


def _per_cell_oracle(n, weight, cell_filter=None):
    """Multiply reduced weights cell by cell, as the sum once did."""
    total = MultiPoly.const(0)
    for lam in partition_list(n):
        prod = MultiPoly.const(1)
        for cs in cell_stats(lam):
            if cell_filter is None or cell_filter(cs):
                prod = prod * weight(cs, lam)
        total = total + prod
    return total


def _shifted_hook(cs, lam):
    return (T + cs.hook) * Fraction(1, cs.hook)


def _mixed_weight(cs, lam):
    """A zero, int, Fraction, MultiPoly or RatFunc, by cell."""
    k = (cs.i + 2 * cs.j + cs.hook) % 5
    if k == 0:
        return 0 if cs.hook == 4 else cs.hook
    if k == 1:
        return Fraction(-cs.hook, cs.arm + 2)
    if k == 2:
        return T + cs.content
    if k == 3:
        return (T - cs.content) / (T + cs.hook)
    return (T + cs.leg) * Fraction(1, cs.hook)


# One object per value, as a table or a memoised function returns them.
_SHARED_HOOKS = {h: (T + h) / (T + 2 * h) for h in range(1, 13)}


def _shared_hook(cs, lam):
    return _SHARED_HOOKS[cs.hook]


def _fresh_hook(cs, lam):
    return (T + cs.hook) / (T + 2 * cs.hook)


def _signed_corners(cs, lam):
    """Content on corner cells, a shared object elsewhere.

    Conjugation keeps the hook multiset and negates contents, so the scalar
    sums of some multisets cancel to 0.
    """
    if cs.arm == cs.leg == 0:
        return cs.content
    return _SHARED_HOOKS[cs.hook]


_SHARED_DENOMINATORS = [
    [(T + k) / d for k in range(3)] for d in (T + 1, T + 2, T * T + 3, ONE)
]


def _denominator_classes(cs, lam):
    """Shared weights over four denominators, one of them 1."""
    return _SHARED_DENOMINATORS[(cs.hook + cs.content) % 4][cs.hook % 3]


def _over_half(cs, lam):
    """Weights over T + 1/2, a canonical denominator whose content is 1/2,
    with numerators of content 1 and 1/3."""
    if cs.hook == 1:
        return ONE / (T + Fraction(1, 2))
    return (cs.hook * T + Fraction(1, 3)) / (T + Fraction(1, 2))


# Constant numerators over two denominators of degree 3: the total's degree
# comes from the common denominator alone.
_CONSTANT_OVER_CUBES = (ONE / (T**3 + 1), 2 / (T**3 + 2))
# The packed total of 5^n times p(n) is one coefficient equal to its bound;
# (1 - 2T)^n is negative over several digits for odd n.
_FIVE = MultiPoly.const(5)
_NEGATIVE = 1 - 2 * T


@pytest.mark.parametrize(
    "max_n, weight, oracle_weight, cell_filter",
    [
        (12, lambda cs, lam: surd_hook_factor(cs.hook), None, None),
        (7, lambda cs, lam: ONE / (T + cs.hook), None, None),
        (7, lambda cs, lam: (T + cs.content) / (T + cs.hook), None, None),
        (
            8,
            lambda cs, lam: _shifted_hook(cs, lam) if cs.arm == 0 else 1,
            _shifted_hook,
            lambda cs: cs.arm == 0,
        ),
        (8, lambda cs, lam: Fraction(lam.symplectic_content(cs.i, cs.j), cs.hook), None, None),
        (8, lambda cs, lam: T + cs.content * Q, None, None),
        (7, _mixed_weight, None, None),
        # Equal-valued weights, shared or fresh, give the same sum.
        (8, _shared_hook, None, None),
        (8, _fresh_hook, None, None),
        (9, _signed_corners, None, None),
        (8, _denominator_classes, None, None),
        (7, _over_half, None, None),
        (7, lambda cs, lam: _CONSTANT_OVER_CUBES[cs.j == 1], None, None),
        (7, lambda cs, lam: _FIVE, None, None),
        (7, lambda cs, lam: _NEGATIVE, None, None),
    ],
    ids=[
        "surd", "reciprocal-hook", "content-over-hook", "arm-zero",
        "symplectic-fraction", "bare-multipoly", "mixed-types",
        "shared", "fresh", "signed-corners", "denominator-classes",
        "over-half", "fold-degree", "bound-coefficient", "negative",
    ],
)
def test_product_sum_matches_per_cell_oracle(max_n, weight, oracle_weight, cell_filter):
    for n in range(max_n + 1):
        got = _cell_product_sum(n, weight)
        want = _per_cell_oracle(n, oracle_weight or weight, cell_filter)
        assert got == want
        assert got.render() == want.render()


def test_hook_tables_match_per_cell_oracle():
    for n in range(13):
        for got, keep in ((arm_zero_sum(n), lambda cs: cs.arm == 0),
                          (leg_zero_sum(n), lambda cs: cs.leg == 0)):
            want = _per_cell_oracle(n, _shifted_hook, keep)
            assert got == want
            assert got.render() == want.render()


def test_free_hooks_are_the_hooks_of_arm_free_and_leg_free_cells():
    for n in range(15):
        for lam in partition_list(n):
            cells = cell_stats(lam)
            assert sorted(identities._arm_free_hooks(lam)) == sorted(
                cs.hook for cs in cells if cs.arm == 0
            )
            assert sorted(identities._leg_free_hooks(lam)) == sorted(
                cs.hook for cs in cells if cs.leg == 0
            )


# Shared weights over two denominators: T + 1 on hooks divisible by 3 and
# T^2 + 2 on hooks 1 mod 3; hooks 2 mod 3 give a Fraction.  Over n = 4, (3,1)
# has hooks 4, 2, 1, 1, so T^2 + 2 three times and no T + 1, which (4) has.
_DENOMINATORS = (T + 1, T * T + 2)
_RATIONAL_HOOKS = {
    h: (T + h) / _DENOMINATORS[0] if h % 3 == 0 else (T - h) / _DENOMINATORS[1]
    for h in range(1, 10)
}


def _rational_hook(cs, lam):
    return Fraction(1, cs.hook) if cs.hook % 3 == 2 else _RATIONAL_HOOKS[cs.hook]


def test_product_sum_over_shared_denominators_matches_ratfunc_sum():
    repeated = lacking = False
    for n in range(10):
        dens = []
        for lam in partition_list(n):
            weights = [_rational_hook(cs, lam) for cs in cell_stats(lam)]
            dens.append(Counter(w.den for w in weights if isinstance(w, RatFunc)))
        repeated |= any(m > 1 for c in dens for m in c.values())
        lacking |= any(set(a) - set(b) for a in dens for b in dens)
        want = MultiPoly.const(0)
        for lam in partition_list(n):
            prod = ONE
            for cs in cell_stats(lam):
                prod = prod * _rational_hook(cs, lam)
            want = want + prod
        got = _cell_product_sum(n, _rational_hook)
        assert got == want, n
        assert got.render() == want.render()
    assert set(dens[0]) == set(_DENOMINATORS)
    assert repeated and lacking


# Objects over four denominators: T + 1/2 (content 1/2), T + 1 three times,
# T^2 + 2 and T^3 - 2 once each; some multisets repeat an object or a
# denominator, so the fold's multiplicities differ by factor.
_FOLD_OBJECTS = [
    ONE / (T + Fraction(1, 2)),
    (2 * T + 1) / (T + 1),
    (T - 3) / (T + 1),
    Fraction(1, 3) / (T + 1),
    (T + 2) / (T * T + 2),
    (T * T - T) / (T**3 - 2),
    T + Fraction(1, 2),
    3 * T - 1,
]


def test_multiset_product_sum_does_not_depend_on_object_order():
    rng = random.Random(11)
    groups = {}
    for _ in range(25):
        key = tuple(sorted(rng.choices(range(len(_FOLD_OBJECTS)), k=rng.randint(0, 5))))
        groups[key] = groups.get(key, 0) + rng.choice([1, -2, 3, Fraction(1, 2), Fraction(-5, 3)])
    want = MultiPoly.const(0)
    for key, scale in groups.items():
        prod = MultiPoly.const(scale)
        for i in key:
            prod = prod * _FOLD_OBJECTS[i]
        want = want + prod
    assert isinstance(want, RatFunc)
    for _ in range(12):
        perm = list(range(len(_FOLD_OBJECTS)))
        rng.shuffle(perm)  # object i moves to position perm[i]
        objects = [None] * len(perm)
        for i, j in enumerate(perm):
            objects[j] = _FOLD_OBJECTS[i]
        moved = {tuple(sorted(perm[i] for i in key)): scale for key, scale in groups.items()}
        got = identities._multiset_product_sum(moved, objects)
        assert got == want, perm
        assert got.render() == want.render()


def test_hook_product_sum_matches_per_cell_sum():
    for n in range(11):
        got = hook_product_sum(n, surd_hook_factor)
        want = _cell_product_sum(n, lambda cs, lam: surd_hook_factor(cs.hook))
        assert got == want, n
        assert got.render() == want.render()


def test_product_sum_past_the_exponent_limit_raises():
    # Each partition of 2 multiplies q^(2^30) twice; the packed layout
    # refuses that degree before it builds an integer for it.
    big = MultiPoly.var("q", EXP_LIMIT // 2)
    with pytest.raises(ExponentOverflow):
        hook_product_sum(2, lambda h: big)


def _per_summand_oracle(order, f, items):
    """Add f of every item (a hook or a part) of every partition, one by one."""
    coeffs = []
    for n in range(order + 1):
        total = MultiPoly.const(0)
        for lam in partition_list(n):
            for i in items(lam):
                total = total + f(i)
        coeffs.append(total)
    return coeffs


_HOOKS = (hook_sum_series, Partition.hook_lengths)
_PARTS = (part_sum_series, lambda lam: lam.parts)


def _mixed_cell_value(h):
    """Every value type, picked by hook length: zero, int, Fraction,
    MultiPoly with and without a unit content, and a RatFunc."""
    return [
        0,
        h - 3,
        Fraction(h - 4, h),
        Q**h,
        (T + h) * Fraction(-1, h + 1),
        T * Q + h,
        (T - h) / (T + h),
    ][h % 7]


def _mixed_part_value(p):
    return [0, p, Fraction(1, p), Q**p * Fraction(2, 3), T - p, ONE / (T + p)][p % 6]


@pytest.mark.parametrize(
    "census, f",
    [
        (_HOOKS, _mixed_cell_value),
        (_PARTS, _mixed_part_value),
        (_HOOKS, lambda h: Fraction(h - 5, h + 1)),
        (_HOOKS, lambda h: Q ** (h**2) - Q**h),
        (_PARTS, lambda p: Q**p * p / (T + p)),
    ],
    ids=["cells-mixed", "parts-mixed", "cells-fraction", "cells-poly", "parts-ratfunc"],
)
def test_additive_series_matches_per_summand_oracle(census, f):
    # each builder against f added once per hook (one per cell) or per part
    builder, items = census
    got = builder(10, f)
    want = _per_summand_oracle(10, f, items)
    for n in range(11):
        assert got.coefficient(n) == want[n]
        assert got.coefficient(n).render() == want[n].render()


def test_additive_series_rejects_inexact_summands():
    with pytest.raises(TypeError):
        hook_sum_series(3, lambda h: 0.5)
    with pytest.raises(TypeError):
        part_sum_series(3, float)


def test_additive_series_parts_vs_cells():
    # total cell count == total of all parts == n p(n)
    by_cells = hook_sum_series(8, lambda h: 1)
    by_parts = part_sum_series(8, lambda p: p)
    assert by_cells == by_parts
    assert [by_cells.coefficient(n) for n in range(9)] == [n * partition_count(n) for n in range(9)]


def test_power_sum_series_against_direct_sums():
    # each right-hand side against the partition sum that C8.1 or P8.2 compares
    cases = [(part_count_rhs_series(10), part_sum_series, lambda p: p),
             (part_marker_rhs_series(10), part_sum_series, lambda p: Q**p)]
    for alpha in range(4):
        cases += [
            (power_sum_rhs_series(10, alpha), hook_sum_series, lambda h, a=alpha: Fraction(h**a)),
            (marked_hook_rhs_series(10, alpha), hook_sum_series, lambda h, a=alpha: Q ** (h**a)),
            (marked_part_rhs_series(10, alpha), part_sum_series, lambda p, a=alpha: Q ** (p**a)),
        ]
    for rhs, builder, f in cases:
        assert rhs == builder(10, f), (builder.__name__, rhs)


def test_reciprocal_sums_over_the_census_match_term_by_term_sums():
    # P8.2's two sides, over the census, against one Fraction per part or hook
    assert _fraction_sum([]) == 0
    for n in range(13):
        parts_count, hooks_count = hook_part_census(n)
        lams = partition_list(n)
        lhs = sum(Fraction(1, p - 1) for lam in lams for p in lam.parts if p != 1)
        rhs = sum(Fraction(1, h * (h - 1)) for lam in lams for h in lam.hook_lengths() if h != 1)
        assert _fraction_sum((c, p - 1) for p, c in parts_count.items() if p != 1) == lhs
        assert _fraction_sum((c, h * (h - 1)) for h, c in hooks_count.items() if h != 1) == rhs


# ----- involution census -----------------------------------------------------------


def test_involution_moment_poly_counts_two_cycles():
    # coefficient of a^(2j) at n times n! == involutions with j two-cycles
    from itertools import permutations

    for n in range(7):
        poly = involution_moment_poly(n) * math.factorial(n)
        census = {}
        for pi in permutations(range(n)):
            if all(pi[pi[i]] == i for i in range(n)):
                two = sum(1 for i in range(n) if pi[i] != i) // 2
                census[two] = census.get(two, 0) + 1
        for j, c in census.items():
            assert poly.coeff_of("a", 2 * j).as_fraction() == c


def test_surd_hook_factor_small_hooks():
    # h=1: ((1+a)+(1-a)) / ((1+a)-(1-a)) * a = 1
    assert surd_hook_factor(1) == MultiPoly.const(1)
    # h=2: (2 + 2a^2) / (4a) * (a/2) = (1 + a^2)/4
    assert surd_hook_factor(2) == (ONE + A * A) * Fraction(1, 4)


# ----- falling-factorial hook moments -----------------------------------------------


def test_falling_factorial_moment_spots_and_range():
    assert hook_falling_factorial_moment(1, 1) == (Fraction(1), Fraction(1))
    assert hook_falling_factorial_moment(2, 1) == (Fraction(5), Fraction(5))
    for n in range(1, 8):
        for r in range(1, 4):
            lhs, rhs = hook_falling_factorial_moment(n, r)
            assert lhs == rhs
    with pytest.raises(ValueError):
        hook_falling_factorial_moment(0, 1)


# ----- cycle-index determinants ------------------------------------------------------


def _random_matrix(rng, n):
    return [
        [Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(n)]
        for _ in range(n)
    ]


def det_cofactor(m):
    """Oracle: cofactor expansion along the first row, O(n!)."""
    n = len(m)
    if n == 1:
        return Fraction(m[0][0])
    total = Fraction(0)
    for j in range(n):
        if not m[0][j]:
            continue
        minor = [[row[c] for c in range(n) if c != j] for row in m[1:]]
        sign = -1 if j % 2 else 1
        total += sign * Fraction(m[0][j]) * det_cofactor(minor)
    return total


def _singular_matrix(rng, n):
    """A random matrix with a zero column or a row that combines the others."""
    m = _random_matrix(rng, n)
    b = rng.randrange(n)
    if n == 1 or rng.random() < 0.3:
        for row in m:
            row[b] = Fraction(0)
        return m
    ks = {i: Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for i in range(n) if i != b}
    m[b] = [sum(k * m[i][j] for i, k in ks.items()) for j in range(n)]
    return m


def test_bareiss_matches_cofactor_oracle():
    rng = random.Random(3)
    for n in range(1, 7):
        for _ in range(25):
            m = _random_matrix(rng, n)
            assert det_bareiss(m) == det_cofactor(m)
            s = _singular_matrix(rng, n)
            assert det_bareiss(s) == det_cofactor(s) == 0


def test_bareiss_swaps_rows_at_zero_pivots():
    # Zero leading entries force one or more row swaps, each flipping the sign.
    assert det_bareiss([[0, 1], [1, 0]]) == -1
    assert det_bareiss([[0, 0, 1], [0, 1, 0], [1, 0, 0]]) == -1
    assert det_bareiss([[0, 1, 0], [0, 0, 1], [1, 0, 0]]) == 1
    m = [[Fraction(0), Fraction(2, 3), 1], [Fraction(1, 2), 0, 4], [5, 6, Fraction(7, 9)]]
    assert det_bareiss(m) == det_cofactor(m)
    assert det_bareiss([[1, 2, 3], [2, 4, 6], [0, 0, 1]]) == 0
    assert det_bareiss([[Fraction(-7, 3)]]) == Fraction(-7, 3)


def test_newton_sign_reproduces_determinants():
    rng = random.Random(7)
    for n in range(1, 6):
        for _ in range(8):
            m = _random_matrix(rng, n)
            assert cycle_index_sums(power_traces(m))[0] == det_cofactor(m)


def test_alternating_sign_flips_with_parity():
    rng = random.Random(11)
    for n in range(1, 6):
        m = _random_matrix(rng, n)
        _, alt = cycle_index_sums(power_traces(m))
        det = det_cofactor(m)
        assert alt == (det if n % 2 else -det)


def _fraction_cycle_index_sum(traces, sign):
    """Oracle: the class sum multiplied out in Fractions, one class at a time;
    sign(n, cycles) is the exponent of -1."""
    n = len(traces)
    total = Fraction(0)
    for lam in partition_list(n):
        prod = Fraction(1)
        for j in lam.parts:
            prod *= traces[j - 1]
        total += (-1) ** sign(n, len(lam)) * lam.class_size * prod
    return total / math.factorial(n)


def test_cycle_index_sum_matches_fraction_class_sum():
    rng = random.Random(5)
    for n in range(8):
        for _ in range(6):
            traces = [Fraction(rng.randint(-9, 9), rng.randint(1, 8)) for _ in range(n)]
            newton, alternating = cycle_index_sums(traces)
            assert newton == _fraction_cycle_index_sum(traces, lambda n, c: n - c)
            assert alternating == _fraction_cycle_index_sum(traces, lambda n, c: c - 1)
            assert type(newton) is type(alternating) is Fraction


def _fraction_power_traces(m):
    """Oracle: traces of M, M^2, ..., M^n, multiplied out in Fractions."""
    n = len(m)
    m = [[Fraction(x) for x in row] for row in m]
    power, traces = m, []
    for _ in range(n):
        traces.append(sum((power[i][i] for i in range(n)), Fraction(0)))
        power = [
            [sum((power[i][k] * m[k][j] for k in range(n)), Fraction(0)) for j in range(n)]
            for i in range(n)
        ]
    return traces


def test_power_traces_match_fraction_matrix_powers():
    rng = random.Random(21)
    # All-int entries, a common denominator 6, and ints mixed with Fractions.
    entries = (
        lambda: rng.randint(-9, 9),
        lambda: Fraction(rng.randint(-9, 9), 6),
        lambda: rng.choice([rng.randint(-9, 9), Fraction(rng.randint(-9, 9), rng.randint(1, 7))]),
    )
    for n in range(1, 7):
        for entry in entries:
            for _ in range(3):
                m = [[entry() for _ in range(n)] for _ in range(n)]
                traces = power_traces(m)
                assert traces == _fraction_power_traces(m)
                assert all(type(t) is Fraction for t in traces)


def test_p71_computes_each_matrix_power_once(monkeypatch):
    # 50 matrices of sizes 1..6 need 126 products for M^2..M^n in all; the
    # two sums share one list of power traces per matrix.
    import hooklab.identities as identities
    from hooklab.harness import run_check

    calls = []
    mat_mul = identities._mat_mul
    monkeypatch.setattr(identities, "_mat_mul", lambda a, b: calls.append(1) or mat_mul(a, b))
    assert run_check("P7.1").status == "verified"
    assert len(calls) == 126


def test_determinant_error_paths():
    with pytest.raises(NotSquare):
        det_bareiss([[1, 2]])
    with pytest.raises(NotSquare):
        det_bareiss([])
    with pytest.raises(NotSquare):
        power_traces([])
