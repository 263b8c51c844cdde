"""Descent polynomials, Stirling/Bell numbers, involutions, q-analogues.

Oracles here are direct enumerations over S_n, signed permutations and
restricted-growth strings; the module under test never enumerates.
"""

import math
from fractions import Fraction
from itertools import permutations, product

from hooklab.multipoly import MultiPoly
from hooklab.partitions import partition_list
from hooklab.permstats import (
    bell_number,
    bell_poly,
    egf_cycle_statistic,
    eulerian_A,
    eulerian_B,
    eulerian_coeff_A,
    eulerian_coeff_B,
    involution_count,
    involution_egf,
    involution_trace_moment,
    q_eulerian_B,
    q_eulerian_B_reference,
    q_eulerian_coeff,
    stirling2,
)

T = MultiPoly.var("t")


def _descent_polynomial_A(n):
    counts = {}
    for pi in permutations(range(1, n + 1)):
        d = sum(1 for i in range(n - 1) if pi[i] > pi[i + 1])
        counts[d] = counts.get(d, 0) + 1
    poly = MultiPoly.const(0)
    for d, c in counts.items():
        poly = poly + MultiPoly.monomial({"t": d}, c)
    return poly


def _descent_polynomial_B(n):
    # signed permutations, descent at i=0..n-1 with pi(0) = 0
    counts = {}
    for pi in permutations(range(1, n + 1)):
        for signs in product((1, -1), repeat=n):
            w = (0,) + tuple(s * v for s, v in zip(signs, pi))
            d = sum(1 for i in range(n) if w[i] > w[i + 1])
            counts[d] = counts.get(d, 0) + 1
    poly = MultiPoly.const(0)
    for d, c in counts.items():
        poly = poly + MultiPoly.monomial({"t": d}, c)
    return poly


def test_type_a_polynomials_count_descents():
    for n in range(1, 8):
        assert eulerian_A(n) == _descent_polynomial_A(n)


def test_type_b_polynomials_count_signed_descents():
    for n in range(1, 6):
        assert eulerian_B(n) == _descent_polynomial_B(n)


def test_row_sums():
    for n in range(1, 9):
        assert eulerian_A(n).subs("t", 1).as_fraction() == math.factorial(n)
        assert eulerian_B(n).subs("t", 1).as_fraction() == 2**n * math.factorial(n)


def test_type_a_symmetry_and_coeff_access():
    for n in range(1, 9):
        for k in range(n):
            assert eulerian_coeff_A(n, k) == eulerian_coeff_A(n, n - 1 - k)
    assert eulerian_coeff_A(4, 1) == 11
    assert eulerian_coeff_B(2, 1) == 6
    assert eulerian_coeff_A(3, -1) == 0


def _rgs_count(n, blocks=None):
    # restricted growth strings enumerate set partitions directly
    total = 0
    def walk(i, maxv, used):
        nonlocal total
        if i == n:
            if blocks is None or used == blocks:
                total += 1
            return
        for v in range(maxv + 1):
            walk(i + 1, max(maxv, v + 1), max(used, v + 1))
    walk(0, 0, 0)
    return total


def test_stirling_against_set_partition_enumeration():
    for n in range(8):
        for k in range(n + 2):
            assert stirling2(n, k) == _rgs_count(n, k)


def test_bell_numbers_and_polynomial():
    for n in range(8):
        assert bell_number(n) == _rgs_count(n)
        assert bell_poly(n).subs("z", 1).as_fraction() == bell_number(n)
    assert bell_poly(3) == MultiPoly.monomial({"z": 1}) + 3 * MultiPoly.monomial(
        {"z": 2}
    ) + MultiPoly.monomial({"z": 3})


def _brute_involutions(n):
    return [
        pi
        for pi in permutations(range(n))
        if all(pi[pi[i]] == i for i in range(n))
    ]


def test_involution_counts():
    for n in range(8):
        assert involution_count(n) == len(_brute_involutions(n))


def test_involution_trace_moments():
    for n in range(7):
        invs = _brute_involutions(n)
        for k in range(4):
            expected = sum(
                sum(1 for i in range(n) if pi[i] == i) ** k for pi in invs
            )
            assert involution_trace_moment(n, k) == expected


def test_involution_egf_matches_counts():
    s = involution_egf(10)
    for n in range(11):
        assert s.poly_coefficient(n).as_fraction() == Fraction(
            involution_count(n), math.factorial(n)
        )


def test_cycle_type_class_sizes_partition_the_group():
    for n in range(9):
        assert sum(lam.class_size for lam in partition_list(n)) == math.factorial(n)
        for lam in partition_list(n):
            assert lam.odd + lam.even == len(lam)
            assert sum(j * m for j, m in lam.multiplicities().items()) == n


def _cycle_lengths(pi):
    """Cycle lengths of a permutation of range(n), weakly decreasing."""
    seen = [False] * len(pi)
    lengths = []
    for i in range(len(pi)):
        length = 0
        j = i
        while not seen[j]:
            seen[j] = True
            j = pi[j]
            length += 1
        if length:
            lengths.append(length)
    return tuple(sorted(lengths, reverse=True))


def _cycle_counts(pi):
    lengths = _cycle_lengths(pi)
    odd = sum(1 for length in lengths if length % 2)
    return odd, len(lengths) - odd


def test_class_size_counts_permutations_by_cycle_lengths():
    for n in range(7):
        census = {}
        for pi in permutations(range(n)):
            key = _cycle_lengths(pi)
            census[key] = census.get(key, 0) + 1
        assert {lam.parts: lam.class_size for lam in partition_list(n)} == census


def test_cycle_statistic_egf_against_brute_force():
    s = egf_cycle_statistic(
        6, lambda lam: MultiPoly.monomial({"t": lam.odd, "q": lam.even})
    )
    for n in range(7):
        acc = MultiPoly.const(0)
        for pi in permutations(range(n)):
            odd, even = _cycle_counts(pi)
            acc = acc + MultiPoly.monomial({"t": odd, "q": even})
        assert s.poly_coefficient(n) * math.factorial(n) == acc


# ----- q-analogues ----------------------------------------------------------------


def test_q_polynomials_against_reference_route():
    for n in range(1, 5):
        assert q_eulerian_B(n) == q_eulerian_B_reference(n)


def test_q_polynomials_specialize_to_classical():
    for n in range(1, 7):
        assert q_eulerian_B(n).subs("q", 1) == eulerian_B(n)


def test_q_coefficient_symmetry():
    for n in range(1, 7):
        for k in range(n + 1):
            assert q_eulerian_coeff(n, k) == q_eulerian_coeff(n, n - k)
    assert q_eulerian_coeff(2, 1) == 4 + 2 * MultiPoly.var("q")


def test_q_coefficients_have_nonnegative_integers():
    for n in range(1, 7):
        for k in range(n + 1):
            for coeff in q_eulerian_coeff(n, k).terms.values():
                assert coeff.denominator == 1
                assert coeff >= 0
