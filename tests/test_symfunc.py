"""Schur and elementary polynomials in bounded variable sets, flattening."""

import math
from fractions import Fraction
from itertools import permutations, product

import pytest

from hooklab.errors import BudgetExceeded, VariableOutOfScope
from hooklab.multipoly import MultiPoly, VAR_INDEX
from hooklab.partitions import Partition, cell_stats, partition_list
from hooklab.symfunc import (
    elementary_poly,
    flatten,
    flattened_schur_identity,
    schur_poly,
)

Y = [MultiPoly.var(f"y{i}") for i in range(1, 7)]


def _permute_y(p, perm):
    # relabel y_i -> y_perm(i); safe because images are fresh variable names
    out = {}
    for exp, c in p.terms.items():
        new = list(exp)
        for a, b in enumerate(perm):
            new[VAR_INDEX[f"y{b + 1}"]] = exp[VAR_INDEX[f"y{a + 1}"]]
        out[tuple(new)] = c
    return MultiPoly(out)


def test_schur_is_symmetric():
    for shape in [(2,), (1, 1), (2, 1), (3, 1), (2, 2)]:
        p = schur_poly(Partition(shape), 3)
        for perm in permutations(range(3)):
            assert _permute_y(p, perm) == p


def test_schur_monomial_count_is_tableau_count():
    # total at y=1: number of semistandard fillings with entries <= m
    # equals prod (m + content)/hook
    for m in (2, 3, 4):
        for n in range(1, 7):
            for lam in partition_list(n):
                if len(lam.parts) > m:
                    continue
                p = schur_poly(lam, m)
                count = p
                for i in range(1, m + 1):
                    count = count.subs(f"y{i}", 1)
                expected = Fraction(1)
                for cs in cell_stats(lam):
                    expected *= Fraction(m + cs.content, cs.hook)
                assert count.as_fraction() == expected


def test_schur_matches_brute_force_fillings():
    # Every assignment of 1..m to the cells, kept when rows weakly increase
    # and columns strictly increase, counted per monomial.
    for n in range(6):
        for lam in partition_list(n):
            cells = list(lam.cells())
            for m in range(1, 5):
                terms = {}
                for values in product(range(1, m + 1), repeat=n):
                    entry = dict(zip(cells, values))
                    if all(
                        (j == 1 or entry[i, j - 1] <= v) and (i == 1 or entry[i - 1, j] < v)
                        for (i, j), v in entry.items()
                    ):
                        exp = [0] * len(VAR_INDEX)
                        for v in values:
                            exp[VAR_INDEX[f"y{v}"]] += 1
                        terms[tuple(exp)] = terms.get(tuple(exp), 0) + 1
                assert schur_poly(lam, m) == MultiPoly(terms), (lam, m)


def test_schur_edge_shapes():
    assert schur_poly(Partition(()), 2).is_one()
    assert schur_poly(Partition([1, 1, 1]), 2).is_zero()
    assert schur_poly(Partition([1]), 2) == Y[0] + Y[1]
    # single row = complete homogeneous
    assert schur_poly(Partition([2]), 2) == Y[0] ** 2 + Y[0] * Y[1] + Y[1] ** 2
    # single column = elementary
    assert schur_poly(Partition([1, 1]), 3) == elementary_poly(2, 3)


def test_schur_budget_guards():
    with pytest.raises(BudgetExceeded):
        schur_poly(Partition([3, 3, 3]), 4)  # 9 cells > cap
    with pytest.raises(BudgetExceeded):
        schur_poly(Partition([1]), 7)  # only six slots


def test_elementary_polynomials():
    assert elementary_poly(0, 3).is_one()
    assert elementary_poly(1, 2) == Y[0] + Y[1]
    assert elementary_poly(2, 2) == Y[0] * Y[1]
    assert elementary_poly(4, 3).is_zero()
    with pytest.raises(ValueError):
        elementary_poly(-1, 3)
    # e_j(1,...,1) = C(m, j)
    for m in range(1, 6):
        for j in range(m + 1):
            v = elementary_poly(j, m)
            for i in range(1, m + 1):
                v = v.subs(f"y{i}", 1)
            assert v.as_fraction() == math.comb(m, j)


def test_flatten_caps_exponents():
    p = Y[0] ** 3 * Y[1] + 2 * Y[2] ** 2
    assert flatten(p) == Y[0] * Y[1] + 2 * Y[2]
    # already flat polynomials are fixed points
    q = Y[0] * Y[1] + Y[2]
    assert flatten(q) == q
    assert flatten(flatten(p)) == flatten(p)


def test_flatten_merges_collisions():
    # y1^2 + y1 -> 2 y1
    p = Y[0] ** 2 + Y[0]
    assert flatten(p) == 2 * Y[0]
    # cancellation may empty a term
    assert flatten(Y[0] ** 2 - Y[0]).is_zero()


def test_flatten_applies_a_fraction_content():
    third = Fraction(1, 3)
    p = third * Y[0] ** 2 * Y[1] + 2 * third * Y[0] * Y[1] ** 3 + Fraction(5, 6) * Y[2] ** 4
    assert flatten(p) == Y[0] * Y[1] + Fraction(5, 6) * Y[2]
    # the colliding monomials cancel, and only the y3 term is left
    q = Fraction(3, 4) * (Y[0] ** 2 * Y[1] - Y[0] * Y[1] ** 2 + Y[2] ** 2)
    assert flatten(q) == Fraction(3, 4) * Y[2]
    assert flatten(third * (Y[0] ** 3 - Y[0] ** 2)).is_zero()
    with pytest.raises(VariableOutOfScope):
        flatten(third * (Y[0] + MultiPoly.var("q") ** 2))


def test_flatten_rejects_foreign_variables():
    with pytest.raises(VariableOutOfScope):
        flatten(MultiPoly.var("t") * Y[0])


def test_flattened_schur_identity_small():
    for k in range(1, 5):
        for m in range(1, 4):
            holds, lhs, rhs = flattened_schur_identity(k, m)
            assert holds
            assert lhs == rhs


def test_flattened_schur_identity_budget():
    with pytest.raises(BudgetExceeded):
        flattened_schur_identity(7, 2)
    with pytest.raises(BudgetExceeded):
        flattened_schur_identity(2, 6)
