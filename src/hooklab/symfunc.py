"""Schur polynomials by tableau enumeration, elementary symmetric
polynomials, and the exponent-flattening transform that connects them.

Everything works in the fixed y-block (y1..y6) of the shared variable set,
so results combine freely with the rest of the package.  Sizes are desk
scale by contract; the enumerations are direct and double as oracles for
closed forms elsewhere.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import combinations

from .errors import BudgetExceeded, VariableOutOfScope
from .multipoly import MultiPoly, NVARS, ONE, VAR_INDEX, ZERO
from .partitions import Partition, partition_list
from .permstats import stirling2

#: Indices of the y-block inside the package-wide exponent vectors.
_Y_INDICES = tuple(VAR_INDEX[f"y{i}"] for i in range(1, 7))
MAX_VARS = len(_Y_INDICES)

_MAX_CELLS = 8


def _rows(shape: tuple[int, ...], m: int):
    """Yield tableau rows one at a time, depth-first over the whole filling.

    A state is the tuple of previous-row entries aligned to the current row
    (column-strict bound) plus the weakly-increasing constraint inside the
    row.  Yields complete fillings as flat entry lists.
    """

    def fill_row(length: int, floor: tuple[int, ...], row: list[int], j: int):
        if j == length:
            yield tuple(row)
            return
        lo = max(floor[j], row[j - 1] if j else 1)
        for v in range(lo, m + 1):
            row.append(v)
            yield from fill_row(length, floor, row, j + 1)
            row.pop()

    def rec(i: int, prev: tuple[int, ...]):
        if i == len(shape):
            yield []
            return
        length = shape[i]
        floor = tuple(prev[j] + 1 for j in range(length)) if prev else (1,) * length
        for row in fill_row(length, floor, [], 0):
            for rest in rec(i + 1, row):
                yield [row] + rest

    yield from rec(0, ())


def schur_poly(shape, m: int) -> MultiPoly:
    """Schur polynomial s_shape(y1..ym) as a sum over column-strict fillings.

    Rows weakly increase, columns strictly increase, entries lie in 1..m.
    Returns 0 when the shape has more than m rows.  Budget guard keeps the
    enumeration at desk scale.
    """
    lam = shape if isinstance(shape, Partition) else Partition(shape)
    if m < 1 or m > MAX_VARS:
        raise BudgetExceeded(f"variable count {m} outside 1..{MAX_VARS}")
    if lam.n > _MAX_CELLS:
        raise BudgetExceeded(f"shape with {lam.n} cells exceeds the cap of {_MAX_CELLS}")
    if len(lam.parts) > m:
        return ZERO
    terms: dict[tuple, int] = {}  # fillings per monomial
    for filling in _rows(lam.parts, m):
        exp = [0] * NVARS
        for row in filling:
            for v in row:
                exp[_Y_INDICES[v - 1]] += 1
        key = tuple(exp)
        terms[key] = terms.get(key, 0) + 1
    if not terms:
        return ONE  # empty shape: the single empty filling
    return MultiPoly(terms)


def elementary_poly(j: int, m: int) -> MultiPoly:
    """Elementary symmetric polynomial e_j(y1..ym); 0 beyond m, e_0 = 1."""
    if j < 0:
        raise ValueError("elementary index must be nonnegative")
    if m < 1 or m > MAX_VARS:
        raise BudgetExceeded(f"variable count {m} outside 1..{MAX_VARS}")
    if j > m:
        return ZERO
    terms: dict[tuple, int] = {}
    for subset in combinations(_Y_INDICES[:m], j):
        exp = [0] * NVARS
        for i in subset:
            exp[i] = 1
        terms[tuple(exp)] = 1
    return MultiPoly(terms)


def flatten(p: MultiPoly) -> MultiPoly:
    """Cap every exponent at 1, merging the monomials that collide.

    Defined only for polynomials supported on the y-block; anything touching
    a coefficient variable raises VariableOutOfScope.  Linear and idempotent.
    """
    y_set = set(_Y_INDICES)
    terms: dict[tuple, Fraction] = {}
    for exp, coeff in p.terms.items():
        for i, e in enumerate(exp):
            if e and i not in y_set:
                raise VariableOutOfScope(
                    f"flatten only handles y-variables; saw {MultiPoly({exp: coeff}).render()}"
                )
        capped = tuple(min(e, 1) for e in exp)
        total = terms.get(capped, Fraction(0)) + coeff
        if total:
            terms[capped] = total
        else:
            terms.pop(capped, None)
    return MultiPoly(terms)


def flattened_schur_identity(k: int, m: int) -> tuple[bool, MultiPoly, MultiPoly]:
    """Compare flatten(sum over shapes of k of f * schur) with the
    Stirling-weighted elementary sum; returns (equal, lhs, rhs)."""
    if k > 6 or m > 5:
        raise BudgetExceeded(f"(k={k}, m={m}) beyond the checked range k<=6, m<=5")
    lhs_raw = ZERO
    for lam in partition_list(k):
        lhs_raw = lhs_raw + lam.dim_sytx() * schur_poly(lam, m)
    lhs = flatten(lhs_raw)
    rhs = ZERO
    for j in range(1, k + 1):
        rhs = rhs + math.factorial(j) * stirling2(k, j) * elementary_poly(j, m)
    if k == 0:
        rhs = ONE
    return lhs == rhs, lhs, rhs
