"""Schur polynomials by tableau enumeration, elementary symmetric
polynomials, and the exponent-flattening transform that connects them.

Everything works in the fixed y-block (y1..y6) of the shared variable set,
so results combine freely with the rest of the package.  Sizes are desk
scale by contract; the enumerations are direct and double as oracles for
closed forms elsewhere.
"""

from __future__ import annotations

import math
from itertools import combinations, combinations_with_replacement
from operator import lt

from .errors import BudgetExceeded, VariableOutOfScope
from .multipoly import MultiPoly, NVARS, ONE, SLOT_BITS, VAR_INDEX, ZERO, from_packed
from .partitions import Partition, partition_list
from .permstats import stirling2

#: Indices of the y-block inside the package-wide exponent vectors.
_Y_INDICES = tuple(VAR_INDEX[f"y{i}"] for i in range(1, 7))
MAX_VARS = len(_Y_INDICES)
#: The packed key of each y-variable, and the mask of its exponent slot.
_Y_UNITS = tuple(next(iter(MultiPoly.var(f"y{i}").prim)) for i in range(1, 7))
_Y_SLOTS = tuple((unit, unit * ((1 << SLOT_BITS) - 1)) for unit in _Y_UNITS)
_Y_BLOCK = sum(mask for _, mask in _Y_SLOTS)

_MAX_CELLS = 8


def _rows(shape: tuple[int, ...], m: int):
    """Yield the fillings of shape with entries in 1..m, rows weakly
    increasing and columns strictly increasing, depth-first.

    Each row is a weakly increasing tuple from combinations_with_replacement,
    kept when each of its entries exceeds the one above it.  Yields complete
    fillings as lists of rows.
    """
    choices = {L: list(combinations_with_replacement(range(1, m + 1), L)) for L in set(shape)}

    def rec(i: int, above: tuple[int, ...]):
        if i == len(shape):
            yield []
            return
        for row in choices[shape[i]]:
            if all(map(lt, above, row)):
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
    units = (0,) + _Y_UNITS  # entry v adds one to the exponent of y_v
    terms: dict[int, int] = {}  # fillings per packed monomial
    for filling in _rows(lam.parts, m):
        key = 0
        for row in filling:
            for v in row:
                key += units[v]
        terms[key] = terms.get(key, 0) + 1
    return from_packed(terms)


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
    The integer coefficients of p.prim are merged on packed keys, and p.cont
    is applied once.
    """
    terms: dict[int, int] = {}
    for key, c in p.prim.items():
        if key & ~_Y_BLOCK:
            saw = from_packed({key: c}) * p.cont
            raise VariableOutOfScope(f"flatten only handles y-variables; saw {saw.render()}")
        capped = sum(unit for unit, mask in _Y_SLOTS if key & mask)
        terms[capped] = terms.get(capped, 0) + c
    return from_packed(terms) * p.cont


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
