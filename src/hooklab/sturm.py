"""Exact real-root counting for rational polynomials in t.

Sturm chains over primitive integer coefficients: the chain of p and p'
counts the distinct real roots of p even when p is not squarefree, and its
last entry is gcd(p, p') up to a scalar, so simplicity is read off that
entry's degree.  Each pseudo-remainder is taken by a divisor with positive
leading coefficient, so its multiplier is positive.  No numerics anywhere.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .multipoly import MultiPoly, dense_prem


def _sign(x: int) -> int:
    return (x > 0) - (x < 0)


def _variations(signs) -> int:
    """Sign changes ignoring zeros."""
    cleaned = [s for s in signs if s]
    return sum(1 for u, w in zip(cleaned, cleaned[1:]) if u * w < 0)


def _var_at_minus_inf(chain) -> int:
    return _variations([_sign(p[-1]) * (-1) ** (len(p) - 1) for p in chain if p])


def _var_at_plus_inf(chain) -> int:
    return _variations([_sign(p[-1]) for p in chain if p])


def _var_at_zero(chain) -> int:
    return _variations([_sign(p[0]) for p in chain if p])


@dataclass(frozen=True)
class SturmReport:
    real_root_count: int
    all_roots_simple: bool
    all_roots_negative: bool


def sturm_analysis(p: MultiPoly) -> SturmReport:
    """Distinct-real-root count, simplicity, and negativity for a polynomial
    in t.

    all_roots_negative refers to the real roots only, so it is vacuously true
    when there are none (e.g. t^2 + 1).
    """
    dense = p.dense_prim("t")
    if not p:
        raise ValueError("sturm analysis of the zero polynomial")
    if len(dense) == 1:
        return SturmReport(0, True, True)
    chain = [dense, [d * c for d, c in enumerate(dense)][1:]]
    while True:
        b = chain[-1]
        r = dense_prem(chain[-2], b if b[-1] > 0 else [-c for c in b])
        if not r:
            break
        # r is a positive multiple of the remainder, so -r/g keeps every sign
        g = math.gcd(*r)
        chain.append([-c // g for c in r])
    v_minus = _var_at_minus_inf(chain)
    total = v_minus - _var_at_plus_inf(chain)
    # A root at 0 is not negative; any other p(0) leaves V(0) well defined,
    # and V(-inf) - V(0) counts the roots in (-inf, 0).
    negative = dense[0] != 0 and v_minus - _var_at_zero(chain) == total
    return SturmReport(total, len(chain[-1]) == 1, negative)


def unimodal(p: MultiPoly) -> bool:
    """True when the coefficients in t weakly rise then weakly fall."""
    coeffs = p.dense_prim("t")
    i = 0
    while i + 1 < len(coeffs) and coeffs[i] <= coeffs[i + 1]:
        i += 1
    while i + 1 < len(coeffs) and coeffs[i] >= coeffs[i + 1]:
        i += 1
    return i == len(coeffs) - 1
