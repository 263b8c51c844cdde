"""Symmetric-group statistics carried entirely by conjugacy classes.

A conjugacy class of the symmetric group is a partition of n read as cycle
lengths; its class size n!/prod(j^m_j * m_j!) (`Partition.class_size`) lets
every permutation sum be computed without enumerating permutations.
Eulerian polynomials of both classical types, their q-analogue, Stirling/Bell
machinery and involution trace moments live here too.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from typing import Callable

from .errors import NonPolynomialResult
from .multipoly import MultiPoly, ONE, ZERO, RatFunc, exact_div
from .partitions import Partition, partition_list
from .series import TruncatedSeries, gaussian_binomial, qpoch_poly


def egf_cycle_statistic(order: int, weight: Callable[[Partition], object]):
    """Exponential generating series sum_n x^n/n! sum_{pi in S_n} w(pi).

    The weight must be a class function, supplied on the partition of n
    formed by the cycle lengths; the x^n coefficient is
    (1/n!) * sum over partitions lam of lam.class_size * weight(lam).
    """
    coeffs = []
    for n in range(order + 1):
        total = ZERO
        for lam in partition_list(n):
            total = total + weight(lam) * lam.class_size
        coeffs.append(total * Fraction(1, math.factorial(n)))
    return TruncatedSeries("x", order, coeffs)


# ----- Stirling / Bell ---------------------------------------------------------


@lru_cache(maxsize=None)
def stirling2(n: int, k: int) -> int:
    if k < 0 or k > n:
        return 0
    if n == 0:
        return 1 if k == 0 else 0
    if k == 0:
        return 0
    return k * stirling2(n - 1, k) + stirling2(n - 1, k - 1)


@lru_cache(maxsize=None)
def bell_poly(n: int) -> MultiPoly:
    """sum_j S(n,j) z^j; the constant term is 1 only at n=0."""
    return MultiPoly.from_dense([stirling2(n, j) for j in range(n + 1)], "z")


def bell_number(n: int) -> int:
    return sum(stirling2(n, j) for j in range(n + 1))


# ----- involutions -------------------------------------------------------------


@lru_cache(maxsize=None)
def involution_count(n: int) -> int:
    if n < 0:
        return 0
    if n <= 1:
        return 1
    return involution_count(n - 1) + (n - 1) * involution_count(n - 2)


def involution_egf(order: int) -> TruncatedSeries:
    """exp(z + z^2/2), the exponential generating series of involutions."""
    return TruncatedSeries("z", order, [0, 1, Fraction(1, 2)]).exp()


def involution_trace_moment(n: int, k: int) -> int:
    """sum over involutions of S_n of (fixed points)^k, with 0^0 = 1."""
    if n < 0 or k < 0:
        raise ValueError("moments need n, k >= 0")
    total = 0
    for j in range(n // 2 + 1):
        fixed = n - 2 * j
        count = math.factorial(n) // (math.factorial(fixed) * 2**j * math.factorial(j))
        total += fixed**k * count if (fixed or k == 0) else 0
    return total


# ----- Eulerian polynomials ----------------------------------------------------


def _eulerian_from_values(values: list[int], n: int) -> MultiPoly:
    # (1-t)^(n+1) * sum_k values[k] t^k, truncated to degree n
    coeffs = [
        sum((-1) ** j * math.comb(n + 1, j) * values[m - j] for j in range(m + 1))
        for m in range(n + 1)
    ]
    return MultiPoly.from_dense(coeffs, "t")


@lru_cache(maxsize=None)
def eulerian_A(n: int) -> MultiPoly:
    """Numerator of sum_k (k+1)^n t^k over (1-t)^(n+1)."""
    return _eulerian_from_values([(k + 1) ** n for k in range(n + 1)], n)


@lru_cache(maxsize=None)
def eulerian_B(n: int) -> MultiPoly:
    """Numerator of sum_k (2k+1)^n t^k over (1-t)^(n+1)."""
    return _eulerian_from_values([(2 * k + 1) ** n for k in range(n + 1)], n)


def eulerian_coeff_A(n: int, k: int) -> int:
    if k < 0:
        return 0
    c = eulerian_A(n).coeff_of("t", k)
    return int(c.as_fraction())


def eulerian_coeff_B(n: int, k: int) -> int:
    if k < 0:
        return 0
    c = eulerian_B(n).coeff_of("t", k)
    return int(c.as_fraction())


# ----- q-analogue of type B ----------------------------------------------------


_T = MultiPoly.var("t")


@lru_cache(maxsize=None)
def _q_eulerian_table(n: int) -> tuple[MultiPoly, ...]:
    """B_1(t,q) .. B_n(t,q) by clearing the defining series denominator.

    Writing the defining quotient as sum_m B_m z^m/(q;q)_m and multiplying
    through by the denominator series gives, per order m, the recurrence

        B_m (1 - t) = N_m - sum_{k=1}^{m-1} binom(m,k)_q B_k D_{m-k},

    where N_m = sum_k binom(m,k)_q (1-t^k)(t^(m-k) + t) collects the
    numerator and D_j = (2t)^j - t 2^j the denominator coefficients cleared
    of their Pochhammer denominators.  Every step divides exactly by (1-t),
    which certifies polynomiality as we go.
    """
    one_minus_t = ONE - _T
    d = [(2 * _T) ** j - _T * 2**j for j in range(n + 1)]
    table: list[MultiPoly] = []
    for m in range(1, n + 1):
        num = MultiPoly.const(0)
        for k in range(1, m + 1):
            gb = gaussian_binomial(m, k)
            num = num + gb * (ONE - _T**k) * (_T ** (m - k) + _T)
        for k in range(1, m):
            num = num - gaussian_binomial(m, k) * table[k - 1] * d[m - k]
        quot = exact_div(num, one_minus_t)
        if quot is None:
            raise NonPolynomialResult(f"order-{m} coefficient not divisible by 1-t")
        table.append(quot)
    return tuple(table)


def q_eulerian_B(n: int) -> MultiPoly:
    """The q-analogue B_n(t,q); a genuine polynomial with B_n(t,1) classical."""
    if n < 1:
        raise ValueError("q-Eulerian B_n needs n >= 1")
    return _q_eulerian_table(n)[n - 1]


def q_eulerian_coeff(n: int, k: int) -> MultiPoly:
    """B_{n,k}(q), the t^k coefficient of B_n(t,q)."""
    if k < 0 or k > n:
        return MultiPoly.const(0)
    return q_eulerian_B(n).coeff_of("t", k)


def q_eulerian_B_reference(n: int) -> MultiPoly:
    """B_n(t,q) straight from the defining quotient of q-exponentials.

    Slower than the cleared recurrence (rational-function coefficients in q
    and t with gcd reduction at every step) but independent of it; used to
    cross-validate at small n.
    """
    if n < 1:
        raise ValueError("q-Eulerian B_n needs n >= 1")

    def e_scaled(scale: MultiPoly) -> TruncatedSeries:
        return TruncatedSeries(
            "z", n, [RatFunc(scale**m, qpoch_poly(m)) for m in range(n + 1)]
        )

    e1 = e_scaled(ONE)
    et = e_scaled(_T)
    e2t = e_scaled(2 * _T)
    e2 = e_scaled(MultiPoly.const(2))
    quotient = (e1 - et) * (et + e1 * _T) / (e2t - e2 * _T)
    return (quotient.coefficient(n) * qpoch_poly(n)).as_poly()
