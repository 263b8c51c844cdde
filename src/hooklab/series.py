"""Truncated formal power series in x over exact polynomial or rational coefficients.

Every series is a series in x, which is not one of the coefficient
variables (multipoly.VARIABLES), so a coefficient may use any of those,
z included.  A TruncatedSeries fixes an order N and stores the
coefficients of x^0..x^N as the ring elements it is given: a MultiPoly or
a RatFunc as it is, an int or Fraction as a constant MultiPoly.  So a
RatFunc appears only where a caller divides polynomials (p / q) and a
denominator is left, and a series equals only another series.

exp and log use the standard derivative recurrences, so series with
polynomial coefficients keep polynomial coefficients: the only divisions are
by integers (exp, log) or by a unit of the coefficient ring (div: a nonzero
constant or RatFunc).  That is what makes binomial-type products
(1 - x^k)^(-E) come out with coefficients polynomial in the exponent's
variables, which several checks rely on.

The named builders below are general: the geometric series 1/(1 - x),
log(1 - c x^d), binomial series, eta products, and (q; q)_n and Gaussian
binomials as polynomials.  A series that serves one family of identities,
such as the product (c x; x)_k of the Rogers-Ramanujan-type sums, is
built next to those identities in identities.py.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from typing import Sequence

from .errors import BadConstantTerm, DivisionByNonUnit
from .multipoly import ONE, ZERO, MultiPoly, RatFunc


def _element(value):
    """A MultiPoly or RatFunc as given, else MultiPoly.const(value): a float raises."""
    if isinstance(value, (MultiPoly, RatFunc)):
        return value
    return MultiPoly.const(value)


def _series(order: int, coeffs) -> TruncatedSeries:
    """Wrap order + 1 coefficients that are already ring elements; no checks."""
    r = TruncatedSeries.__new__(TruncatedSeries)
    r.order = order
    r.coeffs = tuple(coeffs)
    return r


class TruncatedSeries:
    """Power series in x, exact up to and including x^order."""

    __slots__ = ("order", "coeffs")

    def __init__(self, order: int, coeffs: Sequence = ()):
        if order < 0:
            raise ValueError("series order must be nonnegative")
        padded = [_element(c) for c in coeffs][: order + 1]
        padded += [ZERO] * (order + 1 - len(padded))
        self.order = order
        self.coeffs = tuple(padded)

    @staticmethod
    def monomial(order: int, deg: int, coeff=1) -> TruncatedSeries:
        """coeff * x^deg, truncated (zero series if deg > order)."""
        if deg < 0:
            raise ValueError("monomial degree must be nonnegative")
        coeffs = [ZERO] * (order + 1)
        c = _element(coeff)
        if deg <= order:
            coeffs[deg] = c
        return TruncatedSeries(order, coeffs)

    # ----- access ---------------------------------------------------------

    def coefficient(self, n: int) -> MultiPoly | RatFunc:
        if not 0 <= n <= self.order:
            raise IndexError(f"coefficient {n} outside truncation order {self.order}")
        return self.coeffs[n]

    def is_zero(self) -> bool:
        return all(c.is_zero() for c in self.coeffs)

    def _check_compatible(self, other: TruncatedSeries):
        if self.order != other.order:
            raise ValueError(f"series orders differ: {self.order} vs {other.order}")

    # ----- arithmetic -----------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, TruncatedSeries):
            return other
        if isinstance(other, (int, Fraction, MultiPoly, RatFunc)):
            return TruncatedSeries(self.order, [other])
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        self._check_compatible(o)
        return _series(self.order, [a + b for a, b in zip(self.coeffs, o.coeffs)])

    __radd__ = __add__

    def __neg__(self):
        return _series(self.order, [-c for c in self.coeffs])

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o + (-self)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, MultiPoly, RatFunc)):
            return _series(self.order, [a * other for a in self.coeffs])
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        self._check_compatible(other)
        n = self.order
        a = self.coeffs
        b = other.coeffs
        # Cauchy product, skipping zero coefficients (series here are often sparse).
        out = [ZERO] * (n + 1)
        for i, ai in enumerate(a):
            if ai.is_zero():
                continue
            for j in range(0, n - i + 1):
                bj = b[j]
                if not bj.is_zero():
                    out[i + j] = out[i + j] + ai * bj
        return _series(n, out)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction, MultiPoly, RatFunc)):
            if not other:
                raise ZeroDivisionError("series divided by zero scalar")
            other = TruncatedSeries(self.order, [other])
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        self._check_compatible(other)
        b0 = other.coeffs[0]
        if b0.is_zero() or isinstance(b0, MultiPoly) and not b0.is_constant():
            raise DivisionByNonUnit(
                f"series division needs an invertible constant term, not {b0.render()}"
            )
        inv_b0 = 1 / b0 if isinstance(b0, RatFunc) else 1 / b0.constant_term()
        n = self.order
        out = []
        for k in range(n + 1):
            acc = self.coeffs[k]
            for j in range(k):
                bj = other.coeffs[k - j]
                if not bj.is_zero() and not out[j].is_zero():
                    acc = acc - out[j] * bj
            out.append(acc * inv_b0)
        return _series(n, out)

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o / self

    def __eq__(self, other):
        # A scalar is not a series: lifting it to this series' order would
        # make 1 equal series of every order and break hashing.  The length
        # of coeffs is order + 1, so equal coefficients mean equal orders.
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    # ----- transcendental operations ---------------------------------------

    def exp(self) -> TruncatedSeries:
        """exp of a series with zero constant term."""
        if not self.coeffs[0].is_zero():
            raise BadConstantTerm("exp needs constant term 0")
        n = self.order
        s = self.coeffs
        out = [ONE] + [ZERO] * n
        for m in range(1, n + 1):
            acc = ZERO
            for k in range(1, m + 1):
                if not s[k].is_zero() and not out[m - k].is_zero():
                    acc = acc + s[k] * out[m - k] * Fraction(k)
            out[m] = acc * Fraction(1, m)
        return _series(n, out)

    def log(self) -> TruncatedSeries:
        """log of a series with constant term 1."""
        if self.coeffs[0] != ONE:
            raise BadConstantTerm("log needs constant term 1")
        n = self.order
        s = self.coeffs
        out = [ZERO] * (n + 1)
        for m in range(1, n + 1):
            acc = s[m] * Fraction(m)
            for k in range(1, m):
                if not out[k].is_zero() and not s[m - k].is_zero():
                    acc = acc - out[k] * s[m - k] * Fraction(k)
            out[m] = acc * Fraction(1, m)
        return _series(n, out)

    def render(self) -> str:
        parts = []
        for deg, c in enumerate(self.coeffs):
            if c.is_zero():
                continue
            body = c.render()
            if deg == 0:
                parts.append(body)
            else:
                x = "x" if deg == 1 else f"x^{deg}"
                parts.append(f"({body})*{x}" if (" " in body or "/" in body) else
                             (x if body == "1" else f"{body}*{x}"))
        if not parts:
            return "0"
        return " + ".join(parts) + f" + O(x^{self.order + 1})"

    def __repr__(self):
        return f"TruncatedSeries({self.render()})"


# ----- named series builders -------------------------------------------------


def geometric(order: int) -> TruncatedSeries:
    """1/(1 - x) = 1 + x + x^2 + ..., expanded directly."""
    return TruncatedSeries(order, [ONE] * (order + 1))


def log_one_minus(order: int, deg: int, coeff=1) -> TruncatedSeries:
    """log(1 - coeff*x^deg) = -sum coeff^m x^(deg m)/m."""
    if deg < 1:
        raise ValueError("log expansion needs degree >= 1")
    c = _element(coeff)
    coeffs = [ZERO] * (order + 1)
    power = c
    m = 1
    while m * deg <= order:
        coeffs[m * deg] = -power * Fraction(1, m)
        power = power * c
        m += 1
    return TruncatedSeries(order, coeffs)


def binomial_series(exponent, order: int, deg: int = 1):
    """(1 - x^deg)^(-exponent) via exp(exponent * -log(1 - x^deg)).

    The exponent may be any polynomial (or rational constant); coefficients of
    the result are polynomials in the exponent's variables.
    """
    e = _element(exponent)
    return (log_one_minus(order, deg) * (-e)).exp()


# ----- q-polynomials ----------------------------------------------------------


def qpoch_poly(n: int) -> MultiPoly:
    """(q; q)_n as an exact polynomial in q."""
    if n < 0:
        raise ValueError("qpoch_poly needs n >= 0")
    q = MultiPoly.var("q")
    result = ONE
    for j in range(1, n + 1):
        result = result * (ONE - q ** j)
    return result


@lru_cache(maxsize=None)
def gaussian_binomial(n: int, k: int) -> MultiPoly:
    """Gaussian binomial coefficient [n, k] as a polynomial in q.

    Built by the q-Pascal rule [n, k] = [n-1, k-1] + q^k [n-1, k], so no
    division is needed; out-of-range k (k < 0 or k > n) gives the zero
    polynomial.  A cold call recurses n levels deep; every caller asks for
    rows in ascending n, so each call finds row n-1 already cached.
    """
    if k < 0 or k > n:
        return ZERO
    if k == 0 or k == n:
        return ONE
    return gaussian_binomial(n - 1, k - 1) + MultiPoly.var("q", k) * gaussian_binomial(
        n - 1, k
    )


def binomial_poly(p: MultiPoly, k: int) -> MultiPoly:
    """Binomial coefficient C(p, k) = p(p-1)...(p-k+1)/k! for polynomial p."""
    if k < 0:
        return ZERO
    result = ONE
    for i in range(k):
        result = result * (p - i)
    return result / Fraction(math.factorial(k))


def eta_product(factors, order: int) -> TruncatedSeries:
    """prod over (stride, offset, exponent) of
    prod_{j>=1} (1 - x^(stride*j - offset))^(-exponent).

    Exponents may be polynomials.  A factor 1 + y is written (1 - y^2)/(1 - y).
    The offset must be below the stride, so that every factor has positive
    degree.  The logs of all factors are summed and exponentiated once.
    """
    total = TruncatedSeries(order)
    for stride, offset, expo in factors:
        if stride < 1:
            raise ValueError("stride must be >= 1")
        if offset >= stride:
            raise ValueError(f"offset {offset} must be below stride {stride}")
        neg_e = -_element(expo)
        for deg in range(stride - offset, order + 1, stride):
            total = total + log_one_minus(order, deg) * neg_e
    return total.exp()
