"""Truncated formal power series over exact polynomial or rational coefficients.

A TruncatedSeries fixes a series variable name and an order N and stores the
coefficients of x^0..x^N as the ring elements it is given: a MultiPoly or a
RatFunc as it is, an int or Fraction as a constant MultiPoly.  So a RatFunc
appears only where a caller builds one.  The series variable is bookkeeping
only: coefficients must not involve it, which the constructor enforces when
the name collides with a coefficient variable.

exp and log use the standard derivative recurrences, so series with
polynomial coefficients keep polynomial coefficients: the only divisions are
by integers (exp, log) or by a unit of the coefficient ring (div: a nonzero
constant or RatFunc).  That is what makes binomial-type products
(1 - x^k)^(-E) come out with coefficients polynomial in the exponent's
variables, which several checks rely on.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from typing import Sequence

from .errors import BadConstantTerm, DivisionByNonUnit
from .multipoly import ONE, VARIABLES, ZERO, MultiPoly, RatFunc


def _element(value):
    """A MultiPoly or RatFunc as given, else MultiPoly.const(value): a float raises."""
    if isinstance(value, (MultiPoly, RatFunc)):
        return value
    return MultiPoly.const(value)


class TruncatedSeries:
    """Power series in one variable, exact up to and including x^order."""

    __slots__ = ("var", "order", "coeffs")

    def __init__(self, var: str, order: int, coeffs: Sequence = ()):
        if order < 0:
            raise ValueError("series order must be nonnegative")
        padded = [_element(c) for c in coeffs][: order + 1]
        padded += [ZERO] * (order + 1 - len(padded))
        if var in VARIABLES:
            for c in padded:
                polys = (c.num, c.den) if isinstance(c, RatFunc) else (c,)
                if any(p.degree(var) > 0 for p in polys):
                    raise ValueError(
                        f"coefficient of a series in {var} must not involve {var}"
                    )
        self.var = var
        self.order = order
        self.coeffs = tuple(padded)

    # ----- constructors --------------------------------------------------

    @staticmethod
    def zero(var: str, order: int) -> TruncatedSeries:
        return TruncatedSeries(var, order)

    @staticmethod
    def const(value, var: str, order: int) -> TruncatedSeries:
        return TruncatedSeries(var, order, [value])

    @staticmethod
    def monomial(var: str, order: int, deg: int, coeff=1) -> TruncatedSeries:
        """coeff * var^deg, truncated (zero series if deg > order)."""
        if deg < 0:
            raise ValueError("monomial degree must be nonnegative")
        coeffs = [ZERO] * (order + 1)
        c = _element(coeff)
        if deg <= order:
            coeffs[deg] = c
        return TruncatedSeries(var, order, coeffs)

    @staticmethod
    def from_poly(p: MultiPoly, name: str, var: str, order: int) -> TruncatedSeries:
        """Reinterpret a univariate polynomial in `name` as a series in `var`."""
        coeffs = [ZERO] * (order + 1)
        for deg, c in p.as_univariate(name).items():
            if deg <= order:
                coeffs[deg] = c
        return TruncatedSeries(var, order, coeffs)

    # ----- access ---------------------------------------------------------

    def coefficient(self, n: int) -> MultiPoly | RatFunc:
        if not 0 <= n <= self.order:
            raise IndexError(f"coefficient {n} outside truncation order {self.order}")
        return self.coeffs[n]

    def is_zero(self) -> bool:
        return all(c.is_zero() for c in self.coeffs)

    def _check_compatible(self, other: TruncatedSeries):
        if self.var != other.var or self.order != other.order:
            raise ValueError(
                f"series mismatch: ({self.var!r}, N={self.order}) vs "
                f"({other.var!r}, N={other.order})"
            )

    # ----- arithmetic -----------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, TruncatedSeries):
            return other
        if isinstance(other, (int, Fraction, MultiPoly, RatFunc)):
            return TruncatedSeries.const(other, self.var, self.order)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        self._check_compatible(o)
        out = TruncatedSeries.__new__(TruncatedSeries)
        out.var, out.order = self.var, self.order
        out.coeffs = tuple(a + b for a, b in zip(self.coeffs, o.coeffs))
        return out

    __radd__ = __add__

    def __neg__(self):
        out = TruncatedSeries.__new__(TruncatedSeries)
        out.var, out.order = self.var, self.order
        out.coeffs = tuple(-c for c in self.coeffs)
        return out

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
            out = TruncatedSeries.__new__(TruncatedSeries)
            out.var, out.order = self.var, self.order
            out.coeffs = tuple(a * other for a in self.coeffs)
            return out
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
        r = TruncatedSeries.__new__(TruncatedSeries)
        r.var, r.order = self.var, n
        r.coeffs = tuple(out)
        return r

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction, MultiPoly, RatFunc)):
            if not other:
                raise ZeroDivisionError("series divided by zero scalar")
            other = TruncatedSeries.const(other, self.var, self.order)
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
        return TruncatedSeries(self.var, n, out)

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o / self

    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return (
            self.var == o.var and self.order == o.order and self.coeffs == o.coeffs
        )

    def __hash__(self):
        return hash((self.var, self.order, self.coeffs))

    def first_difference(self, other: TruncatedSeries) -> int | None:
        """Smallest n where coefficients differ, or None if equal throughout."""
        self._check_compatible(other)
        for n, (a, b) in enumerate(zip(self.coeffs, other.coeffs)):
            if a != b:
                return n
        return None

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
        return TruncatedSeries(self.var, n, out)

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
        return TruncatedSeries(self.var, n, out)

    def render(self, max_terms: int = 12) -> str:
        parts = []
        shown = 0
        for deg, c in enumerate(self.coeffs):
            if c.is_zero():
                continue
            if shown >= max_terms:
                parts.append("...")
                break
            body = c.render()
            if deg == 0:
                parts.append(body)
            else:
                x = self.var if deg == 1 else f"{self.var}^{deg}"
                parts.append(f"({body})*{x}" if (" " in body or "/" in body) else
                             (x if body == "1" else f"{body}*{x}"))
            shown += 1
        if not parts:
            return "0"
        return " + ".join(parts) + f" + O({self.var}^{self.order + 1})"

    def __repr__(self):
        return f"TruncatedSeries({self.render()})"


# ----- named series builders -------------------------------------------------


def geometric(var: str, order: int, deg: int = 1, coeff=1) -> TruncatedSeries:
    """1/(1 - coeff*var^deg) expanded directly (no division needed)."""
    if deg < 1:
        raise ValueError("geometric factor needs degree >= 1")
    c = _element(coeff)
    coeffs = [ZERO] * (order + 1)
    power = ONE
    k = 0
    while k * deg <= order:
        coeffs[k * deg] = power
        power = power * c
        k += 1
    return TruncatedSeries(var, order, coeffs)


def log_one_minus(var: str, order: int, deg: int, coeff=1) -> TruncatedSeries:
    """log(1 - coeff*var^deg) = -sum coeff^m var^(deg m)/m."""
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
    return TruncatedSeries(var, order, coeffs)


def binomial_series(exponent, var: str, order: int, deg: int = 1):
    """(1 - var^deg)^(-exponent) via exp(exponent * -log(1 - var^deg)).

    The exponent may be any polynomial (or rational constant); coefficients of
    the result are polynomials in the exponent's variables.
    """
    e = _element(exponent)
    return (log_one_minus(var, order, deg) * (-e)).exp()


def pochhammer(a: TruncatedSeries, q: TruncatedSeries, n: int, order: int):
    """Truncated q-Pochhammer (a; q)_n = prod_{j<n} (1 - a*q^j).

    `a` and `q` must be monomial series in the same variable.  Factors whose
    degree exceeds the order are dropped, which is exact at this truncation.
    """
    a._check_compatible(q)
    var = a.var

    def mono(s: TruncatedSeries) -> tuple[int, MultiPoly | RatFunc]:
        nz = [(d, c) for d, c in enumerate(s.coeffs) if not c.is_zero()]
        if len(nz) != 1:
            raise ValueError("pochhammer arguments must be monomial series")
        return nz[0]

    a_deg, a_coeff = mono(a)
    q_deg, q_coeff = mono(q)
    result = TruncatedSeries.const(1, var, order)
    j = 0
    fac_coeff = a_coeff
    fac_deg = a_deg
    while j < n and fac_deg <= order:
        factor = TruncatedSeries.const(1, var, order) - TruncatedSeries.monomial(
            var, order, fac_deg, fac_coeff
        )
        result = result * factor
        j += 1
        fac_deg += q_deg
        fac_coeff = fac_coeff * q_coeff
    return result


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
    """prod over (stride, offset, exponent[, plus]) of
    prod_{j>=1} (1 - x^(stride*j - offset))^(-exponent).

    Exponents may be polynomials.  A factor tuple may carry a fourth, boolean
    entry selecting (1 + ...) instead of (1 - ...).  The logs of all factors
    are summed and exponentiated once.
    """
    total = TruncatedSeries.zero("x", order)
    for fac in factors:
        stride, offset, expo = fac[:3]
        plus = len(fac) > 3 and fac[3]
        if stride < 1:
            raise ValueError("stride must be >= 1")
        neg_e = -_element(expo)
        for deg in range(stride - offset, order + 1, stride):
            if deg >= 1:
                total = total + log_one_minus("x", order, deg, -1 if plus else 1) * neg_e
    return total.exp()
