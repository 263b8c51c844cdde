"""Exact sparse multivariate polynomials and reduced rational functions.

Every value in this package is an exact rational; nothing is ever rounded.
A polynomial is stored as cont * prim: ``prim`` maps exponent vectors to
nonzero ints whose gcd is 1, and ``cont`` is a positive Fraction (the zero
polynomial is ({}, 1)).  That pair is unique for each polynomial, so ``==``
is a data comparison.  By Gauss's lemma the product of two primitive
polynomials is primitive, so a product multiplies ints and contents and
never takes a gcd, and a scalar multiple only rescales the content.  The
variable set is fixed once for the whole package (VARIABLES), so exponent
vectors built in different modules always line up and cross-module
arithmetic needs no variable bookkeeping.

Inside ``prim`` each exponent vector is packed into one non-negative int
key: variable i takes a SLOT_BITS-wide slot, with t in the most
significant slot, so int order on keys is the lexicographic order of the
vectors, and the product of two monomials is the sum of their keys.  The
top bit of every slot is a guard bit: an exponent must stay below
EXP_LIMIT = 2**31, so adding two keys never carries from one slot into the
next, and a constructor, product or power that would reach the limit
raises ExponentOverflow.  The public interface (``MultiPoly(terms)``,
``.terms``, ``lex_leading()``) speaks exponent tuples; the constructor
rejects a tuple of the wrong length, a negative exponent (ValueError) and
an exponent that is not an int (TypeError).

RatFunc is a quotient of two MultiPoly values kept in reduced form: the gcd
of numerator and denominator is divided out and both are rescaled so the
denominator's lexicographically leading coefficient is 1.  Equal values then
have equal (content, primitive) pairs, so ``==`` is a data comparison.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Mapping, Sequence, Union

from .errors import ExponentOverflow, NonPolynomialResult, NotUnivariate

#: Coefficient variables, in the fixed order used by every exponent vector.
#: t, q, v, a, b, z are the scalar parameters appearing in identities; the
#: y-block is reserved for symmetric polynomials in up to six variables.
VARIABLES = ("t", "q", "v", "a", "b", "z", "y1", "y2", "y3", "y4", "y5", "y6")
NVARS = len(VARIABLES)
VAR_INDEX = {name: i for i, name in enumerate(VARIABLES)}

ZERO_EXP = (0,) * NVARS

#: Width of one exponent slot of a packed key; see the module docstring.
SLOT_BITS = 32
#: Every exponent of every monomial stays below this.
EXP_LIMIT = 1 << (SLOT_BITS - 1)
_SHIFTS = tuple(SLOT_BITS * (NVARS - 1 - i) for i in range(NVARS))
_SLOT_MASK = (1 << SLOT_BITS) - 1
_GUARDS = sum(EXP_LIMIT << s for s in _SHIFTS)

Scalar = Union[int, Fraction]


def _exponent(name: str, e) -> int:
    """e, checked to be an int with 0 <= e < EXP_LIMIT."""
    if not isinstance(e, int):
        raise TypeError(f"the exponent of {name} must be an int, got {type(e).__name__}")
    if e < 0:
        raise ValueError("monomials need nonnegative exponents")
    if e >= EXP_LIMIT:
        raise _overflow(name, e)
    return e


def _pack(exp: Sequence[int]) -> int:
    """The key of an exponent vector of NVARS ints."""
    if len(exp) != NVARS:
        raise ValueError(f"exponent vectors have {NVARS} entries, got {len(exp)}")
    key = 0
    for name, e in zip(VARIABLES, exp):
        key = key << SLOT_BITS | _exponent(name, e)
    return key


def _unpack(key: int) -> tuple[int, ...]:
    """The exponent vector of a key; the inverse of _pack."""
    return tuple(key >> s & _SLOT_MASK for s in _SHIFTS)


def _overflow(name: str, e: int) -> ExponentOverflow:
    return ExponentOverflow(f"{name}^{e}: exponents must stay below {EXP_LIMIT}")


def _as_fraction(value) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    raise TypeError(f"expected an exact rational, got {type(value).__name__}")


def _fraction_content(values: Iterable[Fraction]) -> Fraction:
    """Positive rational c such that value/c is an integer for every value,
    with the integers collectively coprime."""
    num_gcd = 0
    den_lcm = 1
    for f in values:
        num_gcd = math.gcd(num_gcd, abs(f.numerator))
        den_lcm = den_lcm * f.denominator // math.gcd(den_lcm, f.denominator)
    if num_gcd == 0:
        return Fraction(1)
    return Fraction(num_gcd, den_lcm)


def dense_prem(a: list, b: list) -> list:
    """Pseudo-remainder lc(b)^k * a mod b, k the number of elimination steps,
    of dense lists (degree 0 upward, b without trailing zeros) of ints or
    MultiPoly values.  The result has no trailing zeros; that of zero is [].
    """
    a = list(a)
    n = len(b) - 1
    lc = b[-1]
    scale = lc != 1
    while len(a) > n:
        lead = a.pop()
        if scale:
            a = [lc * c for c in a]
        off = len(a) - n
        for i in range(n):
            a[off + i] -= lead * b[i]
        while a and not a[-1]:
            a.pop()
    return a


def dense_linear_product(shifts: Iterable[int]) -> list[int]:
    """Integer coefficients (degree 0 upward) of prod (t + r) over the shifts r."""
    out = [1]
    for r in shifts:
        out = [r * c + lower for c, lower in zip(out + [0], [0] + out)]
    return out


class MultiPoly:
    """Sparse polynomial over Q in the fixed variable set, kept as
    cont * prim: a positive Fraction times a primitive integer term map."""

    __slots__ = ("prim", "cont")

    def __init__(self, terms: Mapping[tuple, Scalar] | None = None):
        p = from_packed({_pack(exp): c for exp, c in (terms or {}).items()})
        self.prim, self.cont = p.prim, p.cont

    # ----- constructors -------------------------------------------------

    @staticmethod
    def const(value) -> MultiPoly:
        c = _as_fraction(value)
        if not c:
            return ZERO
        if c.numerator > 0:
            return _raw(_ONE_PRIM, c)
        return _raw(_MINUS_ONE_PRIM, -c)

    @staticmethod
    def var(name: str, power: int = 1) -> MultiPoly:
        if name not in VAR_INDEX:
            raise KeyError(f"unknown variable {name!r}; pick from {VARIABLES}")
        if _exponent(name, power) == 0:
            return ONE
        return _raw({power << _SHIFTS[VAR_INDEX[name]]: 1}, _UNIT)

    @staticmethod
    def monomial(powers: Mapping[str, int], coeff=1) -> MultiPoly:
        key = 0
        for name, p in powers.items():
            key |= _exponent(name, p) << _SHIFTS[VAR_INDEX[name]]
        return from_packed({key: coeff})

    @staticmethod
    def from_dense(coeffs: Sequence[Scalar], name: str) -> MultiPoly:
        """Inverse of dense_coeffs: coeffs[d] becomes the coefficient of name**d."""
        s = _SHIFTS[VAR_INDEX[name]]
        return from_packed({d << s: c for d, c in enumerate(coeffs)})

    # ----- views ----------------------------------------------------------

    @property
    def terms(self) -> dict[tuple, Fraction]:
        """The coefficients as {exponent: Fraction}; a fresh dict on each read."""
        cont = self.cont
        return {_unpack(key): cont * c for key, c in self.prim.items()}

    def is_zero(self) -> bool:
        return not self.prim

    def is_one(self) -> bool:
        return self.cont == 1 and self.prim == _ONE_PRIM

    def is_constant(self) -> bool:
        return not self.prim or (len(self.prim) == 1 and 0 in self.prim)

    def constant_term(self) -> Fraction:
        return self.cont * self.prim.get(0, 0)

    def as_fraction(self) -> Fraction:
        if not self.is_constant():
            raise ValueError(f"not a constant: {self.render()}")
        return self.constant_term()

    def used_vars(self) -> tuple[int, ...]:
        used = 0
        for key in self.prim:
            used |= key
        return tuple(i for i, s in enumerate(_SHIFTS) if used >> s & _SLOT_MASK)

    def degree(self, name: str) -> int:
        """Degree in one variable; -1 for the zero polynomial."""
        if not self.prim:
            return -1
        s = _SHIFTS[VAR_INDEX[name]]
        return max(key >> s & _SLOT_MASK for key in self.prim)

    # ----- ring operations ----------------------------------------------

    def _coerce(self, other):
        if isinstance(other, MultiPoly):
            return other
        if isinstance(other, (int, Fraction)):
            return MultiPoly.const(other)
        return None

    def __add__(self, other):
        p = self._coerce(other)
        if p is None:
            return NotImplemented
        if not self.prim:
            return p
        if not p.prim:
            return self
        a, b = self, p
        if len(a.prim) < len(b.prim):
            a, b = b, a
        # Over g = gcd(numerators)/lcm(denominators) both contents are
        # integers ma, mb; the sum's own gcd is divided out by _reduce.
        na, da = a.cont.numerator, a.cont.denominator
        nb, db = b.cont.numerator, b.cont.denominator
        gn, gd = math.gcd(na, nb), math.lcm(da, db)
        ma, mb = na // gn * (gd // da), nb // gn * (gd // db)
        out = dict(a.prim) if ma == 1 else {exp: ma * c for exp, c in a.prim.items()}
        get = out.get
        for exp, c in b.prim.items():
            s = get(exp, 0) + mb * c
            if s:
                out[exp] = s
            else:
                del out[exp]
        return _reduce(out, Fraction(gn, gd))

    __radd__ = __add__

    def __neg__(self):
        return _raw(_negated(self.prim), self.cont)

    def __sub__(self, other):
        p = self._coerce(other)
        if p is None:
            return NotImplemented
        return self + (-p)

    def __rsub__(self, other):
        p = self._coerce(other)
        if p is None:
            return NotImplemented
        return p + (-self)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            # A scalar only rescales the content (and flips signs if negative).
            if not other or not self.prim:
                return ZERO
            if other > 0:
                return _raw(self.prim, self.cont * other)
            return _raw(_negated(self.prim), self.cont * -other)
        if not isinstance(other, MultiPoly):
            return NotImplemented
        a, b = self.prim, other.prim
        if not a or not b:
            return ZERO
        ca, cb = self.cont, other.cont
        cont = cb if ca == 1 else ca if cb == 1 else ca * cb
        if len(b) == 1 and 0 in b:
            return _raw(a if b[0] > 0 else _negated(a), cont)
        if len(a) == 1 and 0 in a:
            return _raw(b if a[0] > 0 else _negated(b), cont)
        # Gauss's lemma: a product of primitive polynomials is primitive,
        # so the integer products need no gcd.  The outer loop runs over the
        # shorter factor, whose constant term needs no key sums.
        if len(a) > len(b):
            a, b = b, a
        c0 = a.get(0)
        out: dict[int, int] = {e2: c0 * c2 for e2, c2 in b.items()} if c0 else {}
        get = out.get
        for e1, c1 in a.items():
            if not e1:
                continue
            for e2, c2 in b.items():
                exp = e1 + e2
                out[exp] = get(exp, 0) + c1 * c2
        if any(map(_GUARDS.__and__, out)):
            e, name = max(zip(_unpack(max(out, key=_GUARDS.__and__)), VARIABLES))
            raise _overflow(name, e)
        if 0 in out.values():
            out = {exp: c for exp, c in out.items() if c}
        return _raw(out, cont)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if not isinstance(n, int) or n < 0:
            raise ValueError("polynomial powers must be nonnegative integers")
        if len(self.prim) == 1:
            # A monomial's primitive coefficient is 1 or -1.
            [(key, c)] = self.prim.items()
            e, name = max(zip(_unpack(key), VARIABLES))
            if e * n >= EXP_LIMIT:
                raise _overflow(name, e * n)
            return _raw({key * n: c**n}, self.cont**n)
        result = ONE
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    def __truediv__(self, other):
        """Division by an exact scalar only; use RatFunc for polynomial quotients."""
        if isinstance(other, (int, Fraction)):
            c = _as_fraction(other)
            if not c:
                raise ZeroDivisionError("division of polynomial by zero")
            return self * (1 / c)
        return NotImplemented

    def __eq__(self, other):
        p = self._coerce(other)
        if p is None:
            return NotImplemented
        return self.cont == p.cont and self.prim == p.prim

    def __hash__(self):
        # A constant equals its Fraction, so it must hash like one.
        if self.is_constant():
            return hash(self.constant_term())
        return hash((self.cont, frozenset(self.prim.items())))

    def __bool__(self):
        return bool(self.prim)

    def __repr__(self):
        return f"MultiPoly({self.render()})"

    # ----- structure ------------------------------------------------------

    def coeff_of(self, name: str, power: int) -> MultiPoly:
        """Coefficient of name**power, as a polynomial in the other variables."""
        s = _SHIFTS[VAR_INDEX[name]]
        out = {}
        for key, c in self.prim.items():
            if key >> s & _SLOT_MASK == power:
                out[key - (power << s)] = c
        return _reduce(out, self.cont)

    def as_univariate(self, name: str) -> dict[int, MultiPoly]:
        """View as a univariate polynomial in `name` with MultiPoly coefficients."""
        s = _SHIFTS[VAR_INDEX[name]]
        buckets: dict[int, dict] = {}
        for key, c in self.prim.items():
            d = key >> s & _SLOT_MASK
            buckets.setdefault(d, {})[key - (d << s)] = c
        return {d: _reduce(t, self.cont) for d, t in buckets.items()}

    def dense_coeffs(self, name: str) -> list[Fraction]:
        """Dense coefficient list (degree 0 upward) of a univariate polynomial.

        Raises NotUnivariate if any other variable appears.
        """
        cont = self.cont
        return [cont * c for c in self.dense_prim(name)]

    def dense_prim(self, name: str) -> list[int]:
        """dense_coeffs(name) over the content: coprime ints."""
        s = _SHIFTS[VAR_INDEX[name]]
        others = ~(_SLOT_MASK << s)
        for key in self.prim:
            if key & others:
                j = next(j for j, t in enumerate(_SHIFTS) if t != s and key >> t & _SLOT_MASK)
                raise NotUnivariate(f"expected a polynomial in {name} only, found {VARIABLES[j]}")
        out = [0] * ((max(self.prim, default=0) >> s) + 1)
        for key, c in self.prim.items():
            out[key >> s] = c
        return out

    def subs(self, name: str, value) -> MultiPoly:
        """Substitute a variable by an exact rational or another polynomial."""
        if isinstance(value, (int, Fraction)):
            value = MultiPoly.const(value)
        result, power, k = ZERO, ONE, 0
        for d, coeff in sorted(self.as_univariate(name).items()):
            while k < d:
                power, k = power * value, k + 1
            result = result + coeff * power
        return result

    def derivative(self, name: str) -> MultiPoly:
        s = _SHIFTS[VAR_INDEX[name]]
        out = {}
        for key, c in self.prim.items():
            d = key >> s & _SLOT_MASK
            if d:
                out[key - (1 << s)] = c * d
        return _reduce(out, self.cont)

    def evaluate(self, assignment: Mapping[str, Scalar]) -> Fraction:
        """Full numeric evaluation; every used variable must be assigned."""
        total = 0
        for key, c in self.prim.items():
            term = c
            for i, e in enumerate(_unpack(key)):
                if e:
                    term *= _as_fraction(assignment[VARIABLES[i]]) ** e
            total += term
        return self.cont * total

    # ----- leading terms, content, division -------------------------------

    def lex_leading(self) -> tuple[tuple, Fraction]:
        """(exponent, coefficient) of the lexicographically largest monomial."""
        if not self.prim:
            raise ValueError("zero polynomial has no leading term")
        key = max(self.prim)
        return _unpack(key), self.cont * self.prim[key]

    def content(self) -> Fraction:
        return self.cont

    def primitive(self) -> MultiPoly:
        """Divide out the rational content; leading (lex) coefficient made positive."""
        if not self.prim:
            return self
        if self.prim[max(self.prim)] > 0:
            return self if self.cont == 1 else _raw(self.prim, _UNIT)
        return _raw(_negated(self.prim), _UNIT)

    def render(self) -> str:
        """Human-readable form with terms in graded-lex order, e.g. '1 + 4*t + t^2'."""
        if not self.prim:
            return "0"
        terms = self.terms
        parts = []
        for exp in sorted(terms, key=lambda e: (sum(e), e)):
            coeff = terms[exp]
            factors = []
            for i, e in enumerate(exp):
                if e == 1:
                    factors.append(VARIABLES[i])
                elif e > 1:
                    factors.append(f"{VARIABLES[i]}^{e}")
            mag = abs(coeff)
            if not factors:
                body = str(mag)
            elif mag == 1:
                body = "*".join(factors)
            else:
                body = str(mag) + "*" + "*".join(factors)
            if not parts:
                parts.append(body if coeff > 0 else "-" + body)
            else:
                parts.append(("+ " if coeff > 0 else "- ") + body)
        return " ".join(parts)


def from_packed(terms: Mapping[int, Scalar]) -> MultiPoly:
    """The polynomial sum terms[key] x^key, over packed keys that the caller
    built from checked exponents; zero coefficients are dropped."""
    clean = {}
    for key, coeff in terms.items():
        c = _as_fraction(coeff)
        if c:
            clean[key] = c
    cont = _fraction_content(clean.values())
    return _raw({key: (c / cont).numerator for key, c in clean.items()}, cont)


def _raw(prim: dict, cont: Fraction) -> MultiPoly:
    """Wrap a pair that is already canonical; the dict is not copied."""
    r = MultiPoly.__new__(MultiPoly)
    r.prim = prim
    r.cont = cont
    return r


def _reduce(ints: dict, scale: Fraction) -> MultiPoly:
    """scale * sum ints[e] x^e, for nonzero ints and scale > 0."""
    if not ints:
        return ZERO
    g = math.gcd(*ints.values())
    if g == 1:
        return _raw(ints, scale)
    return _raw({exp: c // g for exp, c in ints.items()}, scale * g)


def _negated(prim: dict) -> dict:
    return {exp: -c for exp, c in prim.items()}


_UNIT = Fraction(1)
_ONE_PRIM = {0: 1}
_MINUS_ONE_PRIM = {0: -1}
ZERO = _raw({}, _UNIT)
ONE = _raw(_ONE_PRIM, _UNIT)


def exact_div(p: MultiPoly, d: MultiPoly) -> MultiPoly | None:
    """Quotient p/d when the division is exact, else None.

    Repeated elimination of the lex-leading term, on the primitive parts:
    by Gauss's lemma an exact quotient of primitive integer polynomials is
    itself a primitive integer polynomial, so every step divides integers
    and an inexact integer step already proves that d does not divide p.
    Terminates because the leading exponent strictly decreases in lex order.
    """
    if d.is_zero():
        raise ZeroDivisionError("exact_div by zero polynomial")
    if p.is_zero():
        return ZERO
    if d.is_constant():
        return p * (1 / d.constant_term())
    divisor = d.prim
    d_exp = max(divisor)
    d_lead = divisor[d_exp]
    quotient = {}
    rem = dict(p.prim)
    while rem:
        r_exp = max(rem)
        # With every guard bit set, no borrow leaves a slot, and a slot keeps
        # its guard bit exactly when d's exponent there is at most r's.
        diff = (r_exp | _GUARDS) - d_exp
        if diff & _GUARDS != _GUARDS:
            return None
        diff ^= _GUARDS
        c, r = divmod(rem[r_exp], d_lead)
        if r:
            return None
        quotient[diff] = c
        for exp, v in divisor.items():
            exp += diff
            if exp & _GUARDS:
                # An exact quotient q has deg(q) + deg(d) = deg(p) in each
                # variable, so no term of q*d reaches the limit p is under.
                return None
            s = rem.get(exp, 0) - c * v
            if s:
                rem[exp] = s
            else:
                del rem[exp]
    return _raw(quotient, p.cont / d.cont)


# ----- gcd ----------------------------------------------------------------
#
# One primitive remainder sequence (Collins, JACM 1967) in the first used
# variable, on dense lists of ints when no other variable is used and of
# MultiPoly coefficients, whose contents recurse, otherwise.


def _last_remainder(a: list, b: list, split) -> list:
    """Last nonzero entry of the primitive remainder sequence of a and b,
    dense lists with content 1 (split(r) is r's content and r over it):
    their gcd up to a unit, or a constant when they are coprime."""
    if len(a) < len(b):
        a, b = b, a
    while len(b) > 1:
        r = dense_prem(a, b)
        if not r:
            break
        a, b = b, split(r)[1]
    return b


def _int_split(r: list[int]) -> tuple[int, list[int]]:
    g = math.gcd(*r)
    return g, r if g == 1 else [c // g for c in r]


def _poly_split(r: list[MultiPoly]) -> tuple[MultiPoly, list[MultiPoly]]:
    g = ZERO
    for c in r:
        g = poly_gcd(g, c)
        if g.is_one():
            return g, r
    return g, [exact_div(c, g) for c in r]


def poly_gcd(p: MultiPoly, q: MultiPoly) -> MultiPoly:
    """Primitive gcd with positive lex-leading coefficient (1 for coprime inputs)."""
    if p.is_zero():
        return q.primitive() if not q.is_zero() else ZERO
    if q.is_zero():
        return p.primitive()
    used = sorted(set(p.used_vars()) | set(q.used_vars()))
    if not used:
        return ONE
    name, s = VARIABLES[used[0]], _SHIFTS[used[0]]
    if len(used) == 1:
        g = _last_remainder(p.dense_prim(name), q.dense_prim(name), _int_split)
        if len(g) == 1:
            return ONE
        return _raw({d << s: c for d, c in enumerate(g) if c}, _UNIT).primitive()
    (ca, a), (cb, b) = (
        _poly_split([u.get(d, ZERO) for d in range(max(u) + 1)])
        for u in (p.as_univariate(name), q.as_univariate(name))
    )
    cont = poly_gcd(ca, cb)
    g = _last_remainder(a, b, _poly_split)
    if len(g) == 1:
        return cont
    terms = {key + (d << s): c.cont * x for d, c in enumerate(g) for key, x in c.prim.items()}
    return (cont * from_packed(terms)).primitive()


# ----- rational functions ---------------------------------------------------


class RatFunc:
    """Reduced quotient of MultiPoly values.

    Canonical form: gcd(num, den) divided out, then both scaled so the
    denominator's lex-leading coefficient is 1.  Polynomials stay MultiPoly
    wherever no denominator arises; one that meets a RatFunc embeds with
    denominator ONE, and a product of two such values takes no gcd.
    """

    __slots__ = ("num", "den")

    def __init__(self, num, den=None, _reduced=False):
        if not isinstance(num, MultiPoly):
            num = MultiPoly.const(num)
        if den is None:
            den = ONE
        elif not isinstance(den, MultiPoly):
            den = MultiPoly.const(den)
        if den.is_zero():
            raise ZeroDivisionError("rational function with zero denominator")
        if num.is_zero():
            self.num, self.den = ZERO, ONE
            return
        if den.is_one():
            self.num, self.den = num, den
            return
        if not _reduced:
            if den.is_constant():
                num = num * (1 / den.constant_term())
                den = ONE
            else:
                g = poly_gcd(num, den)
                if not g.is_one():
                    num = exact_div(num, g)
                    den = exact_div(den, g)
        if not den.is_one():
            _, lead = den.lex_leading()
            if lead != 1:
                inv = 1 / lead
                num = num * inv
                den = den * inv
        self.num, self.den = num, den

    # -- helpers

    @staticmethod
    def coerce(value) -> RatFunc:
        if isinstance(value, RatFunc):
            return value
        if isinstance(value, MultiPoly):
            return RatFunc(value)
        if isinstance(value, (int, Fraction)):
            return RatFunc(MultiPoly.const(value))
        raise TypeError(f"cannot interpret {type(value).__name__} as a rational function")

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def is_polynomial(self) -> bool:
        return self.den.is_one()

    def as_poly(self) -> MultiPoly:
        if not self.den.is_one():
            raise NonPolynomialResult(
                f"denominator {self.den.render()} did not clear"
            )
        return self.num

    # -- arithmetic

    def __add__(self, other):
        try:
            o = RatFunc.coerce(other)
        except TypeError:
            return NotImplemented
        return RatFunc(self.num * o.den + o.num * self.den, self.den * o.den)

    __radd__ = __add__

    def __neg__(self):
        r = RatFunc.__new__(RatFunc)
        r.num, r.den = -self.num, self.den
        return r

    def __sub__(self, other):
        try:
            o = RatFunc.coerce(other)
        except TypeError:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        return (-self).__add__(other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            # A nonzero scalar keeps the quotient reduced and the denominator.
            if not other or self.num.is_zero():
                return RF_ZERO
            r = RatFunc.__new__(RatFunc)
            r.num, r.den = self.num * other, self.den
            return r
        try:
            o = RatFunc.coerce(other)
        except TypeError:
            return NotImplemented
        if self.num.is_zero() or o.num.is_zero():
            return RF_ZERO
        if self.den.is_one() and o.den.is_one():
            r = RatFunc.__new__(RatFunc)
            r.num, r.den = self.num * o.num, ONE
            return r
        # cross-reduce before multiplying to keep operands small
        g1 = poly_gcd(self.num, o.den)
        g2 = poly_gcd(o.num, self.den)
        n1 = self.num if g1.is_one() else exact_div(self.num, g1)
        d2 = o.den if g1.is_one() else exact_div(o.den, g1)
        n2 = o.num if g2.is_one() else exact_div(o.num, g2)
        d1 = self.den if g2.is_one() else exact_div(self.den, g2)
        return RatFunc(n1 * n2, d1 * d2, _reduced=True)

    __rmul__ = __mul__

    def __truediv__(self, other):
        try:
            o = RatFunc.coerce(other)
        except TypeError:
            return NotImplemented
        if o.num.is_zero():
            raise ZeroDivisionError("division by zero rational function")
        inv = RatFunc.__new__(RatFunc)
        inv.num, inv.den = o.den, o.num
        return self * inv

    def __rtruediv__(self, other):
        try:
            o = RatFunc.coerce(other)
        except TypeError:
            return NotImplemented
        return o / self

    def __pow__(self, n: int):
        if n < 0:
            base = RatFunc(self.den, self.num)
            n = -n
        else:
            base = self
        return RatFunc(base.num ** n, base.den ** n, _reduced=True)

    def __eq__(self, other):
        try:
            o = RatFunc.coerce(other)
        except TypeError:
            return NotImplemented
        return self.num == o.num and self.den == o.den

    def __hash__(self):
        # A polynomial equals its numerator, so it must hash like one.
        if self.den.is_one():
            return hash(self.num)
        return hash((self.num, self.den))

    def __bool__(self):
        return not self.num.is_zero()

    def subs(self, name: str, value) -> RatFunc:
        return RatFunc(self.num.subs(name, value), self.den.subs(name, value))

    def render(self) -> str:
        if self.den.is_one():
            return self.num.render()
        return f"({self.num.render()}) / ({self.den.render()})"

    def __repr__(self):
        return f"RatFunc({self.render()})"


RF_ZERO = RatFunc(ZERO)
