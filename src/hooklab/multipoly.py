"""Exact sparse multivariate polynomials and reduced rational functions.

Every value in this package is an exact rational; nothing is ever rounded.
A polynomial is stored as cont * prim: ``prim`` maps exponent vectors to
nonzero ints whose gcd is 1, and ``cont`` is a positive rational, an int
when it is integral and a Fraction with denominator > 1 otherwise (the zero
polynomial is ({}, 1)).  That pair is unique for each polynomial, so ``==``
is a data comparison.  The views (``terms``, ``constant_term()``,
``as_fraction()``, ``content()``, ``lex_leading()``, ``dense_coeffs()`` and
``evaluate()``) return Fractions all the same, so a caller's ``/`` stays
exact.  By Gauss's lemma the product of two primitive polynomials is
primitive, so a product multiplies ints and contents and never takes a
gcd, and a scalar multiple only rescales the content.  The
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

A polynomial is always a MultiPoly.  The quotient p / q of two MultiPoly
values is taken in lowest terms: the gcd of p and q is divided out, and
what is left is the MultiPoly p/q when q divides p, otherwise a RatFunc
whose denominator is not constant and has lexicographically leading
coefficient 1.  Every RatFunc operation returns through the same
normalisation, so a result that reduces to a polynomial comes back as a
MultiPoly.  Equal values then have equal (content, primitive) pairs, so
``==`` is a data comparison, and a RatFunc never equals a polynomial.
A scalar over a MultiPoly, such as 1 / p, is a quotient too; RatFunc(p, q)
is no public constructor and raises TypeError.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Mapping, Sequence, Union

from .errors import ExponentOverflow, NotUnivariate

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
    # int first: a miss on Fraction goes through its slow ABC check.
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, Fraction):
        return value
    raise TypeError(f"expected an exact rational, got {type(value).__name__}")


def _norm(c: Scalar) -> Scalar:
    """c in the form every content is kept in: an int when c is integral."""
    return c.numerator if c.denominator == 1 else c


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


def dense_linear_product(coeffs: list[int], r: int) -> list[int]:
    """(t + r) times the polynomial with integer coefficients coeffs, both
    listed from degree 0 upward."""
    return [r * c + lower for c, lower in zip(coeffs + [0], [0] + coeffs)]


class MultiPoly:
    """Sparse polynomial over Q in the fixed variable set, kept as
    cont * prim: a positive rational (an int when integral, else a Fraction)
    times a primitive integer term map.  Every view returns Fractions."""

    __slots__ = ("prim", "cont")

    def __init__(self, terms: Mapping[tuple, Scalar] | None = None):
        p = from_packed({_pack(exp): c for exp, c in (terms or {}).items()})
        self.prim, self.cont = p.prim, p.cont

    # ----- constructors -------------------------------------------------

    @staticmethod
    def const(value) -> MultiPoly:
        c = value if type(value) is int else _norm(_as_fraction(value))
        if not c:
            return ZERO
        if c > 0:
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
        return {_unpack(key): _as_fraction(cont * c) for key, c in self.prim.items()}

    def is_zero(self) -> bool:
        return not self.prim

    def is_one(self) -> bool:
        return self.cont == 1 and self.prim == _ONE_PRIM

    def is_constant(self) -> bool:
        return not self.prim or (len(self.prim) == 1 and 0 in self.prim)

    def constant_term(self) -> Fraction:
        return _as_fraction(self.cont * self.prim.get(0, 0))

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
        return _reduce(out, Fraction(gn, gd) if gd > 1 else gn)

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
        # MultiPoly first: a miss on Fraction goes through its slow ABC check.
        if not isinstance(other, MultiPoly):
            if not isinstance(other, (int, Fraction)):
                return NotImplemented
            # A scalar only rescales the content (and flips signs if negative).
            if not other or not self.prim:
                return ZERO
            if other > 0:
                return _raw(self.prim, _norm(self.cont * other))
            return _raw(_negated(self.prim), _norm(self.cont * -other))
        a, b = self.prim, other.prim
        if not a or not b:
            return ZERO
        ca, cb = self.cont, other.cont
        cont = cb if ca == 1 else ca if cb == 1 else _norm(ca * cb)
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
        if n == 0:
            return ONE  # not the monomial branch: Fraction(1, 2) ** 0 is Fraction(1)
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
        """The quotient by an exact scalar or a MultiPoly, in lowest terms: a
        MultiPoly when the divisor divides self, otherwise a RatFunc."""
        d = self._coerce(other)
        if d is None:
            return NotImplemented
        return _quotient(self, d)

    def __rtruediv__(self, other):
        d = self._coerce(other)
        if d is None:
            return NotImplemented
        return _quotient(d, self)

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
        return [_as_fraction(cont * c) for c in self.dense_prim(name)]

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
        return _as_fraction(self.cont * total)

    # ----- leading terms, content, division -------------------------------

    def lex_leading(self) -> tuple[tuple, Fraction]:
        """(exponent, coefficient) of the lexicographically largest monomial."""
        if not self.prim:
            raise ValueError("zero polynomial has no leading term")
        key = max(self.prim)
        return _unpack(key), _as_fraction(self.cont * self.prim[key])

    def content(self) -> Fraction:
        return _as_fraction(self.cont)

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
    for key, c in terms.items():
        if type(c) is not int:
            c = _norm(_as_fraction(c))
        if c:
            clean[key] = c
    den = math.lcm(*(c.denominator for c in clean.values()))
    if den == 1:
        return _reduce(clean, 1)
    return _reduce(
        {key: c.numerator * (den // c.denominator) for key, c in clean.items()},
        Fraction(1, den),
    )


def _raw(prim: dict, cont: Scalar) -> MultiPoly:
    """Wrap a pair that is already canonical; the dict is not copied."""
    r = MultiPoly.__new__(MultiPoly)
    r.prim = prim
    r.cont = cont
    return r


def _reduce(ints: dict, scale: Scalar) -> MultiPoly:
    """scale * sum ints[e] x^e, for nonzero ints and scale > 0 in the form
    _norm gives."""
    if not ints:
        return ZERO
    g = math.gcd(*ints.values())
    if g == 1:
        return _raw(ints, scale)
    return _raw({exp: c // g for exp, c in ints.items()}, _norm(scale * g))


def _negated(prim: dict) -> dict:
    return {exp: -c for exp, c in prim.items()}


_UNIT = 1
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
    return _raw(quotient, _norm(Fraction(p.cont, d.cont)))


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

_CANONICAL = object()  # passed by the builders of a canonical RatFunc


class RatFunc:
    """Quotient num/den of MultiPoly values in lowest terms, built by p / q.

    Canonical form: gcd(num, den) is 1, and den is not constant and has
    lex-leading coefficient 1.  A quotient that reduces to a polynomial is a
    MultiPoly instead, so a RatFunc is never zero and never equals a
    polynomial or a scalar.
    """

    __slots__ = ("num", "den")

    def __init__(self, num: MultiPoly, den: MultiPoly, token=None):
        # Only _coprime_quotient and the sign and scalar paths below build
        # one, always from a canonical pair; a pair from anywhere else could
        # be unreduced and then compare and hash apart from its equal value.
        if token is not _CANONICAL:
            raise TypeError("RatFunc(num, den) is private: build a quotient with num / den")
        self.num, self.den = num, den

    def is_zero(self) -> bool:
        return False

    # -- arithmetic

    def __add__(self, other):
        o = _parts(other)
        if o is None:
            return NotImplemented
        num, den = o
        return _quotient(self.num * den + num * self.den, self.den * den)

    __radd__ = __add__

    def __neg__(self):
        return RatFunc(-self.num, self.den, _CANONICAL)

    def __sub__(self, other):
        if _parts(other) is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self).__add__(other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            # A nonzero scalar keeps the quotient reduced and the denominator.
            return RatFunc(self.num * other, self.den, _CANONICAL) if other else ZERO
        o = _parts(other)
        if o is None:
            return NotImplemented
        return _product(self.num, self.den, *o)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = _parts(other)
        if o is None:
            return NotImplemented
        num, den = o
        if num.is_zero():
            raise ZeroDivisionError("division of a rational function by zero")
        return _product(self.num, self.den, den, num)

    def __rtruediv__(self, other):
        o = _parts(other)
        if o is None:
            return NotImplemented
        return _product(*o, self.den, self.num)

    def __pow__(self, n: int):
        if n < 0:
            return _coprime_quotient(self.den ** -n, self.num ** -n)
        return _coprime_quotient(self.num ** n, self.den ** n)

    def __eq__(self, other):
        if not isinstance(other, RatFunc):
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self):
        return hash((self.num, self.den))

    def subs(self, name: str, value) -> MultiPoly | RatFunc:
        return self.num.subs(name, value) / self.den.subs(name, value)

    def render(self) -> str:
        return f"({self.num.render()}) / ({self.den.render()})"

    def __repr__(self):
        return f"RatFunc({self.render()})"


def _parts(value) -> tuple[MultiPoly, MultiPoly] | None:
    """(numerator, denominator) of a RatFunc, MultiPoly or exact scalar."""
    if isinstance(value, RatFunc):
        return value.num, value.den
    if isinstance(value, MultiPoly):
        return value, ONE
    if isinstance(value, (int, Fraction)):
        return MultiPoly.const(value), ONE
    return None


def _quotient(num: MultiPoly, den: MultiPoly) -> MultiPoly | RatFunc:
    """num/den in lowest terms: their gcd divided out, then _coprime_quotient."""
    if den.is_zero():
        raise ZeroDivisionError("division by the zero polynomial")
    if num.is_zero():
        return ZERO
    if not den.is_constant():
        g = poly_gcd(num, den)
        if not g.is_one():
            num, den = exact_div(num, g), exact_div(den, g)
    return _coprime_quotient(num, den)


def _coprime_quotient(num: MultiPoly, den: MultiPoly) -> MultiPoly | RatFunc:
    """num/den for coprime num and den != 0: both scaled so that den has
    lex-leading coefficient 1, then num alone if den is the constant 1."""
    _, lead = den.lex_leading()
    if lead != 1:
        inv = 1 / lead
        num, den = num * inv, den * inv
    return num if den.is_one() else RatFunc(num, den, _CANONICAL)


def _product(n1: MultiPoly, d1: MultiPoly, n2: MultiPoly, d2: MultiPoly) -> MultiPoly | RatFunc:
    """(n1/d1) * (n2/d2) for coprime pairs.  Each numerator is reduced
    against the other denominator first, which keeps the operands small and
    leaves a coprime product, so the product itself takes no gcd."""
    if n1.is_zero() or n2.is_zero():
        return ZERO
    g1 = poly_gcd(n1, d2)
    g2 = poly_gcd(n2, d1)
    if not g1.is_one():
        n1, d2 = exact_div(n1, g1), exact_div(d2, g1)
    if not g2.is_one():
        n2, d1 = exact_div(n2, g2), exact_div(d1, g2)
    return _coprime_quotient(n1 * n2, d1 * d2)
