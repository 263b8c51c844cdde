"""Exception types shared across the package."""

from __future__ import annotations


class HooklabError(Exception):
    """Base class for all package-specific failures."""


class DivisionByNonUnit(HooklabError):
    """Series division by a scalar or constant term with no inverse among the coefficients."""


class BadConstantTerm(HooklabError):
    """Series exp/log called with the wrong constant term (exp needs 0, log needs 1)."""


class NotUnivariate(HooklabError):
    """A polynomial involved more than the single allowed variable."""


class NonPolynomialResult(HooklabError):
    """A computation that must produce a polynomial left a nontrivial denominator."""


class NotSquare(HooklabError):
    """A matrix argument was not square."""


class VariableOutOfScope(HooklabError):
    """A polynomial used variables outside the block an operation allows."""


class BudgetExceeded(HooklabError):
    """An enumeration or computation exceeded its configured budget."""


class UnknownCheck(HooklabError):
    """No check with the requested id exists in the registry."""


class ExponentOverflow(HooklabError):
    """A monomial exponent reached multipoly.EXP_LIMIT, the bound of a packed exponent slot."""
