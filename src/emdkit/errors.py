"""Exception hierarchy shared across the package.

Everything raised here derives from :class:`EmdError`, so callers can catch a
single type at the boundary.  Where a builtin exception is the natural fit,
the subclass inherits it as well, so generic ``except ValueError`` handling
keeps working.  ``check_integer`` is the one check of an integer argument.
"""

from __future__ import annotations

import operator

__all__ = [
    "EmdError",
    "LengthTooShort",
    "NegativeMass",
    "SumNotOne",
    "DimensionMismatch",
    "IndexOutOfRange",
    "DomainError",
    "InvalidNumber",
    "MarginalMismatch",
    "BudgetExceeded",
    "ThresholdExceeded",
    "Infeasible",
    "Unbounded",
    "ParseError",
    "ValidationError",
    "InvariantViolation",
]


class EmdError(Exception):
    """Base class for all errors raised by emdkit."""


class LengthTooShort(EmdError, ValueError):
    """A distribution needs at least two sites."""


class NegativeMass(EmdError, ValueError):
    """A distribution entry is negative."""


class SumNotOne(EmdError, ValueError):
    """Masses do not sum to one (beyond tolerance on the float backend)."""


class DimensionMismatch(EmdError, ValueError):
    """Operands live on different ground spaces, or a tuple has d < 2."""


class IndexOutOfRange(EmdError, IndexError):
    """A 1-based index fell outside its documented range."""


class DomainError(EmdError, ValueError):
    """An argument lies outside its documented domain."""


class InvalidNumber(DomainError):
    """A value is a NaN, an infinity, or a bool posing as a number."""


class MarginalMismatch(EmdError, ValueError):
    """A transport plan does not reproduce the tuple's marginals."""


class BudgetExceeded(EmdError, RuntimeError):
    """An exhaustive check or oracle would exceed its configured budget."""


class ThresholdExceeded(EmdError, RuntimeError):
    """The exact integration path was refused; use the quadrature path."""


class Infeasible(EmdError, RuntimeError):
    """The linear program has no feasible point."""


class Unbounded(EmdError, RuntimeError):
    """The linear program is unbounded below."""


class ParseError(EmdError, ValueError):
    """An input document could not be parsed."""


class ValidationError(EmdError, ValueError):
    """A parsed document failed validation; the message names the row."""


class InvariantViolation(EmdError, RuntimeError):
    """An internal cross-check failed.  Indicates a bug, not bad input."""


def check_integer(name: str, value: object) -> int:
    """``value`` as an int; a bool or a non-integer raises :class:`DomainError`."""
    if not isinstance(value, bool):
        try:
            return operator.index(value)
        except TypeError:
            pass
    raise DomainError(f"{name} must be an integer, got {value!r}")
