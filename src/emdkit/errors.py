"""Exception hierarchy shared across the package.

Everything raised here derives from :class:`EmdError`, so callers can catch a
single type at the boundary.  Where a builtin exception is the natural fit,
the subclass inherits it as well, so generic ``except ValueError`` handling
keeps working.  ``check_integer`` is the one check of an integer argument,
and :class:`Frozen` the immutable-record base of every value type.
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


def _key(fields: tuple[str, ...]):
    """The function from a record to the tuple of its field values."""
    get = operator.attrgetter(*fields)
    if len(fields) == 1:  # a one-name attrgetter returns the bare value
        return lambda record: (get(record),)
    return get


class Frozen:
    """Base of the immutable value types: a record of the class's own annotated fields.

    The fields are the names annotated in the subclass body, in order, and a
    class attribute of the same name is that field's default.  ``__init__``
    takes them by position or keyword, then runs ``__post_init__``; equality,
    hashing and ``repr`` read the field values alone, as a frozen dataclass
    does.  Setting or deleting an attribute raises ``AttributeError``; code
    that must store a value during construction uses ``object.__setattr__``.
    """

    _fields: tuple[str, ...] = ()
    _required: tuple[str, ...] = ()
    __match_args__: tuple[str, ...] = ()

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        fields = tuple(cls.__dict__.get("__annotations__", ()))
        cls._fields = cls.__match_args__ = fields
        cls._required = tuple(name for name in fields if name not in cls.__dict__)
        cls._key = staticmethod(_key(fields))

    def __init__(self, *args: object, **kwargs: object) -> None:
        if kwargs or len(args) != len(self._fields):
            self._bind(args, kwargs)
        else:
            self.__dict__.update(zip(self._fields, args))
        self.__post_init__()

    def _bind(self, args: tuple, kwargs: dict) -> None:
        """Set the fields from ``args`` and ``kwargs``; one left out keeps its default."""
        name, fields = type(self).__qualname__, self._fields
        if len(args) > len(fields):
            raise TypeError(f"{name}() takes {len(fields)} arguments, got {len(args)}")
        values = dict(zip(fields, args))
        for key in kwargs:
            if key in values:
                raise TypeError(f"{name}() got multiple values for argument {key!r}")
            if key not in fields:
                raise TypeError(f"{name}() got an unexpected keyword argument {key!r}")
        values.update(kwargs)
        missing = [field for field in self._required if field not in values]
        if missing:
            raise TypeError(f"{name}() missing arguments: {', '.join(missing)}")
        self.__dict__.update(values)

    def __post_init__(self) -> None:
        """Validate or normalize the fields once they are set; a no-op here."""

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to {name!r}: {type(self).__qualname__} is immutable")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete {name!r}: {type(self).__qualname__} is immutable")

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key(self) == self._key(other)

    def __hash__(self) -> int:
        return hash(self._key(self))

    def __repr__(self) -> str:
        fields = ", ".join(f"{field}={getattr(self, field)!r}" for field in self._fields)
        return f"{type(self).__qualname__}({fields})"
