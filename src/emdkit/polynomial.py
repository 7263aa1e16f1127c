"""Dense univariate polynomials over exact rationals.

Coefficients are ints or :class:`fractions.Fraction`; floats are rejected so
that every identity built on these polynomials stays exact.  ``coeffs[k]`` is
the coefficient of ``z**k``; trailing zeros are trimmed and the zero
polynomial has an empty coefficient tuple (degree -1 by convention).
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Union

from .errors import Frozen

__all__ = ["RationalPolynomial"]

_Exact = Union[int, Fraction]


def _trim(coeffs: tuple[_Exact, ...]) -> tuple[_Exact, ...]:
    k = len(coeffs)
    while k and coeffs[k - 1] == 0:
        k -= 1
    return coeffs[:k]


class RationalPolynomial(Frozen):
    coeffs: tuple[_Exact, ...]

    def __init__(self, coeffs: Iterable[_Exact] = ()) -> None:
        values = tuple(coeffs)
        for c in values:
            if not isinstance(c, (int, Fraction)):
                raise TypeError(f"exact coefficient required, got {type(c).__name__}")
        object.__setattr__(self, "coeffs", _trim(values))

    # -- basic queries ----------------------------------------------------

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    # -- ring operations --------------------------------------------------

    def __add__(self, other: "RationalPolynomial") -> "RationalPolynomial":
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for k, c in enumerate(b):
            out[k] += c
        return RationalPolynomial(out)

    def __neg__(self) -> "RationalPolynomial":
        return RationalPolynomial(tuple(-c for c in self.coeffs))

    def __sub__(self, other: "RationalPolynomial") -> "RationalPolynomial":
        return self + (-other)

    def __mul__(self, other: Union["RationalPolynomial", _Exact]) -> "RationalPolynomial":
        if isinstance(other, (int, Fraction)):
            return RationalPolynomial(tuple(other * c for c in self.coeffs))
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return RationalPolynomial()
        out: list[_Exact] = [0] * (len(a) + len(b) - 1)
        for i, ca in enumerate(a):
            if ca == 0:
                continue
            for j, cb in enumerate(b):
                out[i + j] += ca * cb
        return RationalPolynomial(out)

    __rmul__ = __mul__

    # -- calculus ----------------------------------------------------------

    def derivative(self) -> "RationalPolynomial":
        return RationalPolynomial(tuple(k * c for k, c in enumerate(self.coeffs) if k))

    def integral_01(self) -> Fraction:
        """Exact definite integral over [0, 1]."""
        return sum(
            (Fraction(c) / (k + 1) for k, c in enumerate(self.coeffs)),
            start=Fraction(0),
        )

    # -- evaluation and composition ----------------------------------------

    def evaluate(self, z):
        """Horner evaluation; exact for exact ``z``, float for float ``z``."""
        acc = 0 * z
        for c in reversed(self.coeffs):
            acc = acc * z + c
        return acc

    def compose(self, inner: "RationalPolynomial") -> "RationalPolynomial":
        """The polynomial ``self(inner(z))`` (Horner in polynomial arithmetic)."""
        acc = RationalPolynomial()
        for c in reversed(self.coeffs):
            acc = acc * inner + RationalPolynomial((c,))
        return acc
