"""Points of the standard simplex and their cumulative views.

A point of the standard n-simplex is a vector of n+1 nonnegative masses
``(x_1, ..., x_{n+1})`` summing to one, read as a probability distribution on
the sites ``{1, ..., n+1}``.  Its cumulative view keeps the n partial sums
``X_j = x_1 + ... + x_j``; the final component ``X_{n+1} = 1`` is suppressed.

Two numeric backends coexist.  A value sequence is *exact* when every entry
is an ``int`` or a :class:`fractions.Fraction`; every correctness path in
this package runs on the exact backend, where all identities hold as exact
equalities.  Sequences containing floats use the float64 backend, reserved
for sampling and Monte Carlo work.

A :class:`Distribution` holds its validated masses and nothing else.  A
:class:`DistTuple` builds its :class:`Lattice` once, on first use: every
mass and partial sum as an integer over one common denominator, and the
tuple's sorted cumulative columns, which the transport and decomposition
kernels and the CLI read.  ``column`` and ``cumulative`` (which sum the
masses themselves) remain as the member-order reference definitions.

Indices in docstrings are 1-based (sites run 1..n+1, cumulative columns
1..n), matching the usual mathematical convention; storage is 0-based.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from itertools import accumulate
from math import isfinite, lcm, log10
from typing import Sequence, Union

from .errors import (
    DimensionMismatch,
    DomainError,
    Frozen,
    IndexOutOfRange,
    InvalidNumber,
    LengthTooShort,
    NegativeMass,
    SumNotOne,
    check_integer,
)

__all__ = [
    "Scalar",
    "Distribution",
    "DistTuple",
    "Lattice",
    "is_exact",
    "validate_distribution",
    "cumulative",
    "distribution_from_cumulative",
    "column",
]

#: A mass or coordinate: exact (int / Fraction) or float64.
Scalar = Union[int, Fraction, float]

#: Float-backend validation tolerance for "sums to one" on raw input.
FLOAT_SUM_TOL = 1e-12

# Looser guard applied after renormalization / float-path construction.
_FLOAT_GUARD = 1e-9

#: Longest numerator or denominator, in bits, that a message spells out in
#: full; int-to-str refuses integers beyond 4,300 digits.
_MESSAGE_BITS = 256


def is_exact(values: Sequence[Scalar]) -> bool:
    """True when no float appears, i.e. the exact rational backend applies."""
    return all(isinstance(v, (int, Fraction)) for v in values)


def _not_real(m: object) -> str | None:
    """Why ``m`` is not a finite real number, or None when it is one."""
    if isinstance(m, bool):
        return "is a bool, not a number"
    try:
        # Fraction by identity: isinstance against it, an ABC, is slow for a float.
        return None if type(m) is Fraction or isinstance(m, int) or isfinite(m) else "is not finite"
    except TypeError:
        return "is not a real number"
    except ValueError:  # a signalling Decimal NaN refuses the conversion to float
        return "is not finite"


def _check_mass(k: int, m: Scalar) -> None:
    """Reject anything but a finite, nonnegative real number as the mass at site k + 1."""
    if problem := _not_real(m):
        raise InvalidNumber(f"mass at site {k + 1} {problem}: {m!r}")
    if m < 0:
        raise NegativeMass(f"mass at site {k + 1} is negative: {m!r}")


def _sum_text(total: Union[int, Fraction]) -> str:
    """An exact sum for a message: in full when short, else to six digits."""
    from decimal import MAX_EMAX, MIN_EMIN, Context, Decimal, localcontext

    num, den = total.numerator, total.denominator
    bits = max(num.bit_length(), den.bit_length())
    if bits <= _MESSAGE_BITS:
        return str(total)
    with localcontext(Context(prec=6, Emax=MAX_EMAX, Emin=MIN_EMIN)):
        value = Decimal(num) / Decimal(den)
    return f"about {value} (numerator or denominator of about {int(bits * log10(2)) + 1} digits)"


class Distribution(Frozen):
    """A point of the standard n-simplex, stored as its n+1 masses."""

    mass: tuple[Scalar, ...]

    def __post_init__(self) -> None:
        if len(self.mass) < 2:
            raise LengthTooShort(
                f"a distribution needs at least 2 sites, got {len(self.mass)}"
            )
        for k, m in enumerate(self.mass):
            _check_mass(k, m)
        exact = is_exact(self.mass)
        if not exact:
            for k, m in enumerate(self.mass):
                if not isinstance(m, (float, int, Fraction)):
                    raise InvalidNumber(
                        f"mass at site {k + 1} is a {type(m).__name__}: a Distribution holds "
                        f"int, Fraction or float masses, and validate_distribution converts others"
                    )
        total = sum(self.mass)
        if exact:
            if total != 1:
                raise SumNotOne(f"exact masses sum to {_sum_text(total)}, not 1")
        elif abs(total - 1.0) > _FLOAT_GUARD:
            raise SumNotOne(f"float masses sum to {total!r}, not 1")

    @property
    def n(self) -> int:
        return len(self.mass) - 1

    @property
    def exact(self) -> bool:
        return is_exact(self.mass)


class Lattice(Frozen):
    """A tuple's masses and partial sums as integers over one denominator.

    ``scale`` is the lcm of every mass's denominator, or 1 when any member
    is float; ``mass[i]`` and ``partial[i]`` are member i's masses and
    partial sums times ``scale``.  At scale 1 they are the members' own
    values, unconverted, so float and mixed tuples do the same float
    operations as on the members themselves.
    """

    scale: int
    exact: bool
    mass: tuple[tuple[Scalar, ...], ...]
    partial: tuple[tuple[Scalar, ...], ...]

    def value(self, v: Scalar) -> Scalar:
        """A lattice value in the tuple's own terms: ``Fraction(v, scale)``."""
        return v if self.scale == 1 else Fraction(v, self.scale)

    def columns(self) -> list[list[Scalar]]:
        """The n cumulative columns, each sorted, in lattice units."""
        return [sorted(col) for col in zip(*self.partial)]


def _lattice(members: Sequence[Distribution]) -> Lattice:
    exact = all(is_exact(m.mass) for m in members)
    dens = {v.denominator for m in members for v in m.mass} if exact else {1}
    scale = lcm(*dens)
    if scale == 1:
        mass = tuple(m.mass for m in members)
    else:
        up = {den: scale // den for den in dens}
        mass = tuple(tuple(v.numerator * up[v.denominator] for v in m.mass) for m in members)
    return Lattice(scale, exact, mass, tuple(tuple(accumulate(row[:-1])) for row in mass))


class DistTuple(Frozen):
    """An ordered d-tuple of distributions on a common ground space.

    ``lattice`` is built on first use and kept; it takes no part in
    equality, hashing or ``repr``.
    """

    members: tuple[Distribution, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "members", tuple(self.members))
        if len(self.members) < 2:
            raise DimensionMismatch(f"a tuple needs d >= 2 members, got {len(self.members)}")
        for i, member in enumerate(self.members):
            if not isinstance(member, Distribution):
                raise DomainError(
                    f"member {i + 1} is a {type(member).__name__}, not a Distribution"
                )
            if member.n != self.n:  # member 1 passed the check above
                raise DimensionMismatch(
                    f"member {i + 1} has n = {member.n}, expected n = {self.n}"
                )

    @property
    def d(self) -> int:
        return len(self.members)

    @property
    def n(self) -> int:
        return self.members[0].n

    @cached_property
    def lattice(self) -> Lattice:
        return _lattice(self.members)

    @property
    def exact(self) -> bool:
        return self.lattice.exact


def validate_distribution(raw: Sequence[Scalar]) -> Distribution:
    """Validate a raw mass sequence and return a :class:`Distribution`.

    Exact input (ints / Fractions) must sum to one exactly.  Float input may
    deviate from one by at most ``FLOAT_SUM_TOL`` (1e-12, enough to absorb a
    round-trip through decimal text) and is then renormalized.  NaN,
    infinities and bools are refused with :class:`InvalidNumber`.
    """
    values = tuple(raw)
    if is_exact(values):
        return Distribution(values)  # checks length, masses and sum as below
    if len(values) < 2:
        raise LengthTooShort(f"a distribution needs at least 2 sites, got {len(values)}")
    for k, m in enumerate(values):
        _check_mass(k, m)  # before float(), which would turn a bool into a number
    floats = tuple(float(v) for v in values)
    total = sum(floats)
    if abs(total - 1.0) > FLOAT_SUM_TOL:
        raise SumNotOne(f"float masses sum to {total!r}; deviation exceeds {FLOAT_SUM_TOL}")
    if total != 1.0:
        floats = tuple(v / total for v in floats)
    return Distribution(floats)


def cumulative(x: Distribution) -> tuple[Scalar, ...]:
    """Partial sums ``X_j = x_1 + ... + x_j`` for j = 1..n."""
    return tuple(accumulate(x.mass[:-1]))


def distribution_from_cumulative(partial: Sequence[Scalar]) -> Distribution:
    """The distribution whose partial sums are ``partial``.

    Its masses are the differences of ``(0, *partial, 1)``, so a decreasing
    sequence, or one past 1, is refused as :class:`NegativeMass`.
    """
    bounds = (0, *partial, 1)
    return Distribution(tuple(b - a for a, b in zip(bounds, bounds[1:])))


def column(xs: DistTuple, j: int) -> tuple[Scalar, ...]:
    """The j-th cumulative column ``(X^1_j, ..., X^d_j)``, 1 <= j <= n."""
    j = check_integer("j", j)
    if not 1 <= j <= xs.n:
        raise IndexOutOfRange(f"column index {j} outside 1..{xs.n}")
    return tuple(sum(member.mass[:j]) for member in xs.members)

