"""The gap polynomial G(x; q) and the pairwise decomposition of the EMD.

Collect every gap between successive order statistics of every cumulative
column into a formal polynomial, exponents graded by Lee weight:

    G(x; q) = sum_{i=1}^{d-1} sum_{j=1}^{n}  (X_j^(i+1) - X_j^(i)) * q^wt(i).

Its derivatives at q = 1 grade how tightly the cumulative columns agree:

* G'(x; 1) is exactly the d-fold EMD of the tuple;
* G''(x; 1) is the obstruction in the Cayley-Menger-type identity

      (d - 1) * EMD(x) = G''(x; 1) + sum of all pairwise EMDs,

  the analogue of writing a simplex volume in terms of its edge lengths,
  except that here a correction term survives;
* the k-th derivative at 1 is nonnegative, and vanishes exactly when the
  middle order statistics agree in every column:
  X_j^(k) = ... = X_j^(d-k+1) for all j.

Since coefficients are nonnegative, once the k-th derivative vanishes so do
all higher ones, so EMD(x) >= (pairwise sum) / (d - 1) always, with equality
exactly when G''(x; 1) = 0 -- automatic for d <= 3, which is why a triple's
EMD is half its pairwise sum.
"""

from __future__ import annotations

from types import MappingProxyType
from typing import Mapping

from .cost import cost_deltas, lee_weight
from .errors import DomainError, Frozen, InvariantViolation, check_integer
from .simplex import DistTuple, Lattice, Scalar, is_exact

__all__ = [
    "GPolynomial",
    "CmReport",
    "g_polynomial",
    "g_derivative_at_one",
    "cm_decompose",
    "vanishing_order",
]

# Float-backend tolerance for zero tests and the decomposition identity.
_FLOAT_TOL = 1e-9


class GPolynomial(Frozen):
    """Gap polynomial of a tuple: coefficient per Lee weight 1..floor(d/2)."""

    d: int
    coeffs: Mapping[int, Scalar]

    def __post_init__(self) -> None:
        object.__setattr__(self, "coeffs", MappingProxyType(dict(self.coeffs)))
        check_integer("d", self.d)
        for w, c in self.coeffs.items():
            check_integer("Lee weight", w)
            if not 1 <= w <= self.d // 2:
                raise DomainError(f"Lee weight {w} outside 1..{self.d // 2}")
            if c < 0:
                raise InvariantViolation(f"gap coefficient at weight {w} is negative: {c!r}")

    @property
    def exact(self) -> bool:
        return is_exact(tuple(self.coeffs.values()))


class CmReport(Frozen):
    """The pairwise decomposition of a tuple's EMD.

    ``(d-1) * emd == obstruction + pairwise_sum`` holds exactly on the
    rational backend; ``equality_holds`` reports the obstruction-free case,
    cross-checked against the middle-order-statistic criterion.  Float-backend
    reports set ``approximate`` and use a 1e-9 tolerance.  ``g`` is the gap
    polynomial whose derivatives at q = 1 give ``emd`` and ``obstruction``.
    """

    emd: Scalar
    pairwise_sum: Scalar
    obstruction: Scalar
    pairwise: Mapping[tuple[int, int], Scalar]
    equality_holds: bool
    approximate: bool
    g: GPolynomial

    def __post_init__(self) -> None:
        object.__setattr__(self, "pairwise", MappingProxyType(dict(self.pairwise)))


def g_polynomial(xs: DistTuple) -> GPolynomial:
    """Accumulate every column's order-statistic gaps by Lee weight.

    On float64 copies of rational masses, G'(x; 1) and G''(x; 1) stay within
    4 * d**2 * n * 2**-52 of their exact values.
    """
    lattice = xs.lattice
    return _gap_polynomial(lattice.columns(), xs.d, lattice)


def _gap_polynomial(columns: list[list[Scalar]], d: int, lattice: Lattice) -> GPolynomial:
    """The gap polynomial of the lattice's columns, with coefficients over D."""
    coeffs: dict[int, Scalar] = {w: 0 if lattice.exact else 0.0 for w in range(1, d // 2 + 1)}
    weights = [lee_weight(i, d) for i in range(1, d)]
    for col in columns:
        for i, w in enumerate(weights, start=1):
            coeffs[w] += col[i] - col[i - 1]
    return GPolynomial(d=d, coeffs={w: lattice.value(c) for w, c in coeffs.items()})


def g_derivative_at_one(g: GPolynomial, k: int) -> Scalar:
    """k-th derivative of the gap polynomial at q = 1 (falling factorials)."""
    k = check_integer("k", k)
    if k < 1:
        raise DomainError(f"derivative order must be >= 1, got {k}")
    total: Scalar = 0
    for w, c in g.coeffs.items():
        factor = 1
        for step in range(k):
            factor *= w - step
        if factor:
            total += c * factor
    return total


def cm_decompose(xs: DistTuple) -> CmReport:
    """Decompose the d-fold EMD into pairwise EMDs plus the obstruction.

    The sorted lattice columns are built once and read three ways: the EMD
    through the column form, the gap polynomial, and the
    middle-order-statistic scan; the pairwise EMDs read the lattice's
    partial sums.  The EMD is verified against both the first-derivative
    identity and the decomposition identity (exactly on the rational
    backend); a failure of either is a bug and raises
    :class:`InvariantViolation`.
    """
    d = xs.d
    lattice = xs.lattice
    tol = 0 if lattice.exact else _FLOAT_TOL

    columns = lattice.columns()
    g = _gap_polynomial(columns, d, lattice)
    emd_value = lattice.value(sum(cost_deltas(col) for col in columns))
    first = g_derivative_at_one(g, 1)
    if abs(first - emd_value) > tol:
        raise InvariantViolation(
            f"G'(x;1) = {first!r} disagrees with the column form {emd_value!r}"
        )
    obstruction = g_derivative_at_one(g, 2)

    partials = lattice.partial
    pairwise: dict[tuple[int, int], Scalar] = {}
    for k in range(1, d + 1):
        for l in range(k + 1, d + 1):
            pairwise[(k, l)] = lattice.value(
                sum(abs(a - b) for a, b in zip(partials[k - 1], partials[l - 1]))
            )
    pairwise_sum = sum(pairwise.values())

    if abs((d - 1) * emd_value - (obstruction + pairwise_sum)) > tol:
        raise InvariantViolation(
            f"(d-1)*EMD = {(d - 1) * emd_value!r} != obstruction + pairwise sum "
            f"= {obstruction + pairwise_sum!r}"
        )

    obstruction_free = abs(obstruction) <= tol
    # Independent criterion: X_j^(2) = ... = X_j^(d-1) in every column j
    # (scale-free, so read on the lattice).
    middles_equal = all(col[d - 2] - col[1] <= tol for col in columns)
    if obstruction_free != middles_equal:
        raise InvariantViolation(
            f"equality criteria disagree: obstruction {obstruction!r} vs "
            f"middle-order-statistic scan {middles_equal}"
        )

    return CmReport(
        emd=emd_value,
        pairwise_sum=pairwise_sum,
        obstruction=obstruction,
        pairwise=pairwise,
        equality_holds=obstruction_free,
        approximate=not lattice.exact,
        g=g,
    )


def vanishing_order(xs: DistTuple) -> int:
    """One plus the number of vanishing derivative orders of G at q = 1.

    Orders run 1..ceil(d/2).  Nonnegative coefficients make vanishing
    monotone in the order, so the count pins down which suffix of the
    derivatives is zero: 1 means even G' > 0 ... ceil(d/2) + 1 means all
    derivatives vanish, i.e. all members are equal.
    """
    g = g_polynomial(xs)
    tol = 0 if g.exact else _FLOAT_TOL
    top = (xs.d + 1) // 2
    vanished = sum(
        1 for k in range(1, top + 1) if abs(g_derivative_at_one(g, k)) <= tol
    )
    return 1 + vanished
