"""A small dense exact-rational LP solver (two-phase simplex, Bland's rule).

Solves  min c.x  subject to  A x = b,  x >= 0,  entirely over Fractions.
Bland's rule (smallest eligible index for both the entering and the leaving
variable) rules out cycling, and exact arithmetic makes degeneracy harmless,
so no tolerances appear anywhere.  Intended for desk-scale oracle work, not
production-size programs.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from .errors import Infeasible, Unbounded

__all__ = ["solve_min"]


def _pivot(tableau: list[list[Fraction]], basis: list[int], row: int, col: int) -> None:
    """Pivot in place, touching only the pivot row's nonzero columns."""
    pivot_row = tableau[row]
    inv = 1 / pivot_row[col]
    nonzero = [j for j, v in enumerate(pivot_row) if v]
    for j in nonzero:
        pivot_row[j] *= inv
    for r, other in enumerate(tableau):
        factor = other[col]
        if factor and r != row:
            for j in nonzero:
                other[j] -= factor * pivot_row[j]
    basis[row] = col


def _optimize(tableau: list[list[Fraction]], basis: list[int], cost: Sequence) -> Fraction:
    """Minimize ``cost`` over the tableau in place; return minus the optimum.

    Installs ``cost`` reduced against the current basis as the objective row,
    then pivots by Bland's rule, letting only the first ``len(cost)`` columns
    enter the basis.  Every tableau row has ``len(cost) + 1`` columns, the
    last being the right-hand side.
    """
    obj = [Fraction(v) for v in cost] + [Fraction(0)]
    for row, var in zip(tableau, basis):
        factor = obj[var]
        if factor:
            for j, v in enumerate(row):
                if v:
                    obj[j] -= factor * v
    m = len(tableau)
    tableau.append(obj)
    while True:
        col = next((j for j in range(len(cost)) if obj[j] < 0), None)
        if col is None:
            return tableau.pop()[-1]
        row = None
        best: Fraction | None = None
        for r in range(m):
            a = tableau[r][col]
            if a > 0:
                ratio = tableau[r][-1] / a
                if best is None or ratio < best or (ratio == best and basis[r] < basis[row]):
                    best = ratio
                    row = r
        if row is None:
            raise Unbounded("reduced cost negative with no blocking row")
        _pivot(tableau, basis, row, col)


def solve_min(
    a: Sequence[Sequence[Fraction | int]],
    b: Sequence[Fraction | int],
    c: Sequence[Fraction | int],
) -> tuple[Fraction, list[Fraction]]:
    """Return (optimal value, an optimal vertex) of min c.x, A x = b, x >= 0."""
    m = len(a)
    nv = len(c)
    # Tableau columns: nv structural, m artificial, rhs; a row with negative
    # rhs is negated.  Artificials form the starting basis.
    tableau: list[list[Fraction]] = []
    for r, row in enumerate(a):
        rhs = Fraction(b[r])
        sign = -1 if rhs < 0 else 1
        art = [Fraction(0)] * m
        art[r] = Fraction(1)
        tableau.append([sign * Fraction(v) for v in row] + art + [sign * rhs])
    basis = [nv + r for r in range(m)]

    if _optimize(tableau, basis, [0] * nv + [1] * m) != 0:
        raise Infeasible("equality constraints admit no nonnegative solution")

    # Drive leftover artificials out of the (degenerate) basis, dropping any
    # row that turns out to be a redundant constraint, then drop the
    # artificial columns: none may enter again.
    for r in range(m - 1, -1, -1):
        if basis[r] < nv:
            continue
        col = next((j for j in range(nv) if tableau[r][j] != 0), None)
        if col is None:
            del tableau[r]
            del basis[r]
        else:
            _pivot(tableau, basis, r, col)
    tableau = [row[:nv] + row[-1:] for row in tableau]

    _optimize(tableau, basis, c)

    solution = [Fraction(0)] * nv
    for r, var in enumerate(basis):
        solution[var] = tableau[r][-1]
    value = sum((Fraction(ci) * xi for ci, xi in zip(c, solution)), start=Fraction(0))
    return value, solution
