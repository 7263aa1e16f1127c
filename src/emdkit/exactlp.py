"""A small dense exact LP solver (two-phase simplex, Bland's rule) on integers.

Solves  min c.x  subject to  A x = b,  x >= 0  exactly.  Bland's rule
(smallest eligible index for both the entering and the leaving variable)
rules out cycling, and exact arithmetic makes degeneracy harmless, so no
tolerances appear anywhere.  Intended for desk-scale oracle work, not
production-size programs.

The tableau holds integers over one running denominator ``det``, the last
pivot, which starts at 1 (Bareiss, "Sylvester's identity and multistep
integer-preserving Gaussian elimination", Math. Comp. 22, 1968).  A pivot on
``(r, c)`` with ``p = T[r][c]`` negates row r first when p < 0 (only when
artificials are driven out), turns every other row i, the objective row
included, into ``(p*T[i][j] - T[i][c]*T[r][j]) // det`` -- an exact division
by Sylvester's identity -- and sets ``det = p``.  Row r stays as it is.

Inputs become integers by scaling columns: each structural column by the lcm
of its denominators, the right-hand side by the lcm of its denominators, and
the costs of the scaled columns by the lcm of theirs.  A positive scale on a
column leaves every reduced-cost sign and every ratio comparison unchanged,
and the artificial columns keep the identity start, so the pivot sequence,
the value and the vertex are those of the same simplex over fractions.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import Sequence

from .errors import Infeasible, Unbounded

__all__ = ["solve_min"]


def _rationals(values: Sequence) -> list:
    return [v if isinstance(v, (int, Fraction)) else Fraction(v) for v in values]


def _pivot(tableau: list[list[int]], basis: list[int], row: int, col: int, det: int) -> int:
    """Pivot in place on (row, col); return the new denominator."""
    pivot_row = tableau[row]
    p = pivot_row[col]
    if p < 0:
        pivot_row = tableau[row] = [-v for v in pivot_row]
        p = -p
    for r, other in enumerate(tableau):
        if r == row:
            continue
        factor = other[col]
        if factor:
            tableau[r] = [(p * v - factor * w) // det for v, w in zip(other, pivot_row)]
        elif p != det:
            tableau[r] = [p * v // det for v in other]
    basis[row] = col
    return p


def _optimize(
    tableau: list[list[int]], basis: list[int], cost: Sequence[int], det: int
) -> tuple[int, int]:
    """Minimize integer ``cost`` over the tableau in place.

    Installs ``det * cost`` reduced against the current basis as the
    objective row, then pivots by Bland's rule, letting only the first
    ``len(cost)`` columns enter the basis.  Every tableau row has
    ``len(cost) + 1`` columns, the last being the right-hand side.  Returns
    minus ``det`` times the optimum, and the final ``det``.
    """
    obj = [det * v for v in cost] + [0]
    for row, var in zip(tableau, basis):
        factor = cost[var]
        if factor:
            obj = [o - factor * v for o, v in zip(obj, row)]
    m = len(tableau)
    tableau.append(obj)
    while True:
        obj = tableau[-1]
        col = next((j for j in range(len(cost)) if obj[j] < 0), None)
        if col is None:
            return tableau.pop()[-1], det
        row = None
        for r in range(m):
            a = tableau[r][col]
            if a > 0:
                rhs = tableau[r][-1]
                # rhs / a against best_rhs / best_a, both divisors positive
                if row is None or rhs * best_a < best_rhs * a or (
                    rhs * best_a == best_rhs * a and basis[r] < basis[row]
                ):
                    row, best_rhs, best_a = r, rhs, a
        if row is None:
            raise Unbounded("reduced cost negative with no blocking row")
        det = _pivot(tableau, basis, row, col, det)


def solve_min(
    a: Sequence[Sequence[Fraction | int]],
    b: Sequence[Fraction | int],
    c: Sequence[Fraction | int],
) -> tuple[Fraction, list[Fraction]]:
    """Return (optimal value, an optimal vertex) of min c.x, A x = b, x >= 0."""
    m = len(a)
    nv = len(c)
    rows = [_rationals(row) for row in a]
    rhs = _rationals(b)
    scales = [lcm(*{row[j].denominator for row in rows}) for j in range(nv)]
    rhs_scale = lcm(*{v.denominator for v in rhs})
    costs = [ci * s for ci, s in zip(_rationals(c), scales)]
    cost_scale = lcm(*{v.denominator for v in costs})
    costs = [v.numerator * (cost_scale // v.denominator) for v in costs]

    # Tableau columns: nv structural, m artificial, rhs; a row with negative
    # rhs is negated.  Artificials form the starting basis.
    tableau: list[list[int]] = []
    for r, row in enumerate(rows):
        sign = -1 if rhs[r] < 0 else 1
        art = [0] * m
        art[r] = 1
        tableau.append(
            [sign * v.numerator * (s // v.denominator) for v, s in zip(row, scales)]
            + art
            + [sign * rhs[r].numerator * (rhs_scale // rhs[r].denominator)]
        )
    basis = [nv + r for r in range(m)]

    infeasibility, det = _optimize(tableau, basis, [0] * nv + [1] * m, 1)
    if infeasibility != 0:
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
            det = _pivot(tableau, basis, r, col, det)
    tableau = [row[:nv] + row[-1:] for row in tableau]

    _, det = _optimize(tableau, basis, costs, det)

    # Basic variable j is T[r][-1] / det in scaled units, scales[j] / rhs_scale
    # times that in the caller's.
    solution = [Fraction(0)] * nv
    total = 0
    for r, var in enumerate(basis):
        solution[var] = Fraction(tableau[r][-1] * scales[var], det * rhs_scale)
        total += costs[var] * tableau[r][-1]
    return Fraction(total, det * rhs_scale * cost_scale), solution
