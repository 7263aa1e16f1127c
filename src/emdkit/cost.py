"""The dispersion cost of a d-sample and its Monge property.

The cost of ``y = (y_1, ..., y_d)`` is the least total distance needed to
move all d values to one common point,

    C(y) = min_a ( |y_1 - a| + ... + |y_d - a| ),

minimized at any median of the sample.  Three equivalent computations are
provided:

* ``cost_epsilon``   -- the signed order-statistic sum  sum_i eps(i) y_(i),
* ``cost_deltas``    -- the Lee-weighted gap sum  sum_i wt(i) (y_(i+1) - y_(i)),
* ``cost_counting``  -- for integer sites in {1..n+1}, the per-threshold count
  form  sum_j wt(#{i : y_i > j}).

Here ``wt(k) = min(k, d-k)`` is the Lee weight and ``eps`` is the sign
function that is -1 below the middle index, +1 above it, 0 at the middle
(odd d only); the two are linked by ``wt(i) = -sum_{k<=i} eps(k)``.

Restricted to integer tuples, C is a d-dimensional array over {1..n+1}^d
with the Monge (submodularity) property: for any two coordinates,

    C(.., l, .., m, ..) + C(.., l+1, .., m+1, ..)
        <= C(.., l+1, .., m, ..) + C(.., l, .., m+1, ..).

``monge_check`` verifies this exhaustively at desk scale; checking adjacent
entries in coordinate pairs suffices for the full property.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations, product
from math import comb
from operator import mul
from typing import Callable, Optional, Sequence

from .errors import BudgetExceeded, DomainError, Frozen, IndexOutOfRange, check_integer
from .simplex import Scalar

__all__ = [
    "lee_weight",
    "epsilon",
    "cost_epsilon",
    "cost_deltas",
    "cost_counting",
    "MongeViolation",
    "MongeReport",
    "monge_check",
]


def lee_weight(k: int, d: int) -> int:
    """min(k, d - k) for 0 <= k <= d."""
    k, d = check_integer("k", k), check_integer("d", d)
    if d < 1:
        raise DomainError(f"lee_weight needs d >= 1, got {d}")
    if not 0 <= k <= d:
        raise IndexOutOfRange(f"lee_weight index {k} outside 0..{d}")
    return min(k, d - k)


def epsilon(i: int, d: int) -> int:
    """Sign of position i among d: -1 below the middle, +1 above, 0 at it."""
    i, d = check_integer("i", i), check_integer("d", d)
    if d < 1:
        raise DomainError(f"epsilon needs d >= 1, got {d}")
    if not 1 <= i <= d:
        raise IndexOutOfRange(f"epsilon index {i} outside 1..{d}")
    if 2 * i < d + 1:
        return -1
    if 2 * i == d + 1:
        return 0
    return 1


@lru_cache(maxsize=64)
def _signs(d: int) -> tuple[int, ...]:
    """``(eps(1), ..., eps(d))`` for d sample positions."""
    return tuple(epsilon(i, d) for i in range(1, d + 1))


def cost_epsilon(y: Sequence[Scalar]) -> Scalar:
    """Dispersion cost via the signed order-statistic sum."""
    return sum(map(mul, _signs(len(y)), sorted(y)))


@lru_cache(maxsize=64)
def _weights(d: int) -> tuple[int, ...]:
    """``(wt(1), ..., wt(d-1))`` for the d-1 gaps of a d-sample."""
    return tuple(lee_weight(i, d) for i in range(1, d))


def cost_deltas(y: Sequence[Scalar]) -> Scalar:
    """Dispersion cost via Lee-weighted gaps between successive order statistics."""
    ordered = sorted(y)
    return sum(w * (b - a) for w, a, b in zip(_weights(len(y)), ordered, ordered[1:]))


#: Most ``n * d`` that ``cost_counting`` takes on (n thresholds, each a count
#: over d sites): the largest admitted call took 0.7 s of CPU at d = 2 and
#: 1.4 s at d = 1 on a 2-vCPU guest.
COUNTING_LIMIT = 2**21


def cost_counting(y: Sequence[int], n: int) -> int:
    """Dispersion cost of integer sites via per-threshold counts.

    Valid only for ``y_i`` in {1, ..., n+1}; agrees with the other two forms
    there.  Raises :class:`BudgetExceeded` when ``n * d`` passes
    ``COUNTING_LIMIT``.
    """
    d, n = len(y), check_integer("n", n)
    if n * d > COUNTING_LIMIT:
        raise BudgetExceeded(
            f"site counting over n = {n} sites and d = {d} values: n*d = {n * d} "
            f"exceeds limit {COUNTING_LIMIT}"
        )
    for v in y:
        if type(v) is not int or not 1 <= v <= n + 1:
            raise DomainError(f"site {v!r} is not an int in the ground set 1..{n + 1}")
    return sum(lee_weight(sum(1 for v in y if v > j), d) for j in range(1, n + 1))


class MongeViolation(Frozen):
    """First adjacent-entry inequality that failed, in lexicographic order.

    ``coords`` are the two varied coordinates (1-based), ``base`` the position
    holding the smaller value in both; the violated inequality is
    ``lhs <= rhs``.
    """

    coords: tuple[int, int]
    base: tuple[int, ...]
    lhs: Scalar
    rhs: Scalar


class MongeReport(Frozen):
    n: int
    d: int
    checks: int
    passed: bool
    violation: Optional[MongeViolation]


def monge_check(
    n: int,
    d: int,
    *,
    budget: int = 10**6,
    cost_fn: Optional[Callable[[tuple[int, ...]], Scalar]] = None,
) -> MongeReport:
    """Exhaustively verify the Monge property of the cost array over {1..n+1}^d.

    Iterates every coordinate pair and every position where both coordinates
    can be incremented, checking the adjacent-entry inequality.  ``cost_fn``
    overrides the cost array (used by negative controls); the default is the
    true dispersion cost.  Raises :class:`BudgetExceeded` when either the
    array size or the number of adjacent pairs exceeds ``budget``, and
    :class:`DomainError` when ``budget`` is negative.
    """
    n, d = check_integer("n", n), check_integer("d", d)
    budget = check_integer("budget", budget)
    if n < 1 or d < 2:
        raise DomainError(f"monge_check needs n >= 1 and d >= 2, got n={n}, d={d}")
    if budget < 0:
        raise DomainError(f"budget must be >= 0, got {budget}")
    cells = (n + 1) ** d
    pairs = comb(d, 2) * n * n * (n + 1) ** (d - 2)
    if max(cells, pairs) > budget:
        raise BudgetExceeded(
            f"(n+1)^d = {cells} cells / {pairs} adjacent pairs exceed budget {budget}"
        )
    fn = cost_fn if cost_fn is not None else cost_epsilon
    table = {y: fn(y) for y in product(range(1, n + 2), repeat=d)}

    checks = 0
    for a, b in combinations(range(d), 2):
        for y in product(range(1, n + 2), repeat=d):
            if y[a] > n or y[b] > n:
                continue
            ya = list(y)
            ya[a] += 1
            yb = list(y)
            yb[b] += 1
            yab = list(ya)
            yab[b] += 1
            lhs = table[y] + table[tuple(yab)]
            rhs = table[tuple(ya)] + table[tuple(yb)]
            checks += 1
            if lhs > rhs:
                violation = MongeViolation(
                    coords=(a + 1, b + 1), base=y, lhs=lhs, rhs=rhs
                )
                return MongeReport(n=n, d=d, checks=checks, passed=False, violation=violation)
    return MongeReport(n=n, d=d, checks=checks, passed=True, violation=None)
