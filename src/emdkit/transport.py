"""Optimal transport plans between d distributions, and the distance itself.

The d-fold earth mover's distance of ``xs = (x^1, ..., x^d)`` is the optimum
of the transportation linear program

    minimize   sum_y C(y) T(y)      over  y in {1..n+1}^d
    subject to T(y) >= 0  and  sum_{y : y_i = j} T(y) = x^i_j,

with the dispersion cost C of :mod:`emdkit.cost`.  Because that cost array is
Monge, the d-dimensional northwest-corner sweep (``greedy_plan``) is optimal,
and three independent computations of the optimum agree exactly on the
rational backend:

* the greedy plan's objective,
* the interval sweep ``sweep_plan`` (partition [0, 1) at every cumulative
  value; the label of an interval is the site tuple whose mass it carries),
* the closed column form  EMD(xs) = sum_j C(X^1_j, ..., X^d_j).

``lp_oracle_emd`` solves the linear program outright with the exact simplex
solver and serves as the independent optimality oracle for all of the above.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from itertools import product
from types import MappingProxyType
from typing import Mapping

from .cost import cost_deltas, cost_epsilon
from .errors import (
    BudgetExceeded,
    DimensionMismatch,
    DomainError,
    InvariantViolation,
    MarginalMismatch,
)
from .exactlp import solve_min
from .simplex import Distribution, DistTuple, Scalar, is_exact, sorted_columns

__all__ = [
    "TransportPlan",
    "Breakpoints",
    "greedy_plan",
    "sweep_plan",
    "emd",
    "emd_pairwise",
    "plan_objective",
    "check_marginals",
    "barycenter",
    "lp_oracle_emd",
]

# Float-backend residuals below this are treated as an exhausted coordinate.
_SNAP = 1e-12


@dataclass(frozen=True)
class TransportPlan:
    """A sparse transport plan: positive mass per site tuple in {1..n+1}^d.

    Zero entries are omitted; plans produced here have at most d*n + 1
    entries.  ``entries`` is an immutable mapping view.
    """

    n: int
    d: int
    entries: Mapping[tuple[int, ...], Scalar]

    def __post_init__(self) -> None:
        object.__setattr__(self, "entries", MappingProxyType(dict(self.entries)))
        for y, mass in self.entries.items():
            if len(y) != self.d:
                raise DimensionMismatch(f"plan key {y} is not a {self.d}-tuple")
            if mass <= 0:
                raise InvariantViolation(f"plan mass at {y} is not positive: {mass!r}")

    def sorted_entries(self) -> list[tuple[tuple[int, ...], Scalar]]:
        """Entries with lexicographically sorted keys (canonical order)."""
        return sorted(self.entries.items())

    @property
    def exact(self) -> bool:
        return is_exact(tuple(self.entries.values()))


@dataclass(frozen=True)
class Breakpoints:
    """The interval sweep of [0, 1): cut points and per-interval site tuples.

    ``cuts`` is strictly increasing and starts at 0; interval k is
    ``[cuts[k], cuts[k+1])`` with an implicit final cut at 1.  ``labels[k]``
    is the site tuple y(t) on interval k, weakly increasing coordinatewise.
    """

    n: int
    d: int
    cuts: tuple[Scalar, ...]
    labels: tuple[tuple[int, ...], ...]

    def lengths(self) -> tuple[Scalar, ...]:
        uppers = self.cuts[1:] + (1,)
        return tuple(hi - lo for lo, hi in zip(self.cuts, uppers))

    def to_plan(self) -> TransportPlan:
        entries: dict[tuple[int, ...], Scalar] = {}
        for label, length in zip(self.labels, self.lengths()):
            if length > 0:
                entries[label] = entries.get(label, 0) + length
        return TransportPlan(n=self.n, d=self.d, entries=entries)

    def objective(self) -> Scalar:
        return sum(
            cost_deltas(label) * length
            for label, length in zip(self.labels, self.lengths())
        )


def greedy_plan(xs: DistTuple) -> TransportPlan:
    """The d-dimensional northwest-corner plan (optimal for Monge costs).

    Start at y = (1, ..., 1); repeatedly allocate the bottleneck mass
    min_i x^i_{y_i}, subtract it from every coordinate, and advance every
    exhausted coordinate by one.  All simultaneously exhausted coordinates
    advance in the same step, which makes the run deterministic.  On the
    float backend the computed minimum is subtracted as-is and residuals
    below 1e-12 snap to zero, so exhaustion stays a crisp predicate.
    """
    n, d = xs.n, xs.d
    exact = xs.exact
    remaining = [list(member.mass) for member in xs.members]
    y = [1] * d
    entries: dict[tuple[int, ...], Scalar] = {}
    for _ in range(d * (n + 1) + 1):
        if any(pos > n + 1 for pos in y):
            break
        bottleneck = min(remaining[i][y[i] - 1] for i in range(d))
        if bottleneck > 0:
            entries[tuple(y)] = bottleneck
        exhausted = []
        for i in range(d):
            residual = remaining[i][y[i] - 1] - bottleneck
            if not exact and 0 < residual < _SNAP:
                residual = 0.0
            remaining[i][y[i] - 1] = residual
            if residual == 0:
                exhausted.append(i)
        if not exhausted:
            raise InvariantViolation("greedy step made no progress")
        for i in exhausted:
            y[i] += 1
    else:
        raise InvariantViolation("greedy sweep did not terminate")
    return TransportPlan(n=n, d=d, entries=entries)


def sweep_plan(xs: DistTuple) -> Breakpoints:
    """Partition [0, 1) at every cumulative value and label each interval.

    The label at t has i-th coordinate ``#{0 <= k <= n : X^i_k <= t}``
    (with X^i_0 = 0), i.e. the site whose mass interval of member i covers t.
    Converting labeled intervals to masses reproduces ``greedy_plan`` exactly
    on the rational backend.
    """
    partials = [member.partial for member in xs.members]
    cut_set = {abs(0 * partials[0][0])}  # +0 in the backend's type, never -0.0
    for partial in partials:
        cut_set.update(v for v in partial if v < 1)
    cuts = tuple(sorted(cut_set))
    # Partial sums of nonnegative masses are sorted, so bisection counts them.
    labels = tuple(
        tuple(1 + bisect_right(partial, t) for partial in partials) for t in cuts
    )
    return Breakpoints(n=xs.n, d=xs.d, cuts=cuts, labels=labels)


def emd(xs: DistTuple) -> Scalar:
    """The d-fold earth mover's distance, as the sum of column costs.

    On float64 copies of rational masses it stays within
    4 * d**2 * n * 2**-52 of the exact value.
    """
    return sum(cost_deltas(col) for col in sorted_columns(xs))


def emd_pairwise(x: Distribution, y: Distribution) -> Scalar:
    """EMD of two distributions: the L1 distance of their cumulative vectors."""
    if x.n != y.n:
        raise DimensionMismatch(f"operands have n = {x.n} and n = {y.n}")
    return sum(abs(a - b) for a, b in zip(x.partial, y.partial))


def plan_objective(plan: TransportPlan) -> Scalar:
    """Total cost  sum_y C(y) T(y)  of a plan."""
    return sum(cost_epsilon(y) * mass for y, mass in plan.entries.items())


def check_marginals(plan: TransportPlan, xs: DistTuple) -> None:
    """Raise :class:`MarginalMismatch` unless the plan reproduces every marginal.

    Exact on the rational backend; float marginals may deviate by 1e-9.
    """
    if plan.n != xs.n or plan.d != xs.d:
        raise MarginalMismatch(
            f"plan shape (n={plan.n}, d={plan.d}) does not match tuple "
            f"(n={xs.n}, d={xs.d})"
        )
    tol = 0 if (xs.exact and plan.exact) else 1e-9
    for i in range(xs.d):
        sums: list[Scalar] = [0] * (xs.n + 1)
        for y, mass in plan.entries.items():
            sums[y[i] - 1] += mass
        for j, expected in enumerate(xs.members[i].mass):
            if abs(sums[j] - expected) > tol:
                raise MarginalMismatch(
                    f"member {i + 1}, site {j + 1}: plan mass {sums[j]!r} "
                    f"!= marginal {expected!r}"
                )


def barycenter(xs: DistTuple, plan: TransportPlan) -> Distribution:
    """The common distribution the plan's moves turn every member into.

    Each plan entry at y moves its mass, within every member i, from site
    ``y_i`` to the sample's lower median ``y_(ceil(d/2))`` (a minimizer of
    the dispersion cost, so the total move cost equals the plan objective).
    After all moves the members coincide; by the marginal constraints the
    common result carries, at site k, the plan mass of all entries whose
    lower median is k.  For even d any point between the two middle order
    statistics works; the lower median is the fixed choice here.
    """
    check_marginals(plan, xs)
    median_index = (xs.d + 1) // 2
    mass: list[Scalar] = [0] * (xs.n + 1)
    for y, m in plan.entries.items():
        target = sorted(y)[median_index - 1]
        mass[target - 1] += m
    return Distribution(tuple(mass))


def lp_oracle_emd(xs: DistTuple, *, budget: int = 4096) -> Scalar:
    """Solve the transportation program outright with the exact simplex solver.

    Brute-force optimality oracle: one variable per site tuple, so the
    instance must satisfy ``(n+1)^d <= budget``.  Exact masses only: float
    masses, read losslessly, rarely give every member the same rational
    total, which leaves the program infeasible.  Returns the exact optimum.
    """
    if not xs.exact:
        raise DomainError("lp_oracle_emd takes exact masses only (int or Fraction)")
    n, d = xs.n, xs.d
    nvars = (n + 1) ** d
    if nvars > budget:
        raise BudgetExceeded(f"(n+1)^d = {nvars} variables exceed budget {budget}")

    keys = list(product(range(1, n + 2), repeat=d))
    costs = [cost_epsilon(y) for y in keys]
    # Row i*(n+1) + j-1 constrains member i's mass at site j, member-major.
    a = [[0] * nvars for _ in range(d * (n + 1))]
    for k, y in enumerate(keys):
        for i, site in enumerate(y):
            a[i * (n + 1) + site - 1][k] = 1
    b = [m for member in xs.members for m in member.mass]
    value, _ = solve_min(a, b, costs)
    return value
