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

On an exact tuple every kernel here reads the tuple's :class:`Lattice`: the
masses and partial sums as integers over one denominator D.  The work is
integer arithmetic, and each output value becomes ``Fraction(v, D)`` once.
A plan's masses go onto lcm(D, the plan's own denominators).  Float and
mixed tuples run the same code at D = 1 on their own values.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import accumulate, chain, product
from math import lcm
from types import MappingProxyType
from typing import Mapping, Sequence

from .cost import cost_deltas, cost_epsilon
from .errors import (
    BudgetExceeded,
    DimensionMismatch,
    DomainError,
    Frozen,
    IndexOutOfRange,
    InvalidNumber,
    InvariantViolation,
    MarginalMismatch,
    check_integer,
)
from .exactlp import solve_min
from .simplex import Distribution, DistTuple, Scalar, _not_real, is_exact

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


class TransportPlan(Frozen):
    """A sparse transport plan: positive mass per site tuple in {1..n+1}^d.

    Zero entries are omitted; plans produced here have at most d*n + 1
    entries.  ``entries`` is an immutable mapping view.  Every site of every
    key must be an int (not a bool) in 1..n+1, and every mass a finite
    real number (not a bool).
    """

    n: int
    d: int
    entries: Mapping[tuple[int, ...], Scalar]

    def __post_init__(self) -> None:
        object.__setattr__(self, "entries", MappingProxyType(dict(self.entries)))
        top = check_integer("n", self.n) + 1
        check_integer("d", self.d)
        # One pass over every site; only a plan that fails it is searched key
        # by key for the site at fault.
        sites = list(chain.from_iterable(self.entries))
        sites_ok = set(map(type, sites)) <= {int} and set(range(1, top + 1)).issuperset(sites)
        for y, mass in self.entries.items():
            if len(y) != self.d:
                raise DimensionMismatch(f"plan key {y} is not a {self.d}-tuple")
            if not sites_ok and not all(type(site) is int and 0 < site <= top for site in y):
                raise IndexOutOfRange(f"plan key {y!r} has a site that is not an int in 1..{top}")
            if problem := _not_real(mass):
                raise InvalidNumber(f"plan mass at {y} {problem}: {mass!r}")
            if mass <= 0:
                raise InvariantViolation(f"plan mass at {y} is not positive: {mass!r}")

    def sorted_entries(self) -> list[tuple[tuple[int, ...], Scalar]]:
        """Entries with lexicographically sorted keys (canonical order)."""
        return sorted(self.entries.items())

    @property
    def exact(self) -> bool:
        return is_exact(tuple(self.entries.values()))


class Breakpoints(Frozen):
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
    advance in the same step, which makes the run deterministic; the member
    holding the bottleneck is always exhausted, so the sweep ends within
    d*(n+1) steps.  On the float backend the computed minimum is subtracted
    as-is and residuals below 1e-12 snap to zero, so exhaustion stays a
    crisp predicate.
    """
    n, d = xs.n, xs.d
    lattice = xs.lattice
    rows = lattice.mass
    # Residuals are never negative.  Exact lattice values are integers, so a
    # residual below 1 is zero; a float residual below 1e-12 snaps to zero.
    spent = 1 if lattice.exact else _SNAP
    y = [1] * d
    current = [row[0] for row in rows]
    entries: dict[tuple[int, ...], Scalar] = {}
    while True:
        bottleneck = min(current)
        if bottleneck > 0:
            entries[tuple(y)] = lattice.value(bottleneck)
        current = [v - bottleneck for v in current]
        for i, residual in enumerate(current):
            if residual < spent:
                y[i] += 1
                if y[i] > n + 1:
                    return TransportPlan(n=n, d=d, entries=entries)
                current[i] = rows[i][y[i] - 1]


def sweep_plan(xs: DistTuple) -> Breakpoints:
    """Partition [0, 1) at every cumulative value and label each interval.

    The label at t has i-th coordinate ``#{0 <= k <= n : X^i_k <= t}``
    (with X^i_0 = 0), i.e. the site whose mass interval of member i covers t.
    Converting labeled intervals to masses reproduces ``greedy_plan`` exactly
    on the rational backend.  One merge of all members' partial sums below 1
    visits the cuts in order and bumps a label coordinate per value passed.
    """
    lattice = xs.lattice
    one = lattice.scale
    partials = lattice.partial
    events = sorted((v, i) for i, partial in enumerate(partials) for v in partial if v < one)
    # The first cut is +0 in the backend's type, never -0.0.
    cuts, labels = [abs(0 * xs.members[0].mass[0])], []
    label = [1] * xs.d
    cut, k = 0, 0
    while True:
        while k < len(events) and events[k][0] <= cut:
            label[events[k][1]] += 1
            k += 1
        labels.append(tuple(label))
        if k == len(events):
            break
        cut = events[k][0]
        cuts.append(lattice.value(cut))
    return Breakpoints(n=xs.n, d=xs.d, cuts=tuple(cuts), labels=tuple(labels))


def emd(xs: DistTuple) -> Scalar:
    """The d-fold earth mover's distance, as the sum of column costs.

    On float64 copies of rational masses it stays within
    4 * d**2 * n * 2**-52 of the exact value.
    """
    lattice = xs.lattice
    return lattice.value(sum(cost_deltas(col) for col in lattice.columns()))


def emd_pairwise(x: Distribution, y: Distribution) -> Scalar:
    """EMD of two distributions: the L1 distance of their cumulative vectors."""
    if x.n != y.n:
        raise DimensionMismatch(f"operands have n = {x.n} and n = {y.n}")
    return sum(abs(a - b) for a, b in zip(accumulate(x.mass[:-1]), accumulate(y.mass[:-1])))


def _scaled(masses: Sequence[Scalar], scale: int) -> tuple[int, ...]:
    """Exact masses as integers over ``scale``, a multiple of every denominator."""
    return tuple(m.numerator * (scale // m.denominator) for m in masses)


def plan_objective(plan: TransportPlan) -> Scalar:
    """Total cost  sum_y C(y) T(y)  of a plan.

    An exact plan is summed as integers over the lcm of its denominators.
    """
    masses = tuple(plan.entries.values())
    if is_exact(masses):
        scale = lcm(*{m.denominator for m in masses})
        if scale > 1:
            weights = _scaled(masses, scale)
            return Fraction(sum(cost_epsilon(y) * w for y, w in zip(plan.entries, weights)), scale)
    return sum(cost_epsilon(y) * mass for y, mass in plan.entries.items())


def _checked_masses(plan: TransportPlan, xs: DistTuple) -> tuple[tuple[Scalar, ...], int]:
    """The plan's masses on one scale with the marginals, once they match.

    An exact plan of an exact tuple goes onto lcm(D, its denominators) as
    integers and is compared exactly; any other pair keeps its own values,
    compared within 1e-9.  Returns the masses in entry order and the scale.
    """
    if plan.n != xs.n or plan.d != xs.d:
        raise MarginalMismatch(
            f"plan shape (n={plan.n}, d={plan.d}) does not match tuple "
            f"(n={xs.n}, d={xs.d})"
        )
    lattice = xs.lattice
    masses = tuple(plan.entries.values())
    if lattice.exact and is_exact(masses):
        scale = lcm(lattice.scale, *{m.denominator for m in masses})
        up = scale // lattice.scale
        marginals = lattice.mass if up == 1 else [[v * up for v in row] for row in lattice.mass]
        weights = masses if scale == 1 else _scaled(masses, scale)
        tol = 0
    else:
        scale, marginals, weights, tol = 1, [m.mass for m in xs.members], masses, 1e-9
    keys = tuple(plan.entries)
    for i, row in enumerate(marginals):
        sums: list[Scalar] = [0] * len(row)
        for y, w in zip(keys, weights):
            sums[y[i] - 1] += w
        for j, expected in enumerate(row):
            if abs(sums[j] - expected) > tol:
                mass = sum(m for y, m in plan.entries.items() if y[i] == j + 1)
                raise MarginalMismatch(
                    f"member {i + 1}, site {j + 1}: plan mass {mass!r} "
                    f"!= marginal {xs.members[i].mass[j]!r}"
                )
    return weights, scale


def check_marginals(plan: TransportPlan, xs: DistTuple) -> None:
    """Raise :class:`MarginalMismatch` unless the plan reproduces every marginal.

    Exact on the rational backend; float marginals may deviate by 1e-9.
    """
    _checked_masses(plan, xs)


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
    weights, scale = _checked_masses(plan, xs)
    median = (xs.d - 1) // 2
    mass: list[Scalar] = [0] * (xs.n + 1)
    for y, w in zip(plan.entries, weights):
        mass[sorted(y)[median] - 1] += w
    if scale > 1:  # a site no entry reaches keeps an int 0
        mass = [Fraction(v, scale) if v else 0 for v in mass]
    return Distribution(tuple(mass))


def lp_oracle_emd(xs: DistTuple, *, budget: int = 4096) -> Scalar:
    """Solve the transportation program outright with the exact simplex solver.

    Brute-force optimality oracle: one variable per site tuple, so the
    instance must satisfy ``(n+1)^d <= budget``.  Exact masses only: float
    masses, read losslessly, rarely give every member the same rational
    total, which leaves the program infeasible.  The program's right-hand
    side is the lattice's integer masses, so it is solved at D times the
    masses.  Returns the exact optimum.  A negative ``budget`` raises
    :class:`DomainError`.
    """
    budget = check_integer("budget", budget)
    if budget < 0:
        raise DomainError(f"budget must be >= 0, got {budget}")
    lattice = xs.lattice
    if not lattice.exact:
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
    b = [m for row in lattice.mass for m in row]
    value, _ = solve_min(a, b, costs)
    return value if lattice.scale == 1 else value / lattice.scale
