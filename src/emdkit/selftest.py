"""Built-in cross-verification suites behind ``emdkit selftest``.

Each suite pits two or more independent computations of the same quantity
against each other on exact rationals, so any disagreement is a hard failure
rather than a tolerance call.
"""

from __future__ import annotations

import random
from fractions import Fraction

from .cost import cost_epsilon, monge_check
from .errors import BudgetExceeded, Frozen
from .expectation import expected_emd_exact, expected_emd_recursive
from .simplex import Distribution, DistTuple
from .transport import (
    check_marginals,
    emd,
    greedy_plan,
    lp_oracle_emd,
    plan_objective,
    sweep_plan,
)

__all__ = [
    "CheckResult",
    "random_rational_distribution",
    "random_rational_tuple",
    "run_selftest",
]

#: Seed of the random suites' shared generator.
SEED = 20250811


class CheckResult(Frozen):
    name: str
    status: str  # "pass" | "fail" | "skip"
    detail: str


def random_rational_distribution(
    rng: random.Random, n: int, denominator: int = 24
) -> Distribution:
    """A random point of the n-simplex with masses over a common denominator."""
    cuts = sorted(rng.randint(0, denominator) for _ in range(n))
    edges = [0, *cuts, denominator]
    mass = tuple(
        Fraction(edges[k + 1] - edges[k], denominator) for k in range(n + 1)
    )
    return Distribution(mass)


def random_rational_tuple(
    rng: random.Random, n: int, d: int, denominator: int = 24
) -> DistTuple:
    return DistTuple(
        tuple(random_rational_distribution(rng, n, denominator) for _ in range(d))
    )


def _check_monge(budget: int) -> tuple[str, str]:
    checks = 0
    for n in (1, 2):
        for d in (2, 3):
            report = monge_check(n, d, budget=budget)
            if not report.passed:
                return "fail", f"violation at n={n}, d={d}: {report.violation}"
            checks += report.checks
    return "pass", f"{checks} adjacent pairs verified"


def _check_injected_corruption() -> tuple[str, str]:
    # Test hook: a cost array broken at one cell must fail the check.  Its
    # n = d = 2 grid (9 cells, 4 adjacent pairs) runs whatever the budget.
    corrupted = lambda y: cost_epsilon(y) + (1 if y == (1, 2) else 0)
    report = monge_check(2, 2, cost_fn=corrupted)
    status = "pass" if report.passed else "fail"
    return status, f"injected +1 at cell (1, 2); checker reported passed={report.passed}"


def _check_triple_agreement(rng: random.Random, rounds: int) -> tuple[str, str]:
    for _ in range(rounds):
        n = rng.randint(1, 4)
        d = rng.randint(2, 5)
        xs = random_rational_tuple(rng, n, d)
        plan = greedy_plan(xs)
        check_marginals(plan, xs)
        greedy_value = plan_objective(plan)
        sweep = sweep_plan(xs)
        formula = emd(xs)
        if not (greedy_value == sweep.objective() == formula):
            return "fail", (
                f"n={n}, d={d}: greedy {greedy_value}, sweep {sweep.objective()}, "
                f"column form {formula}"
            )
        if sweep.to_plan().sorted_entries() != plan.sorted_entries():
            return "fail", f"n={n}, d={d}: sweep plan != greedy plan"
        if len(plan.entries) > d * n + 1:
            return "fail", f"n={n}, d={d}: {len(plan.entries)} entries exceed bound {d * n + 1}"
    return "pass", f"{rounds} random rational tuples agree exactly"


def _check_lp_oracle(rng: random.Random, rounds: int) -> tuple[str, str]:
    shapes = [(n, 2) for n in range(1, 8)] + [(n, 3) for n in (1, 2, 3)] + [(1, 4), (1, 5)]
    for _ in range(rounds):
        n, d = rng.choice(shapes)
        xs = random_rational_tuple(rng, n, d)
        if lp_oracle_emd(xs) != emd(xs):
            return "fail", f"n={n}, d={d}: LP optimum != column form"
    return "pass", f"{rounds} random instances match the LP"


def _check_recursion(grid: list[tuple[int, int]]) -> tuple[str, str]:
    for n, d in grid:
        exact = expected_emd_exact(n, d).value
        recursive = expected_emd_recursive((n,) * d)
        if exact != recursive:
            return "fail", f"n={n}, d={d}: integral {exact} != recursion {recursive}"
    return "pass", f"{len(grid)} grid points agree exactly"


def run_selftest(*, budget: int = 10**6, corrupt: bool = False) -> tuple[list[CheckResult], bool]:
    """Run all suites; returns (results, all-passed).

    A suite that would exceed its budget is reported as ``skip`` with the
    budget message.
    """
    rng = random.Random(SEED)
    suites = [("monge-exhaustive", lambda: _check_monge(budget))]
    if corrupt:
        suites.append(("monge-with-injected-corruption", _check_injected_corruption))
    suites += [
        ("triple-agreement", lambda: _check_triple_agreement(rng, rounds=60)),
        ("lp-oracle", lambda: _check_lp_oracle(rng, rounds=15)),
        ("exact-vs-recursion", lambda: _check_recursion([(1, 2), (1, 3), (2, 2), (2, 3)])),
    ]
    results = []
    for name, suite in suites:
        try:
            status, detail = suite()
        except BudgetExceeded as exc:
            status, detail = "skip", str(exc)
        results.append(CheckResult(name, status, detail))
    return results, all(r.status != "fail" for r in results)
