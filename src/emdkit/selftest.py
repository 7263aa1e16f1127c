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


def _check_monge(budget: int, corrupt: bool) -> list[CheckResult]:
    if budget == 0:
        return [
            CheckResult("monge-exhaustive", "skip", "budget 0: exhaustive check skipped")
        ]
    results = []
    try:
        checks = 0
        for n in (1, 2):
            for d in (2, 3):
                report = monge_check(n, d, budget=budget)
                checks += report.checks
                if not report.passed:
                    results.append(
                        CheckResult(
                            "monge-exhaustive",
                            "fail",
                            f"violation at n={n}, d={d}: {report.violation}",
                        )
                    )
                    break
        else:
            results.append(
                CheckResult(
                    "monge-exhaustive", "pass", f"{checks} adjacent pairs verified"
                )
            )
    except BudgetExceeded as exc:  # a budget too small for the grid skips the check
        results.append(CheckResult("monge-exhaustive", "skip", str(exc)))

    if corrupt:
        # Test hook: a deliberately corrupted cost array stands in for the
        # real one, so this check must come back failed.
        corrupted = lambda y: cost_epsilon(y) + (1 if y == (1, 2) else 0)
        report = monge_check(2, 2, budget=budget or 10**6, cost_fn=corrupted)
        status = "fail" if not report.passed else "pass"
        results.append(
            CheckResult(
                "monge-with-injected-corruption",
                status,
                f"injected +1 at cell (1, 2); checker reported passed={report.passed}",
            )
        )
    return results


def _check_triple_agreement(rng: random.Random, rounds: int) -> CheckResult:
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
            return CheckResult(
                "triple-agreement",
                "fail",
                f"n={n}, d={d}: greedy {greedy_value}, sweep {sweep.objective()}, "
                f"column form {formula}",
            )
        if sweep.to_plan().sorted_entries() != plan.sorted_entries():
            return CheckResult(
                "triple-agreement", "fail", f"n={n}, d={d}: sweep plan != greedy plan"
            )
        if len(plan.entries) > d * n + 1:
            return CheckResult(
                "triple-agreement",
                "fail",
                f"n={n}, d={d}: {len(plan.entries)} entries exceed bound {d * n + 1}",
            )
    return CheckResult(
        "triple-agreement", "pass", f"{rounds} random rational tuples agree exactly"
    )


def _check_lp_oracle(rng: random.Random, rounds: int) -> CheckResult:
    shapes = [(n, 2) for n in range(1, 8)] + [(n, 3) for n in (1, 2, 3)] + [(1, 4), (1, 5)]
    for _ in range(rounds):
        n, d = rng.choice(shapes)
        xs = random_rational_tuple(rng, n, d)
        if lp_oracle_emd(xs) != emd(xs):
            return CheckResult(
                "lp-oracle", "fail", f"n={n}, d={d}: LP optimum != column form"
            )
    return CheckResult("lp-oracle", "pass", f"{rounds} random instances match the LP")


def _check_recursion(grid: list[tuple[int, int]]) -> CheckResult:
    for n, d in grid:
        exact = expected_emd_exact(n, d).value
        recursive = expected_emd_recursive((n,) * d)
        if exact != recursive:
            return CheckResult(
                "exact-vs-recursion",
                "fail",
                f"n={n}, d={d}: integral {exact} != recursion {recursive}",
            )
    return CheckResult(
        "exact-vs-recursion", "pass", f"{len(grid)} grid points agree exactly"
    )


def run_selftest(
    *, budget: int = 10**6, corrupt: bool = False, seed: int = 20250811
) -> tuple[list[CheckResult], bool]:
    """Run all suites; returns (results, all-passed)."""
    rng = random.Random(seed)
    results = _check_monge(budget, corrupt)
    results.append(_check_triple_agreement(rng, rounds=60))
    results.append(_check_lp_oracle(rng, rounds=15))
    results.append(_check_recursion([(1, 2), (1, 3), (2, 2), (2, 3)]))
    passed = all(r.status != "fail" for r in results)
    return results, passed
