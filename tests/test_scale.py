"""Scale guards for the column-kernel paths and the Monte Carlo kernel.

On one exact tuple with n = 1000 and d = 10 (denominator 10**6), sweep_plan,
g_polynomial and cm_decompose must each finish in under 5 s of CPU time.
Through the one-pass column kernel each takes well under 1 s on a 2-vCPU
machine; a path that re-sums a column per index or rescans every partial sum
per cut is quadratic in n and took 8-63 s there.  On the same tuple,
greedy_plan (timed first, so it includes building the integer lattice),
sweep_plan, check_marginals and barycenter must each finish in under 1 s:
on the lattice they take 0.02-0.15 s, where per-mass Fraction arithmetic
took 0.4-1.3 s.

mc_expected_emd(3, 4, 100_000) must finish in under 1 s of CPU time.  Drawing
one block of samples per generator takes about 0.05 s on that machine; one
generator per sample took about 2.5 s.

expected_emd_quadrature(2000, 10) must finish in under 1.5 s of CPU time.
The windowed rule takes about 0.2 s there; all (d*n + 2) // 2 nodes on
[0, 1] for every column took 5-8.5 s.
"""

import random
import time

from emdkit import (
    barycenter,
    check_marginals,
    cm_decompose,
    emd,
    expected_emd_exact,
    expected_emd_quadrature,
    g_derivative_at_one,
    g_polynomial,
    greedy_plan,
    mc_expected_emd,
    plan_objective,
    sweep_plan,
)

from conftest import random_rational_tuple

LIMIT_S = 5.0
PLAN_LIMIT_S = 1.0


def timed(fn, xs):
    start = time.process_time()
    result = fn(xs)
    return result, time.process_time() - start


def test_large_exact_tuple_stays_fast():
    xs = random_rational_tuple(random.Random(1000), 1000, 10, denominator=10**6)
    value = emd(xs)

    sweep, elapsed = timed(sweep_plan, xs)
    assert elapsed < LIMIT_S, f"sweep_plan took {elapsed:.2f} s"
    assert sweep.objective() == value

    g, elapsed = timed(g_polynomial, xs)
    assert elapsed < LIMIT_S, f"g_polynomial took {elapsed:.2f} s"
    assert g_derivative_at_one(g, 1) == value

    report, elapsed = timed(cm_decompose, xs)
    assert elapsed < LIMIT_S, f"cm_decompose took {elapsed:.2f} s"
    assert report.emd == value


def test_large_exact_plans_stay_fast():
    xs = random_rational_tuple(random.Random(1000), 1000, 10, denominator=10**6)

    plan, elapsed = timed(greedy_plan, xs)
    assert elapsed < PLAN_LIMIT_S, f"greedy_plan took {elapsed:.2f} s"

    sweep, elapsed = timed(sweep_plan, xs)
    assert elapsed < PLAN_LIMIT_S, f"sweep_plan took {elapsed:.2f} s"

    _, elapsed = timed(lambda xs: check_marginals(plan, xs), xs)
    assert elapsed < PLAN_LIMIT_S, f"check_marginals took {elapsed:.2f} s"

    center, elapsed = timed(lambda xs: barycenter(xs, plan), xs)
    assert elapsed < PLAN_LIMIT_S, f"barycenter took {elapsed:.2f} s"

    value = emd(xs)
    assert plan_objective(plan) == value
    assert sweep.to_plan().sorted_entries() == plan.sorted_entries()
    assert sum(center.mass) == 1


def test_monte_carlo_kernel_stays_fast():
    mc_expected_emd(3, 4, 2, seed=0)  # numpy import, outside the clock
    start = time.process_time()
    estimate = mc_expected_emd(3, 4, 100_000, seed=424242)
    elapsed = time.process_time() - start
    assert elapsed < 1.0, f"mc_expected_emd took {elapsed:.2f} s"
    assert abs(estimate.mean - float(expected_emd_exact(3, 4).value)) <= 4 * estimate.stderr


def test_quadrature_past_the_threshold_stays_fast():
    expected_emd_quadrature(1, 2)  # numpy and scipy imports, outside the clock
    start = time.process_time()
    expected_emd_quadrature(2000, 10)
    elapsed = time.process_time() - start
    assert elapsed < 1.5, f"expected_emd_quadrature took {elapsed:.2f} s"
