"""Scale guard for the column-kernel paths.

On one exact tuple with n = 1000 and d = 10 (denominator 10**6), sweep_plan,
g_polynomial and cm_decompose must each finish in under 5 s of CPU time.
Through the one-pass column kernel each takes well under 1 s on a 2-vCPU
machine; a path that re-sums a column per index or rescans every partial sum
per cut is quadratic in n and took 8-63 s there.
"""

import random
import time

from emdkit import cm_decompose, emd, g_derivative_at_one, g_polynomial, sweep_plan

from conftest import random_rational_tuple

LIMIT_S = 5.0


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
