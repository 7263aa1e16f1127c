"""The float64 backend against the exact rational one.

Core claims:
    - on float64 copies of seeded rational tuples (n <= 300, d <= 10, with
      zero masses and repeated members), emd, the greedy plan's objective,
      the sweep's objective and G''(x; 1) each stay within
      4 * d**2 * n * 2**-52 of the exact value (the bound stated in the emd
      and g_polynomial docstrings)
"""

from fractions import Fraction

from emdkit import (
    DistTuple,
    Distribution,
    emd,
    g_derivative_at_one,
    g_polynomial,
    greedy_plan,
    plan_objective,
    sweep_plan,
)

from conftest import random_rational_tuple


def float_copy(xs: DistTuple) -> DistTuple:
    return DistTuple(
        tuple(Distribution(tuple(float(m) for m in x.mass)) for x in xs.members)
    )


def test_float_results_within_stated_bound(rng):
    for _ in range(400):
        n = rng.choice([1, 2, 3, 5, 10, 30, 100, 300])
        d = rng.randint(2, 10)
        den = rng.choice([3, 7, 24, 1000, 10**6, 999983])
        xs = random_rational_tuple(rng, n, d, den)
        if rng.random() < 0.3:
            xs = DistTuple((xs.members[0],) + xs.members[:-1])
        fl = float_copy(xs)
        assert not fl.exact
        bound = Fraction(4 * d * d * n, 2**52)

        exact_emd = emd(xs)
        exact_g2 = g_derivative_at_one(g_polynomial(xs), 2)
        pairs = {
            "emd": (emd(fl), exact_emd),
            "greedy objective": (plan_objective(greedy_plan(fl)), exact_emd),
            "sweep objective": (sweep_plan(fl).objective(), exact_emd),
            "G''(1)": (g_derivative_at_one(g_polynomial(fl), 2), exact_g2),
        }
        for name, (got, want) in pairs.items():
            assert abs(Fraction(got) - want) <= bound, (name, n, d, got, want)
