"""Transport plans and the d-fold EMD.

Core claims:
    - greedy, sweep, and the column formula give one identical optimum,
      exactly, on random rational tuples
    - greedy plans satisfy the marginal constraints and the d*n+1 sparsity
      bound; the sweep reproduces the greedy plan entry for entry
    - the exact LP oracle confirms optimality, and refuses float tuples
    - the pairwise distance is a metric; a triple's EMD is half its pairwise
      sum; the general EMD dominates pairwise_sum/(d-1)
    - on float tuples with zero masses and repeated cut values, the sweep
      labels each cut t with 1 + #{k : X^i_k <= t}
    - the sweep's first cut is +0 in the backend's type, even after a -0.0 mass
    - the barycenter is a valid distribution reachable at plan cost
"""

import math
from fractions import Fraction as F

import pytest

from emdkit import (
    BudgetExceeded,
    DimensionMismatch,
    DomainError,
    DistTuple,
    Distribution,
    MarginalMismatch,
    TransportPlan,
    barycenter,
    check_marginals,
    cumulative,
    emd,
    emd_pairwise,
    greedy_plan,
    lp_oracle_emd,
    plan_objective,
    sweep_plan,
    validate_distribution,
)

from conftest import golden_tuple, random_rational_tuple


def dist(*vals):
    return validate_distribution([F(v) for v in vals])


def pair(a, b):
    return DistTuple((a, b))


class TestGreedyPlan:
    def test_equal_halves_give_diagonal(self):
        d = dist("0.5", "0.5")
        plan = greedy_plan(pair(d, d))
        assert dict(plan.entries) == {(1, 1): F(1, 2), (2, 2): F(1, 2)}

    def test_reference_objective(self, golden):
        plan = greedy_plan(golden)
        assert plan_objective(plan) == F(7, 2)

    def test_opposite_point_masses(self):
        plan = greedy_plan(pair(dist(1, 0), dist(0, 1)))
        assert dict(plan.entries) == {(1, 2): 1}
        assert plan_objective(plan) == 1

    def test_marginals_and_sparsity_random(self, rng):
        for _ in range(100):
            n, d = rng.randint(1, 4), rng.randint(2, 5)
            xs = random_rational_tuple(rng, n, d)
            plan = greedy_plan(xs)
            check_marginals(plan, xs)
            assert len(plan.entries) <= d * n + 1

    def test_float_backend_agrees_with_exact(self, rng):
        for _ in range(20):
            xs = random_rational_tuple(rng, 3, 3)
            fl = DistTuple(
                tuple(
                    validate_distribution([float(m) for m in member.mass])
                    for member in xs.members
                )
            )
            got = plan_objective(greedy_plan(fl))
            assert got == pytest.approx(float(emd(xs)), abs=1e-9)


class TestSweepPlan:
    def test_equal_halves(self):
        d = dist("0.5", "0.5")
        sweep = sweep_plan(pair(d, d))
        assert sweep.cuts == (0, F(1, 2))
        assert sweep.labels == ((1, 1), (2, 2))

    def test_reference_objective(self, golden):
        assert sweep_plan(golden).objective() == F(7, 2)

    def test_first_cut_is_positive_zero_in_backend_type(self):
        floats = pair(Distribution((-0.0, 0.5, 0.5)), Distribution((0.25, 0.25, 0.5)))
        first = sweep_plan(floats).cuts[0]
        assert type(first) is float and math.copysign(1.0, first) == 1.0
        assert sweep_plan(floats).cuts == (0.0, 0.25, 0.5)
        exact = sweep_plan(pair(dist("0.5", "0.5"), dist("0.25", "0.75"))).cuts[0]
        assert type(exact) is F and exact == 0
        ints = sweep_plan(pair(Distribution((1, 0)), Distribution((0, 1)))).cuts[0]
        assert type(ints) is int and ints == 0

    def test_repeated_distribution_costs_nothing(self, rng):
        member = random_rational_tuple(rng, 3, 2).members[0]
        same = DistTuple((member,) * 4)
        sweep = sweep_plan(same)
        assert sweep.objective() == 0
        for label in sweep.labels:
            assert len(set(label)) == 1

    def test_labels_weakly_increase(self, rng):
        for _ in range(50):
            xs = random_rational_tuple(rng, rng.randint(1, 4), rng.randint(2, 5))
            sweep = sweep_plan(xs)
            for a, b in zip(sweep.labels, sweep.labels[1:]):
                assert all(x <= y for x, y in zip(a, b))
                assert a != b

    def test_intervals_partition_unit(self, rng):
        for _ in range(50):
            xs = random_rational_tuple(rng, rng.randint(1, 4), rng.randint(2, 5))
            sweep = sweep_plan(xs)
            assert sweep.cuts[0] == 0
            assert sum(sweep.lengths()) == 1


class TestSweepLabelsOnFloats:
    def test_labels_match_definition(self, rng):
        repeated_cuts = zero_masses = 0
        for _ in range(150):
            n, d = rng.randint(1, 6), rng.randint(2, 6)
            den = rng.choice([4, 8, 10])  # dyadic and non-dyadic float masses
            exact = list(random_rational_tuple(rng, n, d, den).members)
            if rng.random() < 0.5:
                exact[-1] = exact[0]
            xs = DistTuple(
                tuple(Distribution(tuple(float(m) for m in x.mass)) for x in exact)
            )
            partials = [cumulative(member).partial for member in xs.members]
            sweep = sweep_plan(xs)
            for t, label in zip(sweep.cuts, sweep.labels):
                assert label == tuple(
                    1 + sum(1 for v in partial if v <= t) for partial in partials
                )
            repeated_cuts += any(
                sum(t in partial for partial in partials) > 1 for t in sweep.cuts[1:]
            )
            zero_masses += any(0.0 in member.mass for member in xs.members)
        assert repeated_cuts > 0 and zero_masses > 0


class TestTripleAgreement:
    def test_greedy_sweep_formula_agree(self, rng):
        for _ in range(150):
            n, d = rng.randint(1, 4), rng.randint(2, 5)
            xs = random_rational_tuple(rng, n, d)
            plan = greedy_plan(xs)
            sweep = sweep_plan(xs)
            value = emd(xs)
            assert plan_objective(plan) == value
            assert sweep.objective() == value
            assert sweep.to_plan().sorted_entries() == plan.sorted_entries()


class TestEmd:
    def test_reference_value(self, golden):
        assert emd(golden) == F(7, 2)

    def test_identical_members(self, rng):
        xs = random_rational_tuple(rng, 4, 2)
        same = DistTuple((xs.members[0],) * 5)
        assert emd(same) == 0

    def test_opposite_point_masses(self):
        assert emd(pair(dist(1, 0), dist(0, 1))) == 1

    def test_three_member_half_sum_identity(self, rng):
        for _ in range(100):
            xs = random_rational_tuple(rng, rng.randint(1, 4), 3)
            x, y, z = xs.members
            half_sum = (
                emd_pairwise(x, y) + emd_pairwise(x, z) + emd_pairwise(y, z)
            ) / 2
            assert emd(xs) == half_sum

    def test_dominates_scaled_pairwise_sum(self, rng):
        for _ in range(100):
            n, d = rng.randint(1, 4), rng.randint(2, 6)
            xs = random_rational_tuple(rng, n, d)
            total = sum(
                emd_pairwise(xs.members[a], xs.members[b])
                for a in range(d)
                for b in range(a + 1, d)
            )
            assert emd(xs) >= total / (d - 1)


class TestEmdPairwise:
    def test_reference_pairs(self, golden):
        m = golden.members
        assert emd_pairwise(m[0], m[1]) == F(3, 10)
        assert emd_pairwise(m[3], m[4]) == 2

    def test_identical(self, rng):
        xs = random_rational_tuple(rng, 3, 2)
        assert emd_pairwise(xs.members[0], xs.members[0]) == 0

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            emd_pairwise(dist(1, 0), dist(1, 0, 0))

    def test_metric_axioms(self, rng):
        for _ in range(100):
            n = rng.randint(1, 4)
            xs = random_rational_tuple(rng, n, 3)
            x, y, z = xs.members
            assert emd_pairwise(x, y) == emd_pairwise(y, x)
            assert emd_pairwise(x, y) >= 0
            assert (emd_pairwise(x, y) == 0) == (x == y)
            assert emd_pairwise(x, z) <= emd_pairwise(x, y) + emd_pairwise(y, z)


class TestBarycenter:
    def test_identical_members_map_to_themselves(self, rng):
        xs = random_rational_tuple(rng, 3, 2)
        same = DistTuple((xs.members[0],) * 3)
        plan = greedy_plan(same)
        assert barycenter(same, plan) == xs.members[0]

    def test_two_opposite_point_masses(self):
        xs = pair(dist(1, 0), dist(0, 1))
        plan = greedy_plan(xs)
        assert barycenter(xs, plan) == dist(1, 0)

    def test_three_member_median(self):
        xs = DistTuple((dist(1, 0), dist(0, 1), dist(1, 0)))
        plan = greedy_plan(xs)
        assert barycenter(xs, plan) == dist(1, 0)

    def test_marginal_mismatch_rejected(self, golden):
        other = random_rational_tuple(__import__("random").Random(5), 3, 6)
        plan = greedy_plan(other)
        with pytest.raises(MarginalMismatch):
            barycenter(golden, plan)

    def test_valid_distribution_within_plan_cost(self, rng):
        for _ in range(60):
            n, d = rng.randint(1, 4), rng.randint(2, 5)
            xs = random_rational_tuple(rng, n, d)
            plan = greedy_plan(xs)
            center = barycenter(xs, plan)
            assert isinstance(center, Distribution)
            assert sum(center.mass) == 1
            total = sum(emd_pairwise(m, center) for m in xs.members)
            assert total <= plan_objective(plan)


class TestLpOracle:
    def test_pair_instance(self):
        xs = pair(dist("0.3", "0.7"), dist("0.8", "0.2"))
        assert lp_oracle_emd(xs) == F(1, 2)

    def test_three_member_instance(self):
        xs = DistTuple((dist(1, 0), dist(0, 1), dist("0.5", "0.5")))
        assert lp_oracle_emd(xs) == 1

    def test_identical_members(self, rng):
        xs = random_rational_tuple(rng, 2, 2)
        same = DistTuple((xs.members[0],) * 3)
        assert lp_oracle_emd(same) == 0

    def test_budget_enforced(self):
        xs = random_rational_tuple(__import__("random").Random(1), 4, 4)
        with pytest.raises(BudgetExceeded):
            lp_oracle_emd(xs, budget=100)

    @pytest.mark.parametrize(
        "rows",
        [([0.1, 0.2, 0.7], [0.3, 0.3, 0.4]), ([0.5, 0.5], [0.25, 0.75])],
        ids=["inexact-sums", "dyadic"],
    )
    def test_float_tuples_refused(self, rows):
        xs = DistTuple(tuple(validate_distribution(row) for row in rows))
        with pytest.raises(DomainError, match="exact masses only"):
            lp_oracle_emd(xs)

    def test_matches_column_formula(self, rng):
        shapes = [(1, 2), (2, 2), (3, 2), (1, 3), (2, 3), (1, 4)]
        for _ in range(25):
            n, d = rng.choice(shapes)
            xs = random_rational_tuple(rng, n, d)
            assert lp_oracle_emd(xs) == emd(xs)


class TestTransportPlanType:
    def test_nonpositive_mass_rejected(self):
        with pytest.raises(Exception):
            TransportPlan(n=1, d=2, entries={(1, 1): F(0)})

    def test_entries_are_read_only(self):
        plan = TransportPlan(n=1, d=2, entries={(1, 1): F(1, 2), (2, 2): F(1, 2)})
        with pytest.raises(TypeError):
            plan.entries[(1, 2)] = F(1)

    def test_sorted_entries_canonical(self):
        plan = TransportPlan(
            n=1, d=2, entries={(2, 2): F(1, 4), (1, 1): F(1, 2), (1, 2): F(1, 4)}
        )
        keys = [y for y, _ in plan.sorted_entries()]
        assert keys == [(1, 1), (1, 2), (2, 2)]
