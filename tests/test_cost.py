"""Dispersion cost: three equivalent forms, sign/weight functions, Mongeness.

Core claims:
    - lee_weight and epsilon match their closed forms and satisfy
      wt(i) = -sum_{k<=i} eps(k)
    - the signed-order-statistic, weighted-gap, and site-counting forms agree
    - the cost is the true minimum of a -> sum |y_i - a|, attained at the
      lower median
    - the cost is permutation-, translation-invariant and positively
      homogeneous
    - the integer cost array is Monge; a corrupted array is caught
"""

from fractions import Fraction as F

import pytest
from hypothesis import given
from hypothesis import strategies as st

from emdkit import (
    BudgetExceeded,
    DomainError,
    IndexOutOfRange,
    cost_counting,
    cost_deltas,
    cost_epsilon,
    epsilon,
    lee_weight,
    monge_check,
)
from emdkit.cost import COUNTING_LIMIT


class TestLeeWeight:
    def test_d6_profile(self):
        assert [lee_weight(k, 6) for k in range(1, 6)] == [1, 2, 3, 2, 1]

    def test_d2(self):
        assert lee_weight(1, 2) == 1

    def test_d10_midpoint(self):
        assert lee_weight(5, 10) == 5

    def test_endpoints_vanish(self):
        for d in range(2, 9):
            assert lee_weight(0, d) == 0
            assert lee_weight(d, d) == 0

    def test_symmetry(self):
        for d in range(2, 9):
            for k in range(d + 1):
                assert lee_weight(k, d) == lee_weight(d - k, d)

    @pytest.mark.parametrize("k", [-1, 7])
    def test_out_of_range(self, k):
        with pytest.raises(IndexOutOfRange):
            lee_weight(k, 6)


class TestEpsilon:
    def test_d5(self):
        assert [epsilon(i, 5) for i in range(1, 6)] == [-1, -1, 0, 1, 1]

    def test_d2(self):
        assert [epsilon(i, 2) for i in range(1, 3)] == [-1, 1]

    def test_d6(self):
        assert [epsilon(i, 6) for i in range(1, 7)] == [-1, -1, -1, 1, 1, 1]

    def test_sums_to_zero_and_weakly_increasing(self):
        for d in range(2, 12):
            signs = [epsilon(i, d) for i in range(1, d + 1)]
            assert sum(signs) == 0
            assert signs == sorted(signs)

    def test_weight_is_negated_partial_sum_of_signs(self):
        for d in range(2, 12):
            for i in range(1, d + 1):
                assert lee_weight(i, d) == -sum(epsilon(k, d) for k in range(1, i + 1))

    def test_out_of_range(self):
        with pytest.raises(IndexOutOfRange):
            epsilon(0, 4)


class TestCostForms:
    def test_reference_first_column(self):
        y = [F(v) for v in ("0.2", "0.3", "0.6", "0.0", "0.7", "0.1")]
        assert cost_epsilon(y) == F(13, 10)

    def test_constant_sample_costs_nothing(self):
        assert cost_epsilon([F(1, 3)] * 5) == 0

    def test_pair_is_absolute_difference(self):
        assert cost_epsilon([1, 4]) == 3

    def test_reference_second_column_gap_form(self):
        y = [F(v) for v in ("0.4", "0.3", "0.6", "0.2", "0.8", "0.5")]
        assert cost_deltas(y) == 1

    def test_reference_third_column_gap_form(self):
        y = [F(v) for v in ("0.6", "0.7", "0.9", "0.3", "1", "0.5")]
        assert cost_deltas(y) == F(6, 5)

    def test_unit_pair_gap_form(self):
        assert cost_deltas([0, 1]) == 1

    def test_counting_form_simple(self):
        assert cost_counting([1, 4], 3) == 3

    def test_counting_form_constant(self):
        for n in (1, 2, 5):
            assert cost_counting([2, 2, 2], n) == 0

    def test_counting_form_three_sites(self):
        assert cost_counting([1, 2, 3], 2) == 2
        assert cost_counting([1, 2, 3], 2) == cost_epsilon([1, 2, 3])

    def test_counting_form_domain(self):
        with pytest.raises(DomainError):
            cost_counting([0, 1], 3)
        with pytest.raises(DomainError):
            cost_counting([1, 5], 3)

    @pytest.mark.parametrize("y, n", [((1, 2), COUNTING_LIMIT // 2 + 1), ((1, 2, 3), 10**20)])
    def test_counting_form_refuses_past_its_limit(self, y, n):
        with pytest.raises(BudgetExceeded, match=f"site counting over n = {n} sites"):
            cost_counting(y, n)

    @pytest.mark.parametrize("y", [(True, 2), (2, False)])
    def test_counting_form_refuses_bool_sites(self, y):
        with pytest.raises(DomainError, match="not an int"):
            cost_counting(y, 1)

    @given(st.lists(st.fractions(), min_size=2, max_size=9))
    def test_signed_and_gap_forms_agree(self, y):
        assert cost_epsilon(y) == cost_deltas(y)

    @given(st.integers(1, 6), st.data())
    def test_all_three_forms_agree_on_integer_sites(self, n, data):
        y = data.draw(
            st.lists(st.integers(1, n + 1), min_size=2, max_size=7)
        )
        assert cost_epsilon(y) == cost_deltas(y) == cost_counting(y, n)

    def test_minimizer_property(self, rng):
        for _ in range(50):
            d = rng.randint(2, 7)
            y = [F(rng.randint(-30, 30), rng.randint(1, 7)) for _ in range(d)]
            cost = cost_epsilon(y)
            for _ in range(100):
                a = F(rng.randint(-40, 40), rng.randint(1, 7))
                assert sum(abs(v - a) for v in y) >= cost
            median = sorted(y)[(d + 1) // 2 - 1]
            assert sum(abs(v - median) for v in y) == cost

    @given(st.lists(st.fractions(), min_size=2, max_size=8), st.fractions(), st.randoms())
    def test_symmetries(self, y, shift, pyrandom):
        cost = cost_epsilon(y)
        shuffled = list(y)
        pyrandom.shuffle(shuffled)
        assert cost_epsilon(shuffled) == cost
        assert cost_epsilon([v + shift for v in y]) == cost
        scale = abs(shift)
        assert cost_epsilon([scale * v for v in y]) == scale * cost


class TestMongeCheck:
    @pytest.mark.parametrize("n,d", [(1, 2), (1, 3), (2, 2), (2, 3)])
    def test_true_cost_is_monge(self, n, d):
        report = monge_check(n, d)
        assert report.passed
        assert report.violation is None
        assert report.checks > 0

    def test_larger_grid_is_monge(self):
        assert monge_check(3, 3).passed

    def test_corrupted_interior_cell_is_caught(self):
        # +1 at (1, 2) breaks an adjacent inequality that is tight for |i-j|
        corrupted = lambda y: cost_epsilon(y) + (1 if y == (1, 2) else 0)
        report = monge_check(2, 2, cost_fn=corrupted)
        assert not report.passed
        assert report.violation is not None
        assert report.violation.lhs > report.violation.rhs

    def test_budget_enforced(self):
        with pytest.raises(BudgetExceeded):
            monge_check(9, 9, budget=10**6)

    def test_negative_budget_is_a_domain_error(self):
        with pytest.raises(DomainError, match="budget must be >= 0, got -1"):
            monge_check(2, 2, budget=-1)

    def test_violation_reported_in_lexicographic_order(self):
        # +3 on the diagonal cells (1,1) and (2,2) violates the inequality at
        # bases (1,1) and (2,2); the lexicographically first one is reported
        corrupted = lambda y: cost_epsilon(y) + (3 if y in ((1, 1), (2, 2)) else 0)
        report = monge_check(2, 2, cost_fn=corrupted)
        assert not report.passed
        assert report.violation.base == (1, 1)
