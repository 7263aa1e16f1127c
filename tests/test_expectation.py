"""Expected EMD under the uniform distribution: CDFs, integral, oracles.

Core claims:
    - cdf_Fj matches direct integration of the Beta(j, n-j+1) density and
      behaves as a CDF (0 at 0, 1 at 1, weakly increasing, stochastically
      ordered in j)
    - order_stat_cdf reduces correctly and its expectations telescope to
      d * j / (n+1)
    - the integrand vanishes at both endpoints and integrates to the same
      exact rational the independent recursion produces
    - the exact path's packed-integer route gives the literal integral of
      the integrand bit for bit, forms no polynomial product, and agrees
      with quadrature beyond the old d*n = 600 threshold
    - the windowed quadrature agrees with the exact path to 1e-13
      relative, with the integer d = 2 closed form at n = 2000 and 3000,
      and with floor(d^2/4)/(d+1) at n = 1 for d in the thousands; it
      reports its final node count and an error estimate within 1e-14 of
      the value, meets a rule with 8 times its nodes at the cap on d, and
      traces bounded memory at large d and many columns
    - thresholds and budgets are enforced, the quadrature's work budget
      before any incomplete-beta call, and d past its cap is refused; a bool or a non-integer n, d, j, i,
      node count, sample count, seed, worker count or dim is refused
    - gauss_legendre caches its nodes and weights as read-only arrays
"""

import os
import time
import tracemalloc
from fractions import Fraction as F
from functools import partial
from math import comb, factorial

import numpy as np
import pytest
from scipy.integrate import quad

from emdkit import (
    BudgetExceeded,
    Distribution,
    DistTuple,
    DomainError,
    GPolynomial,
    IndexOutOfRange,
    ThresholdExceeded,
    TransportPlan,
    cdf_Fj,
    column,
    cost_counting,
    epsilon,
    expected_emd_exact,
    expected_emd_quadrature,
    expected_emd_recursive,
    g_derivative_at_one,
    gauss_legendre,
    integrand,
    lee_weight,
    lp_oracle_emd,
    mc_expected_emd,
    monge_check,
    order_stat_cdf,
    sample_simplex,
)
from emdkit.expectation import (
    DEFAULT_D_LIMIT,
    DEFAULT_NODE_LIMIT,
    DEFAULT_WORK_LIMIT,
    THRESHOLD_ENV_VAR,
    _column_windows,
    _phi,
    _weight,
    _windowed_sum,
)
from emdkit.polynomial import RationalPolynomial


def beta_cdf_oracle(n, j, z):
    """Numeric integral of the Beta(j, n-j+1) density, independent of cdf_Fj."""
    scale = comb(n, j) * j  # n! / ((j-1)! (n-j)!)
    value, _ = quad(lambda t: scale * t ** (j - 1) * (1 - t) ** (n - j), 0, z)
    return value


class TestCdfFj:
    def test_uniform_case(self):
        assert cdf_Fj(1, 1).coeffs == (0, 1)

    def test_n2_first_partial_sum(self):
        assert cdf_Fj(2, 1).coeffs == (0, 2, -1)

    def test_n3_second_partial_sum(self):
        assert cdf_Fj(3, 2).coeffs == (0, 0, 3, -2)

    def test_matches_density_integration(self):
        for n, j in [(2, 1), (3, 2), (5, 3), (6, 1)]:
            poly = cdf_Fj(n, j)
            for z in (0.1, 0.35, 0.5, 0.8):
                assert poly.evaluate(z) == pytest.approx(
                    beta_cdf_oracle(n, j, z), abs=1e-10
                )

    def test_endpoint_values_exact(self):
        for n in range(1, 11):
            for j in range(1, n + 1):
                poly = cdf_Fj(n, j)
                assert poly.evaluate(F(0)) == 0
                assert poly.evaluate(F(1)) == 1

    def test_weakly_increasing_on_probes(self):
        probes = [F(k, 100) for k in range(101)]
        for n in range(1, 11):
            for j in range(1, n + 1):
                poly = cdf_Fj(n, j)
                values = [poly.evaluate(z) for z in probes]
                assert all(a <= b for a, b in zip(values, values[1:]))

    def test_stochastic_dominance_in_j(self):
        probes = [F(k, 100) for k in range(101)]
        for n in range(2, 11):
            for j in range(1, n):
                low = cdf_Fj(n, j)
                high = cdf_Fj(n, j + 1)
                assert all(low.evaluate(z) >= high.evaluate(z) for z in probes)

    def test_index_out_of_range(self):
        with pytest.raises(IndexOutOfRange):
            cdf_Fj(3, 0)
        with pytest.raises(IndexOutOfRange):
            cdf_Fj(3, 4)


class TestOrderStatCdf:
    def test_single_sample_reduces_to_base_cdf(self):
        for n, j in [(1, 1), (3, 2), (4, 4)]:
            assert order_stat_cdf(n, 1, 1, j).coeffs == cdf_Fj(n, j).coeffs

    def test_max_of_two_uniforms(self):
        assert order_stat_cdf(1, 2, 2, 1).coeffs == (0, 0, 1)

    def test_min_of_two_uniforms(self):
        assert order_stat_cdf(1, 2, 1, 1).coeffs == (0, 2, -1)

    def test_endpoints(self):
        for d in (2, 3, 4):
            for i in range(1, d + 1):
                poly = order_stat_cdf(2, d, i, 1)
                assert poly.evaluate(F(0)) == 0
                assert poly.evaluate(F(1)) == 1

    def test_expectations_telescope(self):
        # sum_i E[i-th order statistic of X_j] = d * E[X_j] = d * j / (n+1)
        for n in (1, 2, 3):
            for d in (1, 2, 3, 4):
                for j in range(1, n + 1):
                    total = sum(
                        1 - order_stat_cdf(n, d, i, j).integral_01()
                        for i in range(1, d + 1)
                    )
                    assert total == F(d * j, n + 1)


class TestIntegrand:
    def test_pair_on_segment(self):
        assert integrand(1, 2).coeffs == (0, 2, -2)

    def test_triple_on_segment(self):
        assert integrand(1, 3).coeffs == (0, 3, -3)

    def test_vanishes_at_endpoints(self):
        for n in (1, 2, 3, 4):
            for d in (2, 3, 5, 6):
                poly = integrand(n, d)
                assert poly.evaluate(F(0)) == 0
                assert poly.evaluate(F(1)) == 0
                assert poly.degree <= d * n


class TestExactPath:
    def test_pair_on_segment_is_one_third(self):
        assert expected_emd_exact(1, 2).value == F(1, 3)

    def test_triple_on_segment_is_one_half(self):
        assert expected_emd_exact(1, 3).value == F(1, 2)

    def test_reported_large_value(self):
        res = expected_emd_exact(8, 10)
        assert float(res.value) == pytest.approx(7.9002814, abs=5e-7)
        assert float(res.normalized) == pytest.approx(0.1975, abs=5e-5)
        assert res.method == "exact-integral"

    def test_threshold_enforced(self):
        with pytest.raises(ThresholdExceeded):
            expected_emd_exact(7, 215)

    def test_threshold_env_override(self):
        os.environ[THRESHOLD_ENV_VAR] = "10"
        try:
            with pytest.raises(ThresholdExceeded):
                expected_emd_exact(4, 3)
            assert expected_emd_exact(2, 5).value == expected_emd_recursive((2,) * 5)
        finally:
            del os.environ[THRESHOLD_ENV_VAR]

    def test_monotone_in_n_and_d(self):
        values = {
            (n, d): expected_emd_exact(n, d).value
            for n in range(1, 5)
            for d in range(2, 7)
        }
        for n in range(1, 5):
            for d in range(2, 6):
                assert values[(n, d)] < values[(n, d + 1)]
        for n in range(1, 4):
            for d in range(2, 7):
                assert values[(n, d)] < values[(n + 1, d)]

    def test_normalized_value_lies_in_unit_interval(self):
        for n in range(1, 5):
            for d in range(2, 7):
                res = expected_emd_exact(n, d)
                assert 0 <= res.normalized <= 1
                assert res.normalized == res.value / (n * (d // 2))


def beta_fn(p, q):
    return F(factorial(p - 1) * factorial(q - 1), factorial(p + q - 1))


def pair_closed_form(n):
    """E[EMD] for d = 2: the sum over j of the Beta(j, n-j+1) mean difference.

    For iid Beta(a, b), E|X - Y| = 4 B(a+b, a+b) / ((a+b) B(a,a) B(b,b)).
    """
    return sum(
        F(4, n + 1) * beta_fn(n + 1, n + 1) / (beta_fn(j, j) * beta_fn(n + 1 - j, n + 1 - j))
        for j in range(1, n + 1)
    )


def pair_integer_oracle(n):
    """E[EMD] for d = 2 in integers: 4 (n!)^2 / ((2n+1)! (n+1)) sum_j c_(j-1) c_(n-j).

    c_k = (2k+1) C(2k,k); this is the Beta mean difference of
    ``pair_closed_form`` written over one denominator.
    """
    central = [1]  # C(2k, k)
    for k in range(n - 1):
        central.append(central[-1] * 2 * (2 * k + 1) // (k + 1))
    c = [(2 * k + 1) * b for k, b in enumerate(central)]
    total = sum(c[j - 1] * c[n - j] for j in range(1, n + 1))
    return F(4 * factorial(n) ** 2 * total, factorial(2 * n + 1) * (n + 1))


class TestPackedIntegerRoute:
    """``expected_emd_exact`` against the literal integral of ``integrand``."""

    @staticmethod
    def assert_literal(n, d):
        value = expected_emd_exact(n, d).value
        assert type(value) is F
        assert value == integrand(n, d).integral_01(), (n, d)

    def test_grid_matches_literal_integral(self):
        for n in range(1, 11):
            for d in range(2, 11):
                self.assert_literal(n, d)

    @pytest.mark.parametrize("n, d", [(22, 9), (14, 14), (16, 12), (30, 20)])
    def test_workload_shapes_match_literal_integral(self, n, d):
        self.assert_literal(n, d)

    def test_odd_and_even_n(self):
        # an odd n has a middle column that is its own mirror
        for n in range(11, 17):
            self.assert_literal(n, 5)
            self.assert_literal(n, 6)

    def test_mirrored_columns_have_equal_integrals(self):
        for n, d in [(5, 3), (6, 4), (7, 5)]:
            phi = _phi(d)
            for j in range(1, n + 1):
                left = phi.compose(cdf_Fj(n, j)).integral_01()
                assert left == phi.compose(cdf_Fj(n, n + 1 - j)).integral_01()

    def test_tight_packing_single_site(self):
        # n = 1: every slot holds a coefficient of 1 in a one-byte slot
        for d in range(2, 41):
            self.assert_literal(1, d)
            assert expected_emd_exact(1, d).value == F(
                sum(min(k, d - k) for k in range(1, d)), d + 1
            )

    def test_tight_packing_pairs(self):
        # d = 2: the largest n the threshold allows here fills the widest slots
        for n in range(1, 201):
            assert expected_emd_exact(n, 2).value == pair_closed_form(n), n
        for n in (40, 41, 64):
            self.assert_literal(n, 2)

    def test_tight_packing_many_members(self):
        self.assert_literal(3, 60)

    @pytest.mark.parametrize("n, d", [(100, 8), (40, 20)])
    def test_beyond_old_threshold_agrees_with_quadrature(self, n, d):
        assert n * d > 600
        exact = float(expected_emd_exact(n, d).value)
        assert abs(expected_emd_quadrature(n, d).value - exact) / exact <= 1e-13

    def test_no_polynomial_products(self, monkeypatch):
        calls = []
        for name in ("__mul__", "compose"):
            original = getattr(RationalPolynomial, name)

            def counted(self, *args, _name=name, _original=original):
                calls.append(_name)
                return _original(self, *args)

            monkeypatch.setattr(RationalPolynomial, name, counted)
        expected_emd_exact(22, 9)
        assert calls == []
        integrand(2, 2)  # the wrappers do count
        assert calls


class TestRecursion:
    def test_pair_of_segments(self):
        assert expected_emd_recursive((1, 1)) == F(1, 3)

    def test_triple_of_segments(self):
        assert expected_emd_recursive((1, 1, 1)) == F(1, 2)

    def test_all_zero_base_case(self):
        assert expected_emd_recursive((0, 0, 0, 0)) == 0

    def test_symmetric_in_dims(self):
        assert expected_emd_recursive((2, 1, 3)) == expected_emd_recursive((3, 2, 1))

    def test_budget_enforced(self):
        with pytest.raises(BudgetExceeded):
            expected_emd_recursive((8,) * 10)

    def test_rejects_negative_dims(self):
        with pytest.raises(DomainError):
            expected_emd_recursive((1, -1))

    def test_agrees_with_integral_on_grid(self):
        for n in (1, 2, 3):
            for d in (2, 3, 4):
                assert expected_emd_exact(n, d).value == expected_emd_recursive((n,) * d)


class TestQuadrature:
    def test_large_d_reported_value(self):
        res = expected_emd_quadrature(6, 100)
        assert res.value == pytest.approx(72.6685, abs=5e-3)
        assert res.method == "quadrature"

    def test_pair_on_segment(self):
        assert expected_emd_quadrature(1, 2).value == pytest.approx(1 / 3, abs=1e-9)

    def test_large_exact_value(self):
        assert expected_emd_quadrature(8, 10).value == pytest.approx(
            7.9002814, abs=1e-6
        )

    def test_agrees_with_exact_path(self):
        for n in range(1, 13):  # odd and even n: the middle column counts once
            for d in range(2, 13):
                exact = float(expected_emd_exact(n, d).value)
                quadrature = expected_emd_quadrature(n, d).value
                assert abs(quadrature - exact) / exact <= 1e-13, (n, d)

    @pytest.mark.parametrize("d", [1500, 5000, 8000, DEFAULT_D_LIMIT])
    def test_single_site_closed_form_at_large_d(self, d):
        exact = (d * d // 4) / (d + 1)  # E min(K, d-K) for K ~ Bin(d, U), U uniform
        assert abs(expected_emd_quadrature(1, d).value - exact) / exact <= 1e-13

    @pytest.mark.parametrize("d", [DEFAULT_D_LIMIT + 1, 10**10])
    def test_d_past_limit_refused(self, d):
        # at d = 10^10 the 64- and 128-node totals both miss phi_d's bend at
        # u = 1/2 and agree on a value 1e-10 relative off
        with pytest.raises(BudgetExceeded, match="exceeds limit"):
            expected_emd_quadrature(1, d)

    @pytest.mark.parametrize("n", [2, 3, 10, 100])
    def test_doubling_meets_a_finer_rule_at_the_d_limit(self, n):
        res = expected_emd_quadrature(n, DEFAULT_D_LIMIT)
        x, w = gauss_legendre(8 * res.nodes)
        fine = _windowed_sum(DEFAULT_D_LIMIT, _column_windows(n), x, w)
        assert abs(res.value - fine) <= 1e-14 * fine

    def test_traced_peak_is_small_at_large_d(self):
        expected_emd_quadrature(1, 2)  # loads scipy outside the trace
        tracemalloc.start()
        try:
            expected_emd_quadrature(1, 8000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20

    def test_weight_matches_exact_polynomial(self):
        probes = [0.0, 1e-12, 1e-3, 0.1, 0.3, 0.49, 0.5, 0.51, 0.8, 0.999, 1.0]
        for d in range(2, 41):
            phi = _phi(d)
            values = _weight(d, np.array(probes))
            for u, value in zip(probes, values):
                assert abs(value - float(phi.evaluate(F(u)))) <= 1e-15 * d, (d, u)

    def test_traced_peak_is_small_over_many_columns(self):
        expected_emd_quadrature(1, 2)
        tracemalloc.start()
        try:
            expected_emd_quadrature(6000, 2)  # 3000 columns
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20

    def test_pair_integer_oracle_is_exact(self):
        for n in range(1, 31):
            assert pair_integer_oracle(n) == expected_emd_exact(n, 2).value, n

    @pytest.mark.parametrize("n", [2000, 3000])
    def test_pair_integer_oracle_beyond_threshold(self, n):
        exact = float(pair_integer_oracle(n))
        assert abs(expected_emd_quadrature(n, 2).value - exact) / exact <= 1e-13

    @pytest.mark.parametrize(
        "n, d, nodes",
        [
            (8, 10, 41),  # the exact count is below the start: one pass at it
            (22, 9, 100),  # 64, then the exact 100
            (40, 40, 128),  # 64 and 128 agree
            (1000, 2, 128),
            (1, 5000, 128),
        ],
    )
    def test_reports_final_nodes_and_error(self, n, d, nodes):
        res = expected_emd_quadrature(n, d)
        assert res.nodes == nodes
        assert 0.0 <= res.error <= 1e-14 * res.value
        if nodes >= (d * n + 2) // 2:
            assert res.error == 0.0

    def test_work_budget_refuses_before_evaluating(self, monkeypatch):
        import scipy.special

        calls = []
        for name in ("betainc", "betaincinv"):
            monkeypatch.setattr(scipy.special, name, lambda *args, _n=name: calls.append(_n))
        n = 2 * (DEFAULT_WORK_LIMIT // (2 * (64 + 128)) + 1)  # two passes exceed the budget
        start = time.process_time()
        with pytest.raises(BudgetExceeded, match="exceed limit"):
            expected_emd_quadrature(n, 2)
        assert time.process_time() - start < 0.1
        assert calls == []

    def test_minimum_node_count_suffices(self):
        minimum = (4 * 10 + 2) // 2
        value = expected_emd_quadrature(4, 10, nodes=minimum).value
        exact = float(expected_emd_exact(4, 10).value)
        assert value == pytest.approx(exact, rel=1e-9)


class TestGaussLegendre:
    @pytest.mark.parametrize("nodes", [1, 2, 3, 8, 64, 309])
    def test_matches_numpy_reference(self, nodes):
        x, w = gauss_legendre(nodes)
        xr, wr = np.polynomial.legendre.leggauss(nodes)
        assert np.allclose(np.sort(x), np.sort(xr), atol=1e-13, rtol=0)
        assert np.allclose(np.sort(w), np.sort(wr), atol=1e-12, rtol=0)

    def test_integrates_monomials_exactly(self):
        x, w = gauss_legendre(6)
        for power in range(0, 12):  # exact through degree 2*6-1
            integral = float(w @ x**power)
            expected = 0.0 if power % 2 else 2.0 / (power + 1)
            assert integral == pytest.approx(expected, abs=1e-13)

    def test_weights_positive_and_sum_to_two(self):
        x, w = gauss_legendre(40)
        assert np.all(w > 0)
        assert float(np.sum(w)) == pytest.approx(2.0, abs=1e-12)

    def test_cached_arrays_are_read_only(self):
        x, w = gauss_legendre(17)
        assert gauss_legendre(17)[0] is x
        for array in (x, w):
            with pytest.raises(ValueError):
                array[0] = 0.0

    def test_node_budget_enforced(self):
        with pytest.raises(BudgetExceeded):
            gauss_legendre(DEFAULT_NODE_LIMIT + 1)
        with pytest.raises(BudgetExceeded):
            expected_emd_quadrature(3, 4, nodes=10**12)


def mc_workers(workers):
    return mc_expected_emd(2, 2, 10, 0, workers=workers)


PAIR = DistTuple((Distribution((1, 0)), Distribution((0, 1))))


@pytest.mark.parametrize(
    "function, args, culprit",
    [
        (expected_emd_exact, (True, 2), "n"),
        (expected_emd_exact, (2.5, 2), "n"),
        (expected_emd_exact, (2, "3"), "d"),
        (expected_emd_quadrature, (2.5, 3), "n"),
        (expected_emd_quadrature, (3, 4, True), "nodes"),
        (expected_emd_quadrature, (3, 4, 20.0), "nodes"),
        (expected_emd_recursive, ((True, 2),), "dims entry"),
        (expected_emd_recursive, ((1, 1.0),), "dims entry"),
        (mc_expected_emd, (2.5, 3, 100, 0), "n"),
        (mc_expected_emd, (3, False, 100, 0), "d"),
        (mc_expected_emd, (3, 4, 100.0, 0), "samples"),
        (mc_expected_emd, (3, 4, 100, 1.5), "seed"),
        (mc_expected_emd, (3, 4, 100, True), "seed"),
        (gauss_legendre, (True,), "nodes"),
        (gauss_legendre, (2.5,), "nodes"),
        (integrand, (True, 2), "n"),
        (cdf_Fj, (3, True), "j"),
        (cdf_Fj, (2.5, 1), "n"),
        (order_stat_cdf, (2.5, 2, 1, 1), "n"),
        (mc_workers, (True,), "workers"),
        (mc_workers, (2.5,), "workers"),
        (lee_weight, (2.5, 4), "k"),
        (lee_weight, (True, 2), "k"),
        (lee_weight, (1, 4.0), "d"),
        (epsilon, (1.5, 3), "i"),
        (epsilon, (1, True), "d"),
        (cost_counting, ((1, 2), 2.5), "n"),
        (monge_check, (2.5, 2), "n"),
        (monge_check, (True, 2), "n"),
        (monge_check, (2, 2.0), "d"),
        (partial(monge_check, budget=10.0), (2, 2), "budget"),
        (partial(lp_oracle_emd, budget=True), (PAIR,), "budget"),
        (column, (PAIR, True), "j"),
        (column, (PAIR, 1.0), "j"),
        (g_derivative_at_one, (GPolynomial(2, {1: 0}), 2.5), "k"),
        (sample_simplex, (2.5, None), "n"),
        (TransportPlan, (2.5, 2, {}), "n"),
        (TransportPlan, (2, True, {}), "d"),
        (GPolynomial, (2.5, {}), "d"),
        (GPolynomial, (4, {1.0: 0}), "Lee weight"),
    ],
)
def test_bools_and_non_integers_refused(function, args, culprit):
    gauss_legendre(1)  # a cached int entry must not answer for True
    with pytest.raises(DomainError, match=f"^{culprit} must be an integer"):
        function(*args)
