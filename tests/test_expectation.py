"""Expected EMD under the uniform distribution: CDFs, integral, oracles.

Core claims:
    - cdf_Fj matches direct integration of the Beta(j, n-j+1) density and
      behaves as a CDF (0 at 0, 1 at 1, weakly increasing, stochastically
      ordered in j)
    - order_stat_cdf reduces correctly and its expectations telescope to
      d * j / (n+1)
    - the integrand vanishes at both endpoints and integrates to the same
      exact rational the independent recursion produces
    - the quadrature path agrees with the exact path to 1e-9 relative
    - thresholds, budgets, and node minimums are enforced
"""

import os
from fractions import Fraction as F
from math import comb

import numpy as np
import pytest
from scipy.integrate import quad

from emdkit import (
    BudgetExceeded,
    DomainError,
    IndexOutOfRange,
    InsufficientNodes,
    ThresholdExceeded,
    cdf_Fj,
    expected_emd_exact,
    expected_emd_quadrature,
    expected_emd_recursive,
    gauss_legendre,
    integrand,
    order_stat_cdf,
)
from emdkit.expectation import DEFAULT_NODE_LIMIT, THRESHOLD_ENV_VAR


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
            expected_emd_exact(7, 100)

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
        for n in (1, 2, 3, 4):
            for d in (2, 3, 5, 8):
                exact = float(expected_emd_exact(n, d).value)
                quadrature = expected_emd_quadrature(n, d).value
                assert abs(quadrature - exact) / exact <= 1e-9

    def test_insufficient_nodes_rejected(self):
        with pytest.raises(InsufficientNodes):
            expected_emd_quadrature(4, 10, nodes=10)

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

    def test_node_budget_enforced(self):
        with pytest.raises(BudgetExceeded):
            gauss_legendre(DEFAULT_NODE_LIMIT + 1)
        with pytest.raises(BudgetExceeded):
            expected_emd_quadrature(3, 4, nodes=10**12)
