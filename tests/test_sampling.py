"""Uniform simplex sampling and Monte Carlo estimation.

Core claims:
    - sample_simplex returns valid distributions whose partial sums have the
      documented Beta marginals (means j/(n+1), CDF matching cdf_Fj)
    - mc_expected_emd is bit-reproducible, invariant under worker
      partitioning, and lands within 3 standard errors of the exact value;
      a sample count beyond DEFAULT_SAMPLE_LIMIT is refused up front
"""

from math import sqrt

import numpy as np
import pytest

from emdkit import (
    BudgetExceeded,
    DomainError,
    cdf_Fj,
    expected_emd_exact,
    mc_expected_emd,
    sample_simplex,
)
from emdkit.sampling import DEFAULT_SAMPLE_LIMIT


def fresh_rng(seed=123):
    return np.random.Generator(np.random.Philox(key=seed))


class TestSampleSimplex:
    def test_segment_case_is_uniform_pair(self):
        rng = fresh_rng()
        d = sample_simplex(1, rng)
        assert d.n == 1
        assert 0 <= d.mass[0] <= 1
        assert d.mass[0] + d.mass[1] == pytest.approx(1.0, abs=1e-15)

    def test_outputs_are_valid_distributions(self):
        rng = fresh_rng()
        for _ in range(500):
            d = sample_simplex(4, rng)
            assert all(m >= 0 for m in d.mass)
            assert sum(d.mass) == pytest.approx(1.0, abs=1e-12)

    def test_rejects_bad_n(self):
        with pytest.raises(DomainError):
            sample_simplex(0, fresh_rng())

    def test_partial_sum_means(self):
        # E[X_j] = j / (n+1) for the flat case
        n, samples = 3, 100_000
        rng = fresh_rng(2024)
        totals = np.zeros(n)
        sq_totals = np.zeros(n)
        for _ in range(samples):
            partial = np.cumsum(sample_simplex(n, rng).mass[:-1])
            totals += partial
            sq_totals += partial**2
        means = totals / samples
        stderr = np.sqrt((sq_totals / samples - means**2) / (samples - 1))
        for j in range(1, n + 1):
            expected = j / (n + 1)
            assert abs(means[j - 1] - expected) <= 3 * stderr[j - 1]

    @pytest.mark.parametrize("n,j", [(2, 1), (3, 2)])
    def test_partial_sum_cdf_matches_polynomial(self, n, j):
        samples = 40_000
        rng = fresh_rng(99)
        poly = cdf_Fj(n, j)
        hits = {z: 0 for z in (0.25, 0.5, 0.75)}
        for _ in range(samples):
            value = float(sum(sample_simplex(n, rng).mass[:j]))
            for z in hits:
                if value <= z:
                    hits[z] += 1
        for z, count in hits.items():
            p = poly.evaluate(z)
            stderr = sqrt(p * (1 - p) / samples)
            assert abs(count / samples - p) <= 3 * stderr


class TestMcExpectedEmd:
    def test_bit_reproducible(self):
        a = mc_expected_emd(3, 4, 5_000, seed=7)
        b = mc_expected_emd(3, 4, 5_000, seed=7)
        assert a == b

    def test_worker_partition_invariant(self):
        base = mc_expected_emd(2, 3, 4_001, seed=11)
        for workers in (2, 3, 4):
            assert mc_expected_emd(2, 3, 4_001, seed=11, workers=workers) == base

    def test_different_seeds_differ(self):
        assert mc_expected_emd(2, 3, 1_000, seed=1) != mc_expected_emd(
            2, 3, 1_000, seed=2
        )

    def test_within_three_stderr_of_exact(self):
        estimate = mc_expected_emd(3, 4, 50_000, seed=31337)
        exact = float(expected_emd_exact(3, 4).value)
        assert abs(estimate.mean - exact) <= 3 * estimate.stderr

    def test_pair_on_segment(self):
        estimate = mc_expected_emd(1, 2, 50_000, seed=5)
        assert abs(estimate.mean - 1 / 3) <= 3 * estimate.stderr

    def test_two_samples_legal(self):
        estimate = mc_expected_emd(2, 2, 2, seed=0)
        assert estimate.samples == 2
        assert estimate.stderr >= 0
        assert np.isfinite(estimate.stderr)

    def test_one_sample_rejected(self):
        with pytest.raises(DomainError):
            mc_expected_emd(2, 2, 1, seed=0)

    def test_sample_budget_enforced(self):
        with pytest.raises(BudgetExceeded):
            mc_expected_emd(3, 4, DEFAULT_SAMPLE_LIMIT + 1, seed=0)
        with pytest.raises(BudgetExceeded):
            mc_expected_emd(3, 4, 10**12, seed=0)
