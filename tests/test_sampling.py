"""Uniform simplex sampling and Monte Carlo estimation.

Core claims:
    - sample_simplex returns valid distributions whose partial sums have the
      documented Beta marginals (means j/(n+1), CDF matching cdf_Fj)
    - mc_expected_emd is bit-reproducible, invariant under worker
      partitioning, and lands within 3 standard errors of the exact value;
      a sample count beyond DEFAULT_SAMPLE_LIMIT, more uniforms than
      SAMPLE_UNIFORM_LIMIT per sample or UNIFORM_LIMIT in all, and a seed
      outside [0, 2^64) are refused up front
    - the block kernel gives every sample the value of the per-sample
      formula (sort each member, sort each column, Lee-weight the gaps) on
      its (d, n) slice of the block's (seed, block) substream, a short last
      block reading a prefix of its stream
"""

import re
import tracemalloc
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
from emdkit.sampling import (
    _BLOCK_UNIFORMS,
    DEFAULT_SAMPLE_LIMIT,
    SAMPLE_UNIFORM_LIMIT,
    UNIFORM_LIMIT,
    _block_emds,
)


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


def block_uniforms(seed, block, count, d, n):
    return np.random.Generator(np.random.Philox(key=(seed << 64) | block)).random((count, d, n))


def per_sample_emd(u, wt):
    """One sample's EMD from its (d, n) uniforms: sort each member, then each column."""
    columns = np.sort(np.sort(u, axis=1), axis=0)
    return float(np.sum(np.diff(columns, axis=0) * wt[:, None]))


class TestBlockKernel:
    N, D = 4, 5
    SIZE = _BLOCK_UNIFORMS // (N * D)  # samples per block
    K = np.arange(1, D, dtype=np.float64)
    WT = np.minimum(K, D - K)

    def test_block_values_match_per_sample_formula(self):
        values = _block_emds(self.N, self.D, 7, 2, self.SIZE, self.WT)
        u = block_uniforms(7, 2, self.SIZE, self.D, self.N)
        assert values.shape == (self.SIZE,)
        for s in range(self.SIZE):
            assert values[s] == pytest.approx(per_sample_emd(u[s], self.WT), rel=1e-12)

    def test_short_block_reads_a_prefix_of_its_stream(self):
        full = _block_emds(self.N, self.D, 7, 2, self.SIZE, self.WT)
        short = _block_emds(self.N, self.D, 7, 2, 10, self.WT)
        assert np.allclose(short, full[:10], rtol=1e-12, atol=0)

    def test_estimate_is_the_mean_over_block_streams(self):
        samples = 2 * self.SIZE + self.SIZE // 2
        estimate = mc_expected_emd(self.N, self.D, samples, seed=9)
        values = [
            per_sample_emd(u, self.WT)
            for block, count in ((0, self.SIZE), (1, self.SIZE), (2, self.SIZE // 2))
            for u in block_uniforms(9, block, count, self.D, self.N)
        ]
        assert len(values) == samples
        assert estimate.mean == pytest.approx(np.mean(values), rel=1e-12)
        assert estimate.stderr == pytest.approx(np.std(values, ddof=1) / sqrt(samples), rel=1e-9)

    def test_partition_invariant_over_two_and_a_half_blocks(self):
        samples = 2 * self.SIZE + self.SIZE // 2
        base = mc_expected_emd(self.N, self.D, samples, seed=13)
        for workers in range(1, 6):
            assert mc_expected_emd(self.N, self.D, samples, seed=13, workers=workers) == base


class TestMcExpectedEmd:
    def test_bit_reproducible(self):
        a = mc_expected_emd(3, 4, 5_000, seed=7)
        b = mc_expected_emd(3, 4, 5_000, seed=7)
        assert a == b

    def test_worker_partition_invariant(self):
        base = mc_expected_emd(2, 3, 4_001, seed=11)
        for workers in (2, 3, 4):
            assert mc_expected_emd(2, 3, 4_001, seed=11, workers=workers) == base

    def test_workers_past_the_block_count_do_no_work(self):
        # 1,000 samples of n=3, d=4 fill one block; a span per worker would
        # cost time and memory in proportion to workers.
        base = mc_expected_emd(3, 4, 1_000, 5)
        tracemalloc.start()
        try:
            estimate = mc_expected_emd(3, 4, 1_000, 5, workers=2**20)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert estimate == base
        assert peak < 2**20

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

    @pytest.mark.parametrize(
        "n, d, samples, culprit",
        [
            (10**9, 2, 2, "per-sample limit"),
            (10**7, 10, 10**6, "per-sample limit"),
            (1, SAMPLE_UNIFORM_LIMIT + 1, 2, "per-sample limit"),
            (64, 64, UNIFORM_LIMIT // 4096 + 1, f"in all) exceed limit {UNIFORM_LIMIT}"),
        ],
    )
    def test_uniform_budget_refused_before_any_array(self, n, d, samples, culprit):
        # Admitted, the first shape would ask for a 15 GiB block in one call.
        tracemalloc.start()
        try:
            with pytest.raises(BudgetExceeded, match=re.escape(culprit)):
                mc_expected_emd(n, d, samples, seed=0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**16

    @pytest.mark.parametrize("seed", [-1, 2**64, 2**64 + 5])
    def test_seed_outside_64_bits_rejected(self, seed):
        with pytest.raises(DomainError, match=r"seed must lie in \[0, 2\^64\)"):
            mc_expected_emd(3, 4, 100, seed)

    def test_largest_seed_accepted(self):
        assert mc_expected_emd(3, 4, 100, 2**64 - 1).seed == 2**64 - 1
