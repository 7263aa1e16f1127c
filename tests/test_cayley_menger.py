"""The gap polynomial, its derivatives, and the pairwise decomposition.

Core claims:
    - the gap polynomial of the reference tuple is (4/5)q + (9/10)q^2 +
      (3/10)q^3, with G'(1) = EMD and G''(1) the obstruction
    - (d-1) * EMD = G''(1) + pairwise sum, exactly, on random tuples
    - every derivative at 1 is nonnegative; the k-th vanishes exactly when
      the middle order statistics at levels k..d-k+1 agree in every column
    - equality in the pairwise bound corresponds exactly to obstruction zero
    - the decomposition report carries the gap polynomial it was built from,
      and builds the tuple's sorted columns once
    - the vanishing count distinguishes identical tuples, generic tuples, and
      tuples with tied middles
"""

from fractions import Fraction as F

import pytest

from emdkit import (
    DistTuple,
    DomainError,
    Lattice,
    cm_decompose,
    column,
    cumulative,
    distribution_from_cumulative,
    emd,
    emd_pairwise,
    g_derivative_at_one,
    g_polynomial,
    validate_distribution,
    vanishing_order,
)

from conftest import random_rational_distribution, random_rational_tuple


def tuple_with_tied_middles(rng, n, d, k):
    """A random tuple whose sorted columns agree at levels k..d-k+1.

    Built from a pivot distribution z: k-1 members whose cumulative vectors
    are clamped below z's, k-1 clamped above, and d-2(k-1) copies of z.
    """
    assert 1 <= k <= (d + 1) // 2
    z = random_rational_distribution(rng, n)
    anchor = cumulative(z)
    members = [z] * (d - 2 * (k - 1))
    for _ in range(k - 1):
        low = cumulative(random_rational_distribution(rng, n))
        members.append(
            distribution_from_cumulative(tuple(min(a, b) for a, b in zip(low, anchor)))
        )
        high = cumulative(random_rational_distribution(rng, n))
        members.append(
            distribution_from_cumulative(tuple(max(a, b) for a, b in zip(high, anchor)))
        )
    rng.shuffle(members)
    return DistTuple(tuple(members))


def middles_agree(xs, k):
    """Independent scan of the level-k middle equalities."""
    for j in range(1, xs.n + 1):
        ordered = sorted(column(xs, j))
        block = ordered[k - 1 : xs.d - k + 1]
        if block and block[0] != block[-1]:
            return False
    return True


class TestGPolynomial:
    def test_reference_coefficients(self, golden):
        g = g_polynomial(golden)
        assert dict(g.coeffs) == {1: F(4, 5), 2: F(9, 10), 3: F(3, 10)}

    def test_identical_members_give_zero(self, rng):
        member = random_rational_tuple(rng, 3, 2).members[0]
        g = g_polynomial(DistTuple((member,) * 6))
        assert all(c == 0 for c in g.coeffs.values())

    def test_pair_collapses_to_weight_one(self, rng):
        for _ in range(50):
            xs = random_rational_tuple(rng, rng.randint(1, 4), 2)
            g = g_polynomial(xs)
            assert set(g.coeffs) == {1}
            assert g.coeffs[1] == emd_pairwise(*xs.members)


class TestDerivatives:
    def test_reference_first_derivative(self, golden):
        assert g_derivative_at_one(g_polynomial(golden), 1) == F(7, 2)

    def test_reference_second_derivative(self, golden):
        assert g_derivative_at_one(g_polynomial(golden), 2) == F(18, 5)

    def test_triples_have_no_second_derivative(self, rng):
        for _ in range(30):
            xs = random_rational_tuple(rng, rng.randint(1, 4), 3)
            assert g_derivative_at_one(g_polynomial(xs), 2) == 0

    def test_first_derivative_is_emd(self, rng):
        for _ in range(100):
            xs = random_rational_tuple(rng, rng.randint(1, 4), rng.randint(2, 6))
            assert g_derivative_at_one(g_polynomial(xs), 1) == emd(xs)

    def test_all_orders_nonnegative(self, rng):
        for _ in range(100):
            d = rng.randint(2, 6)
            xs = random_rational_tuple(rng, rng.randint(1, 4), d)
            g = g_polynomial(xs)
            for k in range(1, (d + 1) // 2 + 1):
                assert g_derivative_at_one(g, k) >= 0

    def test_order_must_be_positive(self, golden):
        with pytest.raises(DomainError):
            g_derivative_at_one(g_polynomial(golden), 0)


class TestDecomposition:
    def test_reference_report(self, golden):
        report = cm_decompose(golden)
        assert report.emd == F(7, 2)
        assert report.obstruction == F(18, 5)
        assert report.pairwise_sum == F(139, 10)
        assert report.pairwise[(1, 2)] == F(3, 10)
        assert report.pairwise[(4, 5)] == 2
        assert not report.equality_holds
        assert not report.approximate
        # (d-1) * emd == obstruction + pairwise_sum, spelled out
        assert 5 * report.emd == report.obstruction + report.pairwise_sum

    def test_report_carries_gap_polynomial(self, golden):
        report = cm_decompose(golden)
        assert report.g == g_polynomial(golden)
        assert dict(report.g.coeffs) == {1: F(4, 5), 2: F(9, 10), 3: F(3, 10)}
        assert g_derivative_at_one(report.g, 1) == report.emd
        assert g_derivative_at_one(report.g, 2) == report.obstruction

    def test_columns_built_once(self, golden, monkeypatch):
        calls = []
        build = Lattice.columns

        def counting(lattice):
            calls.append(lattice)
            return build(lattice)

        monkeypatch.setattr(Lattice, "columns", counting)
        assert cm_decompose(golden).emd == F(7, 2)
        assert len(calls) == 1

    def test_identity_on_random_tuples(self, rng):
        for _ in range(150):
            d = rng.randint(2, 6)
            xs = random_rational_tuple(rng, rng.randint(1, 4), d)
            report = cm_decompose(xs)  # raises if the identity fails
            assert (d - 1) * report.emd == report.obstruction + report.pairwise_sum
            assert report.emd >= report.pairwise_sum / (d - 1)
            assert report.equality_holds == (
                report.emd == report.pairwise_sum / (d - 1)
            )

    def test_triples_always_obstruction_free(self, rng):
        for _ in range(50):
            xs = random_rational_tuple(rng, rng.randint(1, 4), 3)
            report = cm_decompose(xs)
            assert report.obstruction == 0
            assert report.equality_holds
            assert report.emd == report.pairwise_sum / 2

    def test_identical_members_all_zero(self, rng):
        member = random_rational_tuple(rng, 3, 2).members[0]
        report = cm_decompose(DistTuple((member,) * 4))
        assert report.emd == 0
        assert report.obstruction == 0
        assert report.pairwise_sum == 0
        assert report.equality_holds

    def test_float_backend_flagged_approximate(self, golden):
        floats = DistTuple(
            tuple(
                validate_distribution([float(m) for m in member.mass])
                for member in golden.members
            )
        )
        report = cm_decompose(floats)
        assert report.approximate
        assert report.emd == pytest.approx(3.5, abs=1e-12)


class TestVanishingCharacterization:
    def test_constructed_middles_kill_the_derivative(self, rng):
        for _ in range(60):
            d = rng.randint(4, 7)
            k = rng.randint(2, (d + 1) // 2)
            xs = tuple_with_tied_middles(rng, rng.randint(1, 4), d, k)
            g = g_polynomial(xs)
            assert g_derivative_at_one(g, k) == 0
            assert middles_agree(xs, k)

    def test_nonvanishing_derivative_implies_broken_middles(self, rng):
        seen = 0
        for _ in range(200):
            d = rng.randint(2, 6)
            xs = random_rational_tuple(rng, rng.randint(1, 4), d)
            g = g_polynomial(xs)
            for k in range(1, (d + 1) // 2 + 1):
                if g_derivative_at_one(g, k) != 0:
                    seen += 1
                    assert not middles_agree(xs, k)
        assert seen > 100  # the scan actually exercised the claim

    def test_vanishing_is_monotone_in_order(self, rng):
        for _ in range(100):
            d = rng.randint(2, 7)
            xs = random_rational_tuple(rng, rng.randint(1, 3), d)
            g = g_polynomial(xs)
            values = [
                g_derivative_at_one(g, k) for k in range(1, (d + 1) // 2 + 1)
            ]
            for a, b in zip(values, values[1:]):
                if a == 0:
                    assert b == 0


class TestVanishingOrder:
    def test_identical_members(self, rng):
        member = random_rational_tuple(rng, 2, 2).members[0]
        for d in (2, 3, 4, 5, 6):
            xs = DistTuple((member,) * d)
            assert vanishing_order(xs) == (d + 1) // 2 + 1

    def test_reference_tuple_generic(self, golden):
        assert vanishing_order(golden) == 1

    def test_tied_middles_on_segment(self):
        def point(t):
            return validate_distribution([F(t), 1 - F(t)])

        xs = DistTuple((point("0.1"), point("0.5"), point("0.5"), point("0.9")))
        assert emd(xs) > 0
        assert vanishing_order(xs) == 2
