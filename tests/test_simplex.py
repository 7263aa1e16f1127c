"""Domain types: validation, cumulative transforms, columns.

Core claims:
    - validate_distribution enforces length, nonnegativity, and unit sum,
      renormalizing float input within 1e-12; NaN, infinities, bools and
      non-numbers are rejected as masses, there and in Distribution itself;
      Decimal and numpy float masses are read as floats; a sum too long to
      print in full is reported to six digits
    - cumulative is the exact partial-sum transform and is injective
    - a tuple's lattice stores each member's partial sums, equal to the
      prefix sums; a Distribution holds its masses and nothing else, in
      equality, hashing and repr
    - column extracts cumulative columns in member order, 1-based
    - the lattice's columns are every column sorted, equal to
      sorted(D * column(xs, j)), on exact and float tuples with zero masses
      and ties
    - a tuple member that is not a Distribution is refused, by position
"""

from decimal import Decimal
from fractions import Fraction as F

import numpy as np
import pytest

from emdkit import (
    DistTuple,
    Distribution,
    DomainError,
    IndexOutOfRange,
    InvalidNumber,
    LengthTooShort,
    NegativeMass,
    SumNotOne,
    column,
    cumulative,
    distribution_from_cumulative,
    validate_distribution,
)

from conftest import golden_tuple, random_rational_distribution


def frac(*vals):
    return [F(v) for v in vals]


class TestValidateDistribution:
    def test_reference_row(self):
        d = validate_distribution(frac("0.2", "0.2", "0.2", "0.4"))
        assert d.n == 3
        assert d.mass == (F(1, 5), F(1, 5), F(1, 5), F(2, 5))
        assert d.exact

    def test_single_entry_too_short(self):
        with pytest.raises(LengthTooShort):
            validate_distribution([F(1)])

    def test_sum_not_one(self):
        with pytest.raises(SumNotOne):
            validate_distribution(frac("0.5", "0.6"))

    def test_sum_with_a_huge_denominator_is_sum_not_one(self):
        # The sum's denominator has about 5,000 digits, past int-to-str's limit.
        masses = [F(1, 10**999 + k) for k in (1, 3, 7, 9, 11)]
        with pytest.raises(SumNotOne, match=r"sum to about 5\.00000E-999 .*4996 digits"):
            validate_distribution(masses)
        with pytest.raises(SumNotOne, match=r"sum to 11/10, not 1"):
            validate_distribution(frac("0.5", "0.6"))

    def test_negative_mass(self):
        with pytest.raises(NegativeMass):
            validate_distribution(frac("-0.1", "1.1"))

    def test_float_within_tolerance_renormalized(self):
        d = validate_distribution([0.1, 0.2, 0.7 + 5e-13])
        assert not d.exact
        assert sum(d.mass) == pytest.approx(1.0, abs=1e-15)

    def test_float_beyond_tolerance_rejected(self):
        with pytest.raises(SumNotOne):
            validate_distribution([0.1, 0.2, 0.7 + 1e-9])

    def test_exact_sum_must_be_exact(self):
        with pytest.raises(SumNotOne):
            validate_distribution([F(1, 3), F(1, 3), F(1, 3) + F(1, 10**12)])

    @pytest.mark.parametrize(
        "masses, site",
        [
            ([float("nan"), 1.0], "site 1"),
            ([0.5, 0.5, float("nan")], "site 3"),
            ([float("inf"), 1.0], "site 1"),
            ([1.0, float("-inf")], "site 2"),
            ([True, False], "site 1"),
            ([F(1, 2), F(1, 2), False], "site 3"),
            (["0.5", "0.5"], "site 1"),
            ([None, 1], "site 1"),
            ([0.5 + 0j, 0.5], "site 1"),
            ([0.5, F(1, 2), "x"], "site 3"),
            ([Decimal("NaN"), 1], "site 1"),
            ([0.5, Decimal("sNaN")], "site 2"),
        ],
    )
    def test_non_finite_and_bool_masses_rejected(self, masses, site):
        with pytest.raises(InvalidNumber, match=site) as exc:
            validate_distribution(masses)
        assert isinstance(exc.value, DomainError)

    @pytest.mark.parametrize(
        "masses",
        [
            (float("nan"), 1.0),
            (float("inf"), 0.0),
            (True, False),
            (1, False),
            (Decimal("0.5"), Decimal("0.5")),
        ],
    )
    def test_distribution_rejects_non_finite_and_bool(self, masses):
        with pytest.raises(InvalidNumber):
            Distribution(masses)

    @pytest.mark.parametrize("kind", [Decimal, np.float64, np.float32])
    def test_decimal_and_numpy_masses_read_as_floats(self, kind):
        d = validate_distribution([kind("0.25"), kind("0.75")])
        assert d.mass == (0.25, 0.75) and not d.exact
        assert all(type(m) is float for m in d.mass)

    def test_integer_masses_still_exact(self):
        d = validate_distribution([0, 1])
        assert d.mass == (0, 1) and d.exact


class TestCumulative:
    def test_reference_row(self):
        d = validate_distribution(frac("0.2", "0.2", "0.2", "0.4"))
        assert cumulative(d) == (F(1, 5), F(2, 5), F(3, 5))

    def test_point_mass(self):
        assert cumulative(Distribution((1, 0))) == (1,)

    def test_second_reference_row(self):
        d = validate_distribution(frac("0.3", "0.0", "0.4", "0.3"))
        assert cumulative(d) == (F(3, 10), F(3, 10), F(7, 10))

    def test_round_trip_is_identity(self, rng):
        for _ in range(200):
            d = random_rational_distribution(rng, rng.randint(1, 6))
            assert distribution_from_cumulative(cumulative(d)) == d

    def test_invariants_on_random_distributions(self, rng):
        for _ in range(200):
            d = random_rational_distribution(rng, rng.randint(1, 6))
            partial = cumulative(d)
            assert all(0 <= v <= 1 for v in partial)
            assert all(a <= b for a, b in zip(partial, partial[1:]))

    def test_decreasing_vector_rejected(self):
        with pytest.raises(NegativeMass, match="site 2"):
            distribution_from_cumulative((F(1, 2), F(1, 4)))

    def test_vector_above_one_rejected(self):
        with pytest.raises(NegativeMass, match="site 3"):
            distribution_from_cumulative((F(1, 2), F(3, 2)))

    def test_empty_vector_rejected(self):
        with pytest.raises(LengthTooShort):
            distribution_from_cumulative(())


class TestPartialSums:
    def test_stored_partial_sums_are_the_prefix_sums(self, rng):
        for _ in range(100):
            n = rng.randint(1, 8)
            exact = [random_rational_distribution(rng, n) for _ in range(rng.randint(2, 4))]
            floats = [Distribution(tuple(float(m) for m in x.mass)) for x in exact]
            for xs in (DistTuple(tuple(exact)), DistTuple(tuple(floats))):
                lattice = xs.lattice
                for x, partial in zip(xs.members, lattice.partial):
                    prefix = tuple(sum(x.mass[:j]) for j in range(1, n + 1))
                    assert tuple(map(lattice.value, partial)) == cumulative(x) == prefix

    def test_partial_sums_outside_equality_hash_and_repr(self):
        a = Distribution((F(1, 4), F(3, 4)))
        b = Distribution((F(1, 4), F(3, 4)))
        assert a == b and hash(a) == hash(b)
        assert repr(a) == repr(b) == "Distribution(mass=(Fraction(1, 4), Fraction(3, 4)))"


class TestColumn:
    def test_reference_first_column(self):
        xs = golden_tuple()
        assert column(xs, 1) == (
            F(1, 5), F(3, 10), F(3, 5), F(0), F(7, 10), F(1, 10)
        )

    def test_reference_second_column(self):
        xs = golden_tuple()
        assert column(xs, 2) == (
            F(2, 5), F(3, 10), F(3, 5), F(1, 5), F(4, 5), F(1, 2)
        )

    def test_identical_members_give_constant_column(self, rng):
        d = random_rational_distribution(rng, 3)
        xs = DistTuple((d, d, d))
        for j in range(1, 4):
            col = column(xs, j)
            assert len(set(col)) == 1

    @pytest.mark.parametrize("j", [0, 4, -1])
    def test_out_of_range(self, j):
        with pytest.raises(IndexOutOfRange):
            column(golden_tuple(), j)


class TestSortedColumns:
    @staticmethod
    def assert_matches_column(xs):
        scale = xs.lattice.scale
        cols = xs.lattice.columns()
        assert len(cols) == xs.n
        for j in range(1, xs.n + 1):
            assert cols[j - 1] == sorted(scale * v for v in column(xs, j))

    @staticmethod
    def float_copy(xs):
        return DistTuple(
            tuple(Distribution(tuple(float(m) for m in x.mass)) for x in xs.members)
        )

    def test_reference_first_column(self):
        lattice = golden_tuple().lattice
        assert lattice.scale == 10
        assert lattice.columns()[0] == [0, 1, 2, 3, 6, 7]

    def test_zero_masses_and_ties(self):
        a = validate_distribution(frac("0", "0.5", "0", "0.5"))
        b = validate_distribution(frac("0.5", "0", "0", "0.5"))
        c = validate_distribution(frac("0", "0", "0", "1"))
        xs = DistTuple((a, b, c, a))
        assert xs.lattice.scale == 2
        assert xs.lattice.columns() == [[0, 0, 0, 1], [0, 1, 1, 1], [0, 1, 1, 1]]
        self.assert_matches_column(xs)
        self.assert_matches_column(self.float_copy(xs))

    def test_random_exact_and_float_tuples(self, rng):
        for _ in range(150):
            n, d = rng.randint(1, 8), rng.randint(2, 7)
            den = rng.choice([2, 3, 10, 24])  # small denominators: zero masses, ties
            members = [random_rational_distribution(rng, n, den) for _ in range(d)]
            if rng.random() < 0.5:
                members[-1] = members[0]
            xs = DistTuple(tuple(members))
            self.assert_matches_column(xs)
            self.assert_matches_column(self.float_copy(xs))
            renormalized = DistTuple(
                tuple(
                    validate_distribution([float(m) * (1 + 1e-13) for m in x.mass])
                    for x in members
                )
            )
            self.assert_matches_column(renormalized)


class TestDistTuple:
    def test_mismatched_n_rejected(self):
        a = Distribution((F(1, 2), F(1, 2)))
        b = Distribution((F(1, 3), F(1, 3), F(1, 3)))
        with pytest.raises(Exception):
            DistTuple((a, b))

    def test_single_member_rejected(self):
        a = Distribution((F(1, 2), F(1, 2)))
        with pytest.raises(Exception):
            DistTuple((a,))

    def test_member_that_is_not_a_distribution_refused(self):
        a = Distribution((F(1, 2), F(1, 2)))
        with pytest.raises(DomainError, match="member 2 is a list"):
            DistTuple((a, [0.5, 0.5]))
        with pytest.raises(DomainError, match="member 1 is a tuple"):
            DistTuple(((F(1, 2), F(1, 2)), a))

    def test_members_stored_as_a_tuple(self):
        a = Distribution((F(1, 2), F(1, 2)))
        b = Distribution((1, 0))
        for members in ([a, b], (m for m in (a, b))):
            xs = DistTuple(members)
            assert xs.members == (a, b)
            assert hash(xs) == hash(DistTuple((a, b)))
