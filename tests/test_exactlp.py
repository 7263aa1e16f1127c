"""The exact simplex solver on hand-checked and seeded programs.

Core claims:
    - optimal values and vertices on small hand-checked programs, including
      redundant rows, negative right-hand sides and a degenerate start
    - infeasible and unbounded programs raise Infeasible / Unbounded
    - the inputs a, b and c are left unchanged
    - on seeded transportation programs the returned vertex is feasible and
      its cost is the returned value
    - the integer tableau returns the identical value and vertex as the
      Fraction tableau of ``reference.py`` (same pivots, same answers) on the
      seeded programs, a fractional-A program, random programs with signed
      and fractional entries, and criterion 07's 100 LP-oracle programs
"""

import copy
import random
from fractions import Fraction as F

import pytest

import emdkit.transport
from emdkit import lp_oracle_emd
from emdkit.errors import Infeasible, Unbounded
from emdkit.exactlp import solve_min

from conftest import random_rational_tuple
from reference import fraction_solve_min, solution_digest


def test_tiny_transportation_program():
    # supplies (3/10, 7/10) to demands (8/10, 2/10) with |i-j| costs
    a = [
        [1, 1, 0, 0],
        [0, 0, 1, 1],
        [1, 0, 1, 0],
        [0, 1, 0, 1],
    ]
    b = [F(3, 10), F(7, 10), F(8, 10), F(2, 10)]
    c = [0, 1, 1, 0]
    value, x = solve_min(a, b, c)
    assert value == F(1, 2)
    assert all(v >= 0 for v in x)
    assert x[0] + x[1] == F(3, 10)
    assert x[0] + x[2] == F(8, 10)


def test_redundant_constraints_are_dropped():
    # third row is the sum of the first two
    a = [[1, 0], [0, 1], [1, 1]]
    b = [2, 3, 5]
    c = [1, 1]
    value, x = solve_min(a, b, c)
    assert value == 5
    assert x == [2, 3]


def test_negative_rhs_normalized():
    a = [[-1, 0], [0, 1]]
    b = [-4, 1]
    c = [2, 3]
    value, x = solve_min(a, b, c)
    assert value == 11
    assert x == [4, 1]


def test_infeasible_detected():
    a = [[1, 1], [1, 1]]
    b = [1, 2]
    c = [1, 1]
    with pytest.raises(Infeasible):
        solve_min(a, b, c)


def test_unbounded_detected():
    # x0 - x1 = 0 with objective -x0 runs off to infinity
    a = [[1, -1]]
    b = [0]
    c = [-1, 0]
    with pytest.raises(Unbounded):
        solve_min(a, b, c)


def test_degenerate_vertex_handled():
    # b = 0 forces a fully degenerate start; Bland's rule must still exit
    a = [[1, 1, 0], [0, 1, 1]]
    b = [0, 0]
    c = [1, -1, 2]
    value, x = solve_min(a, b, c)
    assert value == 0
    assert x == [0, 0, 0]


FRACTIONAL_PROGRAM = (
    [[-1, 0, 2], [0, F(1, 2), 1], [-1, F(1, 2), 3]],  # row 3 = row 1 + row 2
    [F(-4), 1, F(-3)],
    [2, 3, F(1, 3)],
)


def test_inputs_left_unchanged():
    a, b, c = copy.deepcopy(FRACTIONAL_PROGRAM)
    before = copy.deepcopy((a, b, c))
    solve_min(a, b, c)
    assert (a, b, c) == before
    assert [[type(v) for v in row] for row in a] == [[type(v) for v in row] for row in before[0]]


def _transportation_program(rng):
    """Supplies s_i to demands t_j on a grid: every program has a redundant row."""
    rows, cols = rng.randint(1, 4), rng.randint(1, 4)
    units = rng.randint(0, 6)
    supply, demand = [0] * rows, [0] * cols
    for _ in range(units):  # zero masses are common
        supply[rng.randrange(rows)] += 1
        demand[rng.randrange(cols)] += 1
    scale = rng.choice([1, 3, 7])
    nv = rows * cols
    a = [[int(k // cols == i) for k in range(nv)] for i in range(rows)]
    a += [[int(k % cols == j) for k in range(nv)] for j in range(cols)]
    b = [F(v, scale) for v in supply + demand]
    c = [rng.randint(-3, 5) for _ in range(nv)]
    return a, b, c


def test_seeded_transportation_vertices_are_feasible():
    rng = random.Random(9001)
    for _ in range(50):
        a, b, c = _transportation_program(rng)
        value, x = solve_min(a, b, c)
        assert all(v >= 0 for v in x)
        assert [sum(ai * xi for ai, xi in zip(row, x)) for row in a] == b
        assert sum(ci * xi for ci, xi in zip(c, x)) == value


def outcome(solver, a, b, c):
    try:
        return solver(a, b, c)
    except (Infeasible, Unbounded) as exc:
        return type(exc).__name__


class TestAgainstFractionTableau:
    def test_seeded_transportation_programs(self):
        rng = random.Random(9001)
        for _ in range(50):
            a, b, c = _transportation_program(rng)
            assert solve_min(a, b, c) == fraction_solve_min(a, b, c)

    def test_fractional_program(self):
        result = solve_min(*FRACTIONAL_PROGRAM)
        assert result == fraction_solve_min(*FRACTIONAL_PROGRAM)
        assert result == (F(37, 3), [6, 0, 1])

    def test_random_signed_fractional_programs(self):
        rng = random.Random(2311)

        def entry():
            return rng.choice([0, 0, rng.randint(-3, 4), F(rng.randint(-9, 9), rng.choice([2, 3, 7]))])

        outcomes = set()
        for _ in range(300):
            m, nv = rng.randint(1, 4), rng.randint(1, 6)
            a = [[entry() for _ in range(nv)] for _ in range(m)]
            point = [abs(entry()) for _ in range(nv)]
            b = [sum(ai * xi for ai, xi in zip(row, point)) for row in a]
            if rng.random() < 0.25:  # most such programs are infeasible
                b = [entry() for _ in range(m)]
            c = [entry() for _ in range(nv)]
            expected = outcome(fraction_solve_min, a, b, c)
            assert outcome(solve_min, a, b, c) == expected
            outcomes.add(expected if isinstance(expected, str) else "optimal")
        assert outcomes == {"optimal", "Infeasible", "Unbounded"}

    def test_criterion_07_programs(self, monkeypatch):
        """The 100 programs of criterion 07 (rng 701), as lp_oracle_emd poses them.

        Programs of up to 64 variables are solved by both tableaus here, first;
        every answer is then checked against the digest of the Fraction
        tableau's answers on all 100, which takes about 30 s to recompute.
        """
        programs = []

        def capture(a, b, c):
            programs.append((a, b, c))
            return F(0), []

        monkeypatch.setattr(emdkit.transport, "solve_min", capture)
        rng = random.Random(701)
        shapes = (
            [(n, 2) for n in range(1, 16)]
            + [(n, 3) for n in range(1, 6)]
            + [(n, 4) for n in range(1, 4)]
            + [(1, 5), (2, 5), (1, 6), (1, 7), (1, 8)]
        )
        for _ in range(100):
            n, d = rng.choice(shapes)
            lp_oracle_emd(random_rational_tuple(rng, n, d))
        assert len(programs) == 100

        small = [program for program in programs if len(program[2]) <= 64]
        assert len(small) == 44
        for program in small:
            assert solve_min(*program) == fraction_solve_min(*program)
        results = [solve_min(*program) for program in programs]
        assert solution_digest(results) == CRITERION_07_DIGEST


CRITERION_07_DIGEST = "7a925e922348b8d24b2b52510ac91a10787cbf046770b792c7e3b2eb81d0064d"
