"""The exact simplex solver on hand-checked and seeded programs.

Core claims:
    - optimal values and vertices on small hand-checked programs, including
      redundant rows, negative right-hand sides and a degenerate start
    - infeasible and unbounded programs raise Infeasible / Unbounded
    - the inputs a, b and c are left unchanged
    - on seeded transportation programs the returned vertex is feasible and
      its cost is the returned value
"""

import copy
import random
from fractions import Fraction as F

import pytest

from emdkit.errors import Infeasible, Unbounded
from emdkit.exactlp import solve_min


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


def test_inputs_left_unchanged():
    a = [[-1, 0, 2], [0, F(1, 2), 1], [-1, F(1, 2), 3]]  # row 3 = row 1 + row 2
    b = [F(-4), 1, F(-3)]
    c = [2, 3, F(1, 3)]
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
