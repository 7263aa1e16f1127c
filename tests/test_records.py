"""The value types are immutable records with the semantics of a frozen dataclass.

Core claims:
    - repr and hash of each of the 14 value types are those a frozen
      dataclass gives (the fixed values below, under PYTHONHASHSEED=0); a
      type with a mapping field is unhashable
    - assigning to or deleting an attribute raises AttributeError
    - equality compares the field values, and only between instances of the
      identical type
    - a missing, unknown or repeated field, or one positional too many,
      raises TypeError
    - a field with a class-level default may be left out
"""

import json
import os
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest

import emdkit
from emdkit.cayley_menger import CmReport, GPolynomial
from emdkit.cli import TupleDocument
from emdkit.cost import MongeReport, MongeViolation
from emdkit.errors import Frozen
from emdkit.expectation import ExpectationResult
from emdkit.polynomial import RationalPolynomial
from emdkit.sampling import McEstimate
from emdkit.selftest import CheckResult
from emdkit.simplex import Distribution, DistTuple, Lattice
from emdkit.transport import Breakpoints, TransportPlan

SRC = str(Path(emdkit.__file__).resolve().parents[1])
HERE = str(Path(__file__).resolve().parent)


def samples() -> dict:
    """One instance of each value type, by type name."""
    x = Distribution((F(1, 4), F(3, 4)))
    xs = DistTuple((x, Distribution((F(1, 2), F(1, 2)))))
    g = GPolynomial(d=2, coeffs={1: F(1, 4)})
    violation = MongeViolation(coords=(1, 2), base=(1, 1), lhs=3, rhs=2)
    return {
        "Distribution": x,
        "Lattice": Lattice(4, True, ((1, 3), (2, 2)), ((1,), (2,))),
        "DistTuple": xs,
        "MongeViolation": violation,
        "MongeReport": MongeReport(n=1, d=2, checks=1, passed=False, violation=violation),
        "TransportPlan": TransportPlan(
            n=1, d=2, entries={(1, 1): F(1, 4), (2, 1): F(1, 4), (2, 2): F(1, 2)}
        ),
        "Breakpoints": Breakpoints(
            n=1, d=2, cuts=(0, F(1, 4), F(1, 2)), labels=((1, 1), (2, 1), (2, 2))
        ),
        "GPolynomial": g,
        "CmReport": CmReport(
            emd=F(1, 4), pairwise_sum=F(1, 4), obstruction=0, pairwise={(1, 2): F(1, 4)},
            equality_holds=True, approximate=False, g=g,
        ),
        # No None field: hash(None) follows its address before Python 3.12.
        "ExpectationResult": ExpectationResult(
            n=2, d=3, value=0.3888888888888889, method="quadrature", nodes=4, error=0.0
        ),
        "McEstimate": McEstimate(mean=0.5, stderr=0.01, samples=100, seed=7),
        "RationalPolynomial": RationalPolynomial((1, F(1, 2))),
        "CheckResult": CheckResult("lp-oracle", "pass", "15 random instances match the LP"),
        "TupleDocument": TupleDocument(xs=xs, digest="0f1e"),
    }


# repr and hash of each sample as a frozen dataclass gives them (PYTHONHASHSEED=0);
# None marks an unhashable type.
EXPECTED = {
    "Distribution": (
        "Distribution(mass=(Fraction(1, 4), Fraction(3, 4)))",
        1350760058601994066,
    ),
    "Lattice": (
        "Lattice(scale=4, exact=True, mass=((1, 3), (2, 2)), partial=((1,), (2,)))",
        -2180512355808714720,
    ),
    "DistTuple": (
        "DistTuple(members=(Distribution(mass=(Fraction(1, 4), Fraction(3, 4))), "
        "Distribution(mass=(Fraction(1, 2), Fraction(1, 2)))))",
        -900524705118865906,
    ),
    "MongeViolation": (
        "MongeViolation(coords=(1, 2), base=(1, 1), lhs=3, rhs=2)",
        -919480435449228736,
    ),
    "MongeReport": (
        "MongeReport(n=1, d=2, checks=1, passed=False, "
        "violation=MongeViolation(coords=(1, 2), base=(1, 1), lhs=3, rhs=2))",
        -5876721983853781220,
    ),
    "TransportPlan": (
        "TransportPlan(n=1, d=2, entries=mappingproxy({(1, 1): Fraction(1, 4), "
        "(2, 1): Fraction(1, 4), (2, 2): Fraction(1, 2)}))",
        None,
    ),
    "Breakpoints": (
        "Breakpoints(n=1, d=2, cuts=(0, Fraction(1, 4), Fraction(1, 2)), "
        "labels=((1, 1), (2, 1), (2, 2)))",
        -8077086629360245214,
    ),
    "GPolynomial": ("GPolynomial(d=2, coeffs=mappingproxy({1: Fraction(1, 4)}))", None),
    "CmReport": (
        "CmReport(emd=Fraction(1, 4), pairwise_sum=Fraction(1, 4), obstruction=0, "
        "pairwise=mappingproxy({(1, 2): Fraction(1, 4)}), equality_holds=True, "
        "approximate=False, g=GPolynomial(d=2, coeffs=mappingproxy({1: Fraction(1, 4)})))",
        None,
    ),
    "ExpectationResult": (
        "ExpectationResult(n=2, d=3, value=0.3888888888888889, method='quadrature', "
        "nodes=4, error=0.0)",
        -8503773779299447917,
    ),
    "McEstimate": (
        "McEstimate(mean=0.5, stderr=0.01, samples=100, seed=7)",
        323978116571861449,
    ),
    "RationalPolynomial": (
        "RationalPolynomial(coeffs=(1, Fraction(1, 2)))",
        4257318633221398199,
    ),
    "CheckResult": (
        "CheckResult(name='lp-oracle', status='pass', detail='15 random instances match the LP')",
        732858879845867662,
    ),
    "TupleDocument": (
        "TupleDocument(xs=DistTuple(members=(Distribution(mass=(Fraction(1, 4), "
        "Fraction(3, 4))), Distribution(mass=(Fraction(1, 2), Fraction(1, 2))))), "
        "digest='0f1e')",
        6760368594947630331,
    ),
}

SCRIPT = """
import json
from test_records import samples

def digest(obj):
    try:
        return hash(obj)
    except TypeError:
        return None

print(json.dumps({name: [repr(obj), digest(obj)] for name, obj in samples().items()}))
"""

NAMES = sorted(EXPECTED)


def fields(obj) -> dict:
    return {name: getattr(obj, name) for name in type(obj).__match_args__}


def test_every_value_type_is_a_record():
    assert sorted(type(obj).__name__ for obj in samples().values()) == NAMES
    assert all(isinstance(obj, Frozen) for obj in samples().values())


def test_repr_and_hash_are_those_of_a_frozen_dataclass():
    env = dict(os.environ, PYTHONHASHSEED="0")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, HERE, env.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-c", SCRIPT], capture_output=True, text=True, env=env
    )
    assert result.returncode == 0, result.stderr
    assert json.loads(result.stdout) == {name: list(pair) for name, pair in EXPECTED.items()}


@pytest.mark.parametrize("name", NAMES)
def test_fields_cannot_be_set_or_deleted(name):
    obj = samples()[name]
    for field, value in fields(obj).items():
        with pytest.raises(AttributeError):
            setattr(obj, field, value)
        with pytest.raises(AttributeError):
            delattr(obj, field)
    with pytest.raises(AttributeError):
        obj.extra = 1
    assert fields(obj) == fields(samples()[name])


@pytest.mark.parametrize("name", NAMES)
def test_equality_needs_the_identical_type(name):
    obj = samples()[name]
    values = fields(obj)
    assert type(obj)(**values) == obj
    twin_type = type(name, (Frozen,), {"__annotations__": dict.fromkeys(values, "object")})
    twin = twin_type(**values)
    assert twin != obj and obj != twin
    assert fields(twin) == values


@pytest.mark.parametrize("name", NAMES)
def test_bad_arguments_raise_type_error(name):
    obj = samples()[name]
    cls, values = type(obj), fields(obj)
    first = next(iter(values))
    with pytest.raises(TypeError):
        cls(**values, bogus=1)
    with pytest.raises(TypeError):
        cls(*values.values(), **{first: values[first]})
    with pytest.raises(TypeError):
        cls(*values.values(), values[first])
    if cls is not RationalPolynomial:  # its own __init__ defaults to the zero polynomial
        with pytest.raises(TypeError):
            cls(**{k: v for k, v in values.items() if k != first})


def test_expectation_result_defaults():
    result = ExpectationResult(n=2, d=3, value=F(7, 18), method="exact-integral")
    assert result.nodes is None and result.error is None
    assert result == ExpectationResult(2, 3, F(7, 18), "exact-integral", None, None)
    assert result.normalized == F(7, 36)
    with pytest.raises(TypeError):
        ExpectationResult(n=2, d=3, value=F(7, 18))


def test_records_match_by_field_position():
    match samples()["McEstimate"]:
        case McEstimate(mean, stderr, samples_drawn, seed):
            assert (mean, stderr, samples_drawn, seed) == (0.5, 0.01, 100, 7)
        case _:
            pytest.fail("McEstimate did not match by position")
