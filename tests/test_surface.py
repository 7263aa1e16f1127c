"""The public surface and the names the benchmark's tracer wraps.

Core claims:
    - every name in emdkit.__all__ resolves on the package
    - every name in each re-exported module's __all__ imports from emdkit,
      and emdkit.__all__ is exactly those lists, each name once
    - every function in perfbench's tracing.TRACED map exists in the module
      the tracer looks it up in, and every method in POLYNOMIAL_METHODS is
      defined on RationalPolynomial itself, so a deletion or rename surfaces
      here and not first in a traced benchmark run
"""

import importlib
import sys
from pathlib import Path

import pytest

import emdkit

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
EXPORTED = ("simplex", "cost", "transport", "polynomial", "expectation", "sampling",
            "cayley_menger", "errors")


@pytest.fixture
def tracing(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    yield importlib.import_module("tracing")
    sys.modules.pop("tracing", None)


def test_every_public_name_resolves():
    missing = [name for name in emdkit.__all__ if not hasattr(emdkit, name)]
    assert missing == []


def test_every_module_name_imports_from_the_package():
    names = [name for short in EXPORTED for name in importlib.import_module(f"emdkit.{short}").__all__]
    missing = [name for name in names if not hasattr(emdkit, name)]
    assert missing == []
    assert emdkit.__all__ == ["__version__", *names]
    assert len(set(names)) == len(names)


def test_traced_functions_exist_where_the_tracer_looks(tracing):
    missing = []
    for short, names in tracing.TRACED.items():
        home = importlib.import_module(f"emdkit.{short}")
        missing += [f"{short}.{name}" for name in names if not callable(getattr(home, name, None))]
    assert missing == []


def test_traced_polynomial_methods_exist(tracing):
    cls = emdkit.RationalPolynomial
    missing = [attr for attr in tracing.POLYNOMIAL_METHODS if not callable(cls.__dict__.get(attr))]
    assert missing == []
