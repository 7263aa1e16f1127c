"""Which commands load numpy, scipy and the heavier standard-library modules.

Core claims:
    - the exact-path commands (emd, plan, decompose, cost and the default
      exact expected) run without importing numpy or scipy, and without
      dataclasses or inspect
    - cost and expected, which read no document, load neither hashlib (the
      document digest) nor csv (the CSV reader)
    - the quadrature and Monte Carlo routes still import and use numpy and scipy

The pytest process has these modules loaded already, so each check runs in a
fresh interpreter.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import emdkit

GOLDEN_JSON = str(Path(__file__).parent / "data" / "golden6.json")
SRC = str(Path(emdkit.__file__).resolve().parents[1])

SCRIPT = """
import contextlib, io, json, sys
from emdkit.cli import main

codes = []
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        codes.append(main(argv))
watched = ("csv", "dataclasses", "hashlib", "inspect", "numpy", "scipy")
loaded = sorted(m for m in watched if m in sys.modules)
print(json.dumps({"codes": codes, "loaded": loaded}))
"""


def run_fresh(commands):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-c", SCRIPT, json.dumps(commands)],
        capture_output=True,
        text=True,
        env=env,
    )
    assert result.returncode == 0, result.stderr
    return json.loads(result.stdout)


def test_exact_commands_never_load_numpy_or_scipy():
    out = run_fresh(
        [
            ["emd", GOLDEN_JSON, "--plan", "--barycenter"],
            ["plan", GOLDEN_JSON],
            ["decompose", GOLDEN_JSON],
            ["cost", "0.1", "0.5", "0.9"],
            ["expected", "8", "10"],
        ]
    )
    assert out == {"codes": [0, 0, 0, 0, 0], "loaded": ["hashlib"]}


def test_commands_without_a_document_load_no_digest_or_csv_reader():
    out = run_fresh([["cost", "0.1", "0.5", "0.9"], ["expected", "8", "10"]])
    assert out == {"codes": [0, 0], "loaded": []}


def test_float_routes_still_load_them():
    out = run_fresh(
        [
            ["expected", "6", "4", "--method", "quadrature"],
            ["expected", "6", "4", "--method", "mc", "--samples", "200"],
        ]
    )
    assert out["codes"] == [0, 0]
    assert {"numpy", "scipy"} <= set(out["loaded"])
