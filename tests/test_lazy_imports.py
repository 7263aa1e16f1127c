"""Which commands load numpy and scipy.

Core claims:
    - the exact-path commands (emd, plan, decompose, cost and the default
      exact expected) run without importing numpy or scipy
    - the quadrature and Monte Carlo routes still import and use them

The pytest process has numpy loaded already, so each check runs in a fresh
interpreter.
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
loaded = sorted(m for m in ("numpy", "scipy") if m in sys.modules)
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
    assert out == {"codes": [0, 0, 0, 0, 0], "loaded": []}


def test_float_routes_still_load_them():
    out = run_fresh(
        [
            ["expected", "6", "4", "--method", "quadrature"],
            ["expected", "6", "4", "--method", "mc", "--samples", "200"],
        ]
    )
    assert out == {"codes": [0, 0], "loaded": ["numpy", "scipy"]}
