"""Seeded inputs of the three workloads.

Nothing here imports emdkit: the inputs, like the checks in ``checks.py``,
are made apart from the program under test.  A run is a fixed list of ops,
built from ``(workload, seed, seconds)`` alone, so two runs with the same
arguments do the same work.  Its length is ``seconds`` divided by the
nominal op time below (measured on a 2-vCPU Xeon guest), rounded to whole
rounds, so a run lasts about ``seconds`` on that machine.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

DEN = 10**6  # denominator of every exact mass

# Op shapes.  Each is small enough that a run holds about a hundred ops
# (ten or more beyond the 90th percentile), except `cli`, whose op is a
# whole process start.
TUPLE_EXACT = (30, 8)  # (n, d) of the exact rational tuple of a `tuples` op
TUPLE_FLOAT = (120, 8)  # (n, d) of its float tuple
CERTIFY = (3, 3)  # (n, d) of the LP-certified tuple of a `tuples` op: 64 variables
CLI_DOC = (20, 6)  # (n, d) of a `cli` document
CLI_COST_VALUES = 6
CLI_EXPECTED = (8, 10)
EXACT_ND = ((22, 9), (14, 14), (16, 12))  # exact route, about 0.04 s each
QUAD_ND = ((40, 40), (36, 44), (44, 36))  # quadrature route, about 0.05 s each
MC = (3, 4, 1500)  # (n, d, samples) of the Monte Carlo route

CLI_COMMANDS = ("emd", "plan", "decompose", "cost", "expected")


@dataclass(frozen=True)
class Workload:
    name: str
    op_s: float  # nominal wall time of one op
    round_len: int  # ops per round; a run is whole rounds


WORKLOADS = {
    w.name: w
    for w in (
        Workload("cli", 0.5, len(CLI_COMMANDS)),
        Workload("tuples", 0.30, 1),
        Workload("expected", 0.15, len(EXACT_ND)),
    )
}


def op_count(workload: str, seconds: int) -> int:
    w = WORKLOADS[workload]
    rounds = max(1, round(seconds / (w.op_s * w.round_len)))
    return rounds * w.round_len


def rational_row(rng: random.Random, n: int) -> list[Fraction]:
    """n+1 masses with denominator DEN: gaps between sorted random cuts."""
    cuts = sorted(rng.randrange(DEN + 1) for _ in range(n))
    points = [0, *cuts, DEN]
    return [Fraction(b - a, DEN) for a, b in zip(points, points[1:])]


def float_row(rng: random.Random, n: int) -> list[float]:
    """n+1 float masses: gaps between sorted uniform cuts of [0, 1]."""
    cuts = sorted(rng.random() for _ in range(n))
    points = [0.0, *cuts, 1.0]
    return [b - a for a, b in zip(points, points[1:])]


def rational_rows(rng: random.Random, n: int, d: int) -> list[list[Fraction]]:
    return [rational_row(rng, n) for _ in range(d)]


def _tuples_input(rng: random.Random) -> dict:
    (ne, de), (nf, df) = TUPLE_EXACT, TUPLE_FLOAT
    return {
        "exact": rational_rows(rng, ne, de),
        "float": [float_row(rng, nf) for _ in range(df)],
        "certify": rational_rows(rng, *CERTIFY),
    }


def _expected_inputs(rng: random.Random, count: int) -> list[dict]:
    """Every round uses each (n, d) of both routes once, in a seeded order."""
    ops = []
    for _ in range(count // len(EXACT_ND)):
        exact = rng.sample(EXACT_ND, len(EXACT_ND))
        quad = rng.sample(QUAD_ND, len(QUAD_ND))
        for e, q in zip(exact, quad):
            ops.append({"exact": list(e), "quad": list(q), "mc": [*MC, rng.getrandbits(32)]})
    return ops


def _decimal(q: Fraction) -> str:
    """Exact decimal text of a mass with denominator dividing DEN."""
    scaled = q.numerator * (DEN // q.denominator)
    return f"{scaled // DEN}.{scaled % DEN:06d}"


def _cli_input(rng: random.Random, k: int, warmup: bool = False) -> dict:
    """The k-th op of the cli cycle; documents alternate JSON and CSV by round."""
    command = CLI_COMMANDS[k % len(CLI_COMMANDS)]
    op: dict = {"command": command}
    if command in ("emd", "plan", "decompose"):
        n, d = CLI_DOC
        rows = rational_rows(rng, n, d)
        fmt = "json" if (k // len(CLI_COMMANDS)) % 2 == 0 else "csv"
        if fmt == "json":
            body = ",\n".join("[" + ", ".join(_decimal(m) for m in row) + "]" for row in rows)
            text = f'{{"n": {n}, "distributions": [\n{body}\n]}}\n'
        else:
            header = ",".join(f"site{j + 1}" for j in range(n + 1))
            text = header + "\n" + "".join(",".join(str(m) for m in row) + "\n" for row in rows)
        op.update(rows=rows, doc_name=f"{'warmup' if warmup else f'op{k:04d}'}.{fmt}", doc_text=text)
        op["argv"] = [command, op["doc_name"]] + (["--plan", "--barycenter"] if command == "emd" else [])
    elif command == "cost":
        values = [Fraction(rng.randrange(DEN + 1), DEN) for _ in range(CLI_COST_VALUES)]
        op.update(values=values, argv=["cost", *(_decimal(v) for v in values)])
    else:
        n, d = CLI_EXPECTED
        op.update(n=n, d=d, argv=["expected", str(n), str(d)])
    return op


def build(workload: str, seed: int, seconds: int) -> tuple[list[dict], dict]:
    """The run's op inputs and the untimed warm-up op's input."""
    rng = random.Random(f"{workload}:{seed}")
    count = op_count(workload, seconds)
    if workload == "cli":
        ops = [_cli_input(rng, k) for k in range(count)]
        return ops, _cli_input(rng, 0, warmup=True)
    if workload == "tuples":
        return [_tuples_input(rng) for _ in range(count)], _tuples_input(rng)
    if workload == "expected":
        return _expected_inputs(rng, count), _expected_inputs(rng, len(EXACT_ND))[0]
    raise ValueError(f"unknown workload {workload!r}")


# -- transport between processes: Fractions travel as "p/q" text ------------


def encode(value):
    if isinstance(value, Fraction):
        return f"{value.numerator}/{value.denominator}"
    if isinstance(value, dict):
        return {k: encode(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [encode(v) for v in value]
    return value


def decode(value):
    if isinstance(value, str) and "/" in value:
        return Fraction(value)
    if isinstance(value, dict):
        return {k: decode(v) for k, v in value.items()}
    if isinstance(value, list):
        return [decode(v) for v in value]
    return value
