"""Spans around emdkit's public functions, installed from outside the program.

``Tracer.install`` rebinds each traced function in every emdkit module
namespace that bound it by name (``column`` lives in ``emdkit.simplex`` but
is also looked up in ``emdkit.cayley_menger`` and ``emdkit.cli``), and
wraps ``RationalPolynomial.__mul__``/``__rmul__``, ``compose`` and
``integral_01`` on the class.  ``uninstall`` restores every binding.  Spans
stay in memory as ``(name, start, end, parent, op)`` and are written out
once, when the run ends.  A layer's self time is its span's duration minus
the durations of its child spans.

Hot helpers (``lee_weight``, ``epsilon``, ``order_stats``) are not wrapped:
a span per element would cost more than the work it times, so their time
is part of their callers' self time.
"""

from __future__ import annotations

import functools
import json
import re
import sys
import time
from collections import defaultdict

# Functions traced, by defining module; each becomes the span `module.name`.
TRACED = {
    "simplex": ("validate_distribution", "column", "cumulative"),
    "cost": ("cost_deltas", "cost_epsilon"),
    "transport": ("emd", "greedy_plan", "check_marginals", "plan_objective", "sweep_plan",
                  "barycenter", "emd_pairwise", "lp_oracle_emd"),
    "cayley_menger": ("g_polynomial", "cm_decompose"),
    "exactlp": ("solve_min",),
    "expectation": ("integrand", "expected_emd_exact", "gauss_legendre", "expected_emd_quadrature"),
    "sampling": ("mc_expected_emd",),
    "cli": ("load_document", "main"),
}
POLYNOMIAL_METHODS = {"__mul__": "mul", "__rmul__": "mul", "compose": "compose", "integral_01": "integral_01"}

# Per-layer metrics of the benchmark: self time per op, and calls per op.
SELF_S = [
    "cli.load_document", "cli.main",
    "simplex.validate_distribution", "simplex.column", "simplex.cumulative",
    "cost.cost_deltas", "cost.cost_epsilon",
    "transport.sweep_plan", "transport.emd", "transport.greedy_plan", "transport.check_marginals",
    "transport.plan_objective", "transport.barycenter", "transport.emd_pairwise",
    "transport.lp_oracle_emd", "exactlp.solve_min",
    "cayley_menger.g_polynomial", "cayley_menger.cm_decompose",
    "polynomial.mul", "polynomial.compose", "polynomial.integral_01",
    "expectation.integrand", "expectation.expected_emd_exact",
    "expectation.gauss_legendre", "expectation.expected_emd_quadrature",
    "sampling.mc_expected_emd",
]
CALLS = [
    "simplex.validate_distribution", "simplex.column", "simplex.cumulative",
    "cost.cost_deltas", "cost.cost_epsilon", "cayley_menger.g_polynomial", "polynomial.mul",
]
# Work counts per op, read from arguments and results at the span boundary.
COUNTS = ["transport.sweep_cuts", "transport.plan_entries", "transport.lp_vars",
          "exactlp.tableau_cells", "expectation.quadrature_nodes"]


def _count(counts, keep, name, args, result) -> None:
    if name == "transport.sweep_plan":
        counts["transport.sweep_cuts"] += len(result.cuts)
    elif name == "transport.greedy_plan":
        counts["transport.plan_entries"] += len(result.entries)
    elif name == "transport.lp_oracle_emd":
        counts["transport.lp_vars"] += (args[0].n + 1) ** args[0].d
    elif name == "exactlp.solve_min":
        m, nv = len(args[0]), len(args[2])
        counts["exactlp.tableau_cells"] += (m + 1) * (nv + m + 1)
    elif name == "expectation.gauss_legendre":
        counts["expectation.quadrature_nodes"] += args[0]
    elif name == "sampling.mc_expected_emd":
        counts["sampling.samples"] += args[2]
    elif name == "expectation.integrand":
        keep.append(result)  # coefficient sizes are read after the run


class Tracer:
    def __init__(self) -> None:
        self.spans: list = []
        self.stack: list[int] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.keep: list = []  # integrand polynomials, for their coefficient bits
        self.op = 0
        self._undo: list = []

    def _wrap(self, name, fn):
        spans, stack, counts, keep = self.spans, self.stack, self.counts, self.keep
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            index = len(spans)
            spans.append(None)
            stack.append(index)
            result = None
            start = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent, self.op)
                if result is not None:
                    _count(counts, keep, name, args, result)

        return traced

    def install(self) -> None:
        modules = [m for key, m in list(sys.modules.items()) if key == "emdkit" or key.startswith("emdkit.")]
        for short, names in TRACED.items():
            home = sys.modules.get(f"emdkit.{short}")
            if home is None:  # emdkit.cli is imported by the cli workload only
                continue
            for fname in names:
                original = getattr(home, fname)
                wrapper = self._wrap(f"{short}.{fname}", original)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            self._undo.append((module, attr, original))
                            setattr(module, attr, wrapper)
        cls = sys.modules["emdkit.polynomial"].RationalPolynomial
        for attr, short in POLYNOMIAL_METHODS.items():
            original = cls.__dict__[attr]
            self._undo.append((cls, attr, original))
            setattr(cls, attr, self._wrap(f"polynomial.{short}", original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def summary(self) -> dict:
        """Totals over the run: self time and calls per span name, and counts."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, op in self.spans:
            if parent >= 0:
                child[parent] += end - start
        self_s: dict[str, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        for k, (name, start, end, parent, op) in enumerate(self.spans):
            self_s[name] += end - start - child[k]
            calls[name] += 1
        bits = 0
        for poly in self.keep:
            for c in poly.coeffs:
                bits = max(bits, c.numerator.bit_length(), c.denominator.bit_length())
        return {"self_s": dict(self_s), "calls": dict(calls), "counts": dict(self.counts), "max_coeff_bits": bits}

    def write_spans(self, path) -> None:
        with open(path, "w") as fh:
            for name, start, end, parent, op in self.spans:
                fh.write(json.dumps([name, start, end, parent, op]) + "\n")


def merge(summaries) -> dict:
    total = {"self_s": defaultdict(float), "calls": defaultdict(int), "counts": defaultdict(float), "max_coeff_bits": 0}
    for s in summaries:
        for key in ("self_s", "calls", "counts"):
            for name, v in s[key].items():
                total[key][name] += v
        total["max_coeff_bits"] = max(total["max_coeff_bits"], s["max_coeff_bits"])
    return total


def layer_metrics(summary: dict, ops: int) -> dict[str, float]:
    """Per-op values of the per-layer metrics that spans and counts give."""
    self_s, calls, counts = summary["self_s"], summary["calls"], summary["counts"]
    out = {f"{n}.self_s": self_s.get(n, 0.0) / ops for n in SELF_S}
    out.update({f"{n}.calls": calls.get(n, 0) / ops for n in CALLS})
    out.update({n: counts.get(n, 0) / ops for n in COUNTS})
    out["polynomial.max_coeff_bits"] = summary["max_coeff_bits"]
    mc_s = self_s.get("sampling.mc_expected_emd", 0.0)
    out["sampling.samples_per_s"] = counts.get("sampling.samples", 0) / mc_s if mc_s else 0.0
    return out


_IMPORTTIME = re.compile(r"^import time:\s+(\d+) \|\s+(\d+) \|( *)(\S+)$")


def import_times(stderr: str) -> tuple[float, float]:
    """(emdkit, scipy) import seconds from ``python -X importtime`` output.

    emdkit: the cumulative time of the top-level ``emdkit*`` imports.  scipy:
    the cumulative time of every scipy import not nested in another one.
    """
    stack: list = []  # (depth, name, cumulative_us, children); children precede parents
    for line in stderr.splitlines():
        m = _IMPORTTIME.match(line)
        if not m:
            continue
        depth = (len(m.group(3)) - 1) // 2
        children = []
        while stack and stack[-1][0] > depth:
            children.insert(0, stack.pop())
        node = (depth, m.group(4), int(m.group(2)), children)
        stack.append(node)

    def scipy_us(node) -> int:
        if node[1] == "scipy" or node[1].startswith("scipy."):
            return node[2]
        return sum(scipy_us(c) for c in node[3])

    emdkit_roots = [r for r in stack if r[1] == "emdkit" or r[1].startswith("emdkit.")]
    return (sum(r[2] for r in emdkit_roots) / 1e6, sum(scipy_us(r) for r in emdkit_roots) / 1e6)
