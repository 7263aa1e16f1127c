"""Output checks made apart from the program, and their negative controls.

Nothing here imports emdkit.  Every reference is computed from the op's
input by code of the benchmark's own:

* the d-fold EMD as the sum over cumulative columns of the sorted column's
  Lee-weighted gap sum ``sum_i min(i, d-i) (X_(i+1) - X_(i))``;
* a pairwise EMD as the L1 distance of the two cumulative vectors;
* a plan's cost through the median form ``sum_i |y_i - median(y)|``;
* the obstruction ``G''(x; 1) = sum_j sum_i wt(i) (wt(i) - 1) gap_i``;
* the expected values by an mpmath integration of
  ``sum_j phi_d(I_z(j, n-j+1))`` over [0, 1], where the regularised
  incomplete beta function at integer arguments is the binomial tail
  ``P(Binomial(n, z) >= j)``.

Exact outputs must match exactly.  Float outputs must lie within
``FLOAT_TOL`` (relative, floored at 1) of the value computed exactly from
the ``Fraction`` of each input float.  Each check raises ``CheckFailed``;
``negative_controls`` feeds every check corrupted copies of a good output
and reports each corruption that went unnoticed.
"""

from __future__ import annotations

import copy
import json
import os
from bisect import bisect_right
from fractions import Fraction
from itertools import accumulate
from math import comb, lcm, sqrt

FLOAT_TOL = 1e-9  # float-backend outputs against the exact value of their input
EXACT_EXPECTED_TOL = 1e-15  # exact expected value against the mpmath reference
QUAD_TOL = 1e-9  # quadrature against the mpmath reference
MC_OP_Z = 6.0  # one MC estimate: |mean - E| <= 6 stderr (false alarm 2e-9)
MC_RUN_Z = 4.0  # pooled MC estimates of a run: within 4 pooled stderr
REF_DPS = 20  # mpmath working precision of the expected-value references


class CheckFailed(Exception):
    pass


def require(condition: bool, what: str) -> None:
    if not condition:
        raise CheckFailed(what)


def close(value, ref, tol) -> bool:
    if tol == 0:
        return value == ref
    return abs(Fraction(value) - Fraction(ref)) <= tol * max(1, abs(Fraction(ref)))


def _ratio(v) -> tuple[int, int]:
    return Fraction(v).as_integer_ratio() if isinstance(v, str) else v.as_integer_ratio()


class Scale:
    """Integers over the common denominator of a set of exact or float values.

    Every float is a dyadic rational, so inputs and outputs of one op share a
    denominator, and the transport checks run in exact integer arithmetic.
    ``same`` compares two scaled values within ``tol`` (relative, floored at
    one unit of mass).
    """

    def __init__(self, values, tol) -> None:
        self.den = lcm(*{_ratio(v)[1] for v in values})
        self.tol = tol

    def __call__(self, v) -> int:
        p, q = _ratio(v)
        return p * (self.den // q)

    def same(self, value: int, ref: int) -> bool:
        if self.tol == 0:
            return value == ref
        return abs(value - ref) <= self.tol * max(self.den, abs(ref))


# -- references, on scaled integers -----------------------------------------------------


def lee(i: int, d: int) -> int:
    return min(i, d - i)


def partials(row) -> list:
    return list(accumulate(row[:-1]))


def column_cost(values):
    s = sorted(values)
    d = len(s)
    return sum(lee(i, d) * (s[i] - s[i - 1]) for i in range(1, d))


def emd_ref(rows):
    return sum(column_cost(col) for col in zip(*(partials(r) for r in rows)))


def w1(a, b):
    return sum(abs(x - y) for x, y in zip(partials(a), partials(b)))


def median_cost(y):
    s = sorted(y)
    m = s[(len(s) - 1) // 2]
    return sum(abs(v - m) for v in s)


def obstruction_ref(rows):
    d = len(rows)
    return sum(
        lee(i, d) * (lee(i, d) - 1) * (s[i] - s[i - 1])
        for s in (sorted(col) for col in zip(*(partials(r) for r in rows)))
        for i in range(1, d)
    )


# -- transport outputs (masses scaled to integers) ---------------------------------------


def check_plan(entries, rows, emd, S: Scale) -> None:
    """Plan entries ``[[y, mass], ...]``: positive, marginals, median-form cost."""
    d, n = len(rows), len(rows[0]) - 1
    require(0 < len(entries) <= d * n + 1, f"plan has {len(entries)} entries")
    sums = [[0] * (n + 1) for _ in range(d)]
    cost = 0
    for y, mass in entries:
        require(len(y) == d and all(1 <= s <= n + 1 for s in y), f"plan key {y} out of range")
        require(mass > 0, f"plan mass at {y} is not positive")
        for i, s in enumerate(y):
            sums[i][s - 1] += mass
        cost += mass * median_cost(y)
    for i in range(d):
        for j in range(n + 1):
            require(S.same(sums[i][j], rows[i][j]), f"plan marginal of member {i + 1} at site {j + 1}")
    require(S.same(cost, emd), "plan cost by the median form is not the EMD")


def check_sweep(cuts, labels, rows, emd, S: Scale) -> None:
    """Interval sweep of [0, 1): cuts, labels, and the plan they carry."""
    require(len(cuts) == len(labels) and cuts and cuts[0] == 0,
            "sweep cuts and labels differ in number or do not start at 0")
    require(all(a < b for a, b in zip(cuts, cuts[1:])) and cuts[-1] < S.den, "sweep cuts not increasing in [0, 1)")
    if S.tol == 0:
        cums = [partials(r) for r in rows]
        for t, label in zip(cuts, labels):
            want = [1 + bisect_right(c, t) for c in cums]
            require(list(label) == want, f"sweep label at {t}/{S.den} is {label}, not {want}")
    else:
        for a, b in zip(labels, labels[1:]):
            require(all(x <= y for x, y in zip(a, b)), "sweep labels not increasing")
    merged: dict[tuple, int] = {}
    for label, lo, hi in zip(labels, cuts, [*cuts[1:], S.den]):
        merged[tuple(label)] = merged.get(tuple(label), 0) + hi - lo
    check_plan([[y, m] for y, m in merged.items() if m > 0], rows, emd, S)


def check_decomposition(pairwise, pairwise_sum, obstruction, equality_holds, emd, rows, S: Scale) -> None:
    d = len(rows)
    require(sorted(tuple(k) for k, _ in pairwise) == [(k, l) for k in range(1, d + 1) for l in range(k + 1, d + 1)],
            "pairwise table does not list every pair")
    for (k, l), v in pairwise:
        require(S.same(v, w1(rows[k - 1], rows[l - 1])), f"pairwise EMD ({k},{l})")
    require(S.same(pairwise_sum, sum(v for _, v in pairwise)), "pairwise sum")
    ref = obstruction_ref(rows)
    require(S.same(obstruction, ref), "obstruction G''(1)")
    require(S.same((d - 1) * emd, obstruction + pairwise_sum), "(d-1) EMD != obstruction + pairwise sum")
    if S.tol == 0:
        require(equality_holds == (ref == 0), "equality flag")


def check_barycenter(mass, rows, emd, S: Scale) -> None:
    require(len(mass) == len(rows[0]) and all(m >= -S.tol * S.den for m in mass), "barycenter masses")
    require(S.same(sum(mass), S.den), "barycenter does not sum to one")
    require(S.same(sum(w1(r, mass) for r in rows), emd), "sum of W1 to the barycenter is not the EMD")


def check_chain(out: dict, rows, tol) -> None:
    """One tuple through emd, plans, decomposition and barycenter."""
    scalars = [out[k] for k in ("emd", "objective", "cm_emd", "pairwise_sum", "obstruction")]
    S = Scale([*(m for r in rows for m in r), *scalars, *(m for _, m in out["plan"]), *out["cuts"],
               *(v for _, v in out["pairwise"]), *out["barycenter"]], tol)
    rows = [[S(m) for m in r] for r in rows]
    emd = emd_ref(rows)
    value, objective, cm_emd, pairwise_sum, obstruction = (S(v) for v in scalars)
    require(S.same(value, emd), f"emd {out['emd']} != reference {Fraction(emd, S.den)}")
    check_plan([[y, S(m)] for y, m in out["plan"]], rows, emd, S)
    require(S.same(objective, emd), "plan objective")
    check_sweep([S(c) for c in out["cuts"]], out["labels"], rows, emd, S)
    require(S.same(cm_emd, emd), "decomposition EMD")
    check_decomposition([[k, S(v)] for k, v in out["pairwise"]], pairwise_sum, obstruction,
                        out["equality_holds"], cm_emd, rows, S)
    check_barycenter([S(m) for m in out["barycenter"]], rows, emd, S)


def check_certified(out: dict, rows) -> None:
    """The LP optimum, the EMD and the greedy plan's objective agree exactly."""
    S = Scale([*(m for r in rows for m in r), out["lp"], out["emd"], out["objective"],
               *(m for _, m in out["plan"])], 0)
    rows = [[S(m) for m in r] for r in rows]
    emd = emd_ref(rows)
    require(S(out["lp"]) == emd, f"LP optimum {out['lp']} != EMD {Fraction(emd, S.den)}")
    require(S(out["emd"]) == emd, f"emd {out['emd']} != reference {Fraction(emd, S.den)}")
    require(S(out["objective"]) == emd, "greedy plan objective")
    check_plan([[y, S(m)] for y, m in out["plan"]], rows, emd, S)


def check_tuples(out: dict, inp: dict, refs: dict) -> None:
    check_chain(out["exact"], inp["exact"], 0)
    check_chain(out["float"], inp["float"], FLOAT_TOL)
    check_certified(out["certify"], inp["certify"])


# -- expected values -------------------------------------------------------------


def expected_reference(n: int, d: int) -> str:
    """E(n, d) by mpmath tanh-sinh integration, as decimal text."""
    import mpmath as mp

    with mp.workdps(REF_DPS):
        weights = [mp.mpf(lee(k, d) * comb(d, k)) for k in range(d)]
        binom = [comb(n, m) for m in range(n + 1)]

        def phi(u):  # sum_k wt(k) C(d,k) u^k (1-u)^(d-k), by Horner in u/(1-u)
            v = 1 - u
            if v == 0:
                return mp.mpf(0)
            t, acc = u / v, mp.mpf(0)
            for k in range(d - 1, 0, -1):
                acc = (acc + weights[k]) * t
            return acc * v**d

        def integrand(z):
            zp, yp = [mp.mpf(1)], [mp.mpf(1)]
            for _ in range(n):
                zp.append(zp[-1] * z)
                yp.append(yp[-1] * (1 - z))
            total, tail = mp.mpf(0), mp.mpf(0)
            for j in range(n, 0, -1):
                tail += binom[j] * zp[j] * yp[n - j]  # I_z(j, n-j+1)
                total += phi(tail)
            return total

        value, error = mp.quad(integrand, [0, 0.5, 1], error=True)
        if error > mp.mpf(10) ** (5 - REF_DPS):
            raise CheckFailed(f"mpmath reference E({n},{d}) did not converge (error {error})")
        return mp.nstr(value, REF_DPS)


def expected_references(configs, cache_path) -> dict:
    """References for (n, d) pairs, cached in the checkout across runs.

    The pairs are fixed by the workload, not by the seed, and the slowest
    takes several seconds, so each is computed once per checkout.
    """
    key = f"dps{REF_DPS}"
    try:
        with open(cache_path) as fh:
            cache = json.load(fh)
    except (OSError, ValueError):
        cache = {}
    table = cache.setdefault(key, {})
    missing = [c for c in configs if f"{c[0]},{c[1]}" not in table]
    for n, d in missing:
        table[f"{n},{d}"] = expected_reference(n, d)
    if missing:
        tmp = f"{cache_path}.tmp"
        with open(tmp, "w") as fh:
            json.dump(cache, fh, indent=1)
        os.replace(tmp, cache_path)
    return {tuple(int(v) for v in k.split(",")): Fraction(table[k]) for k in (f"{n},{d}" for n, d in configs)}


def mc_sd_reference(n: int, d: int, samples: int = 200_000) -> float:
    """Standard deviation of one tuple's EMD, by a vectorised sampler of the benchmark's own."""
    import numpy as np

    u = np.random.default_rng(20240612).random((samples, d, n))
    u.sort(axis=2)  # cumulative vectors of uniform simplex points
    u.sort(axis=1)  # order statistics of every cumulative column
    wt = np.minimum(np.arange(1, d), d - np.arange(1, d)).astype(float)
    values = (np.diff(u, axis=1) * wt[None, :, None]).sum(axis=(1, 2))
    return float(values.std())


def check_expected(out: dict, inp: dict, refs: dict) -> None:
    e = refs[tuple(inp["exact"])]
    require(isinstance(out["exact"], (Fraction, int)), "exact route did not return a rational")
    require(close(out["exact"], e, EXACT_EXPECTED_TOL), f"exact E{tuple(inp['exact'])} = {float(out['exact'])} != {float(e)}")
    q = refs[tuple(inp["quad"])]
    require(close(out["quad"], q, QUAD_TOL), f"quadrature E{tuple(inp['quad'])} = {out['quad']} != {float(q)}")
    n, d, samples, _ = inp["mc"]
    mc = out["mc"]
    require(mc["samples"] == samples, "MC sample count")
    expected_se = refs["mc_sd"] / sqrt(samples)
    require(0.8 <= mc["stderr"] / expected_se <= 1.25, f"MC stderr {mc['stderr']} vs about {expected_se}")
    require(abs(mc["mean"] - float(refs[(n, d)])) <= MC_OP_Z * mc["stderr"], f"MC mean {mc['mean']} beyond {MC_OP_Z} stderr")


def check_mc_pooled(outs, ref: Fraction) -> None:
    """The mean of all MC estimates of a run lies within 4 pooled standard errors."""
    k = len(outs)
    mean = sum(o["mc"]["mean"] for o in outs) / k
    se = sqrt(sum(o["mc"]["stderr"] ** 2 for o in outs)) / k
    require(abs(mean - float(ref)) <= MC_RUN_Z * se, f"pooled MC mean {mean} beyond {MC_RUN_Z} stderr of {float(ref)}")


# -- cli outputs --------------------------------------------------------------------


def check_cli(out: dict, op: dict, refs: dict) -> None:
    """One `emdkit` command's JSON, whose exact values are "p/q" strings."""
    command = op["command"]
    require(out.get("command") == command, "command echo")
    ex = out.get("exact", {})
    if command == "cost":
        ref = median_cost(op["values"])
        require(Fraction(ex["cost"]) == ref, f"cost {ex['cost']} != {ref}")
        require(all(Fraction(v) == ref for v in out["forms"].values()), "cost forms")
        return
    if command == "expected":
        ref = refs[(op["n"], op["d"])]
        require(close(Fraction(ex["value"]), ref, EXACT_EXPECTED_TOL), "expected value")
        return
    rows = op["rows"]
    require(out["input"]["n"] == len(rows[0]) - 1 and out["input"]["d"] == len(rows), "input shape")
    fields = {  # every exact value the command prints, by where it sits
        "emd": [ex.get("emd"), *ex.get("columns", []), out.get("barycenter", {}).get("cost")],
        "plan": [out.get("plan", {}).get("objective"), *(e["mass"] for e in out.get("plan", {}).get("entries", []))],
        "cuts": out.get("breakpoints", {}).get("cuts", []),
        "decompose": [ex.get("g_prime"), ex.get("g_double_prime"), ex.get("pairwise_sum"),
                      *ex.get("g_coefficients", {}).values(), *ex.get("pairwise", {}).values()],
        "barycenter": out.get("barycenter", {}).get("mass", []),
    }
    S = Scale([*(m for r in rows for m in r), *(v for vs in fields.values() for v in vs if v is not None)], 0)
    rows = [[S(m) for m in r] for r in rows]
    emd = emd_ref(rows)
    if command in ("emd", "plan"):
        plan = out["plan"]
        require(plan["entry_count"] == len(plan["entries"]), "plan entry count")
        check_plan([[e["y"], S(e["mass"])] for e in plan["entries"]], rows, emd, S)
        require(S(plan["objective"]) == emd, "plan objective")
    if command == "emd":
        require(S(ex["emd"]) == emd, f"emd {ex['emd']} != {Fraction(emd, S.den)}")
        columns = [column_cost(col) for col in zip(*(partials(r) for r in rows))]
        require([S(c) for c in ex["columns"]] == columns, "per-column costs")
        check_barycenter([S(m) for m in out["barycenter"]["mass"]], rows, emd, S)
        require(S(out["barycenter"]["cost"]) == emd, "barycenter cost")
    elif command == "plan":
        check_sweep([S(c) for c in out["breakpoints"]["cuts"]], out["breakpoints"]["labels"], rows, emd, S)
    elif command == "decompose":
        g = {int(w): S(c) for w, c in ex["g_coefficients"].items()}
        require(sum(w * c for w, c in g.items()) == emd, "G'(1) is not the EMD")
        require(sum(w * (w - 1) * c for w, c in g.items()) == S(ex["g_double_prime"]), "G''(1) from coefficients")
        require(S(ex["g_prime"]) == emd and S(ex["emd"]) == emd, "decomposition EMD")
        pairwise = [[tuple(int(v) for v in k.split(",")), S(v)] for k, v in ex["pairwise"].items()]
        check_decomposition(pairwise, S(ex["pairwise_sum"]), S(ex["g_double_prime"]),
                            out["equality_holds"], emd, rows, S)


CHECKS = {"cli": check_cli, "tuples": check_tuples, "expected": check_expected}


# -- negative controls -------------------------------------------------------------


TINY = Fraction(1, 10**6)


def _bump(value):
    """One value of an output moved by 1e-6 (relative for floats), in its own form."""
    if isinstance(value, str):
        return str(Fraction(value) + TINY)
    if isinstance(value, float):
        return value + float(TINY) * max(1.0, abs(value))
    return value + TINY


def _edit(path, fn):
    def corrupt(out):
        out = copy.deepcopy(out)
        node = out
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = fn(node[path[-1]])
        return out
    return corrupt


def _shift_first_entry(entries):
    """Move the first plan entry to a neighbouring site tuple."""
    y = list(entries[0][0] if isinstance(entries[0], list) else entries[0]["y"])
    y[0] = y[0] + 1 if y[0] == 1 else y[0] - 1
    if isinstance(entries[0], list):
        return [[y, entries[0][1]]] + entries[1:]
    return [dict(entries[0], y=y)] + entries[1:]


def _drop_second(seq):
    return seq[:1] + seq[2:]


def _pile_at_end(mass):
    zero = "0" if isinstance(mass[0], str) else 0 * mass[0]
    one = "1" if isinstance(mass[0], str) else zero + 1
    return [zero] * (len(mass) - 1) + [one]


def _chain_corruptions(prefix):
    return [
        (f"{prefix}.emd", _edit([prefix, "emd"], _bump)),
        (f"{prefix}.plan", _edit([prefix, "plan"], _shift_first_entry)),
        (f"{prefix}.objective", _edit([prefix, "objective"], _bump)),
        (f"{prefix}.sweep", _edit([prefix, "cuts"], _drop_second)),
        (f"{prefix}.pairwise", _edit([prefix, "pairwise", 0, 1], _bump)),
        (f"{prefix}.obstruction", _edit([prefix, "obstruction"], _bump)),
        (f"{prefix}.barycenter", _edit([prefix, "barycenter"], _pile_at_end)),
    ]


CORRUPTIONS = {
    "tuples": _chain_corruptions("exact") + _chain_corruptions("float") + [
        ("certify.lp", _edit(["certify", "lp"], _bump)),
        ("certify.emd", _edit(["certify", "emd"], _bump)),
        ("certify.objective", _edit(["certify", "objective"], _bump)),
        ("certify.plan", _edit(["certify", "plan"], _shift_first_entry)),
    ],
    "expected": [
        ("exact", _edit(["exact"], lambda v: v * (1 + Fraction(1, 10**12)))),
        ("quad", _edit(["quad"], lambda v: v * (1 + 1e-7))),
        ("mc.mean", lambda o: _edit(["mc", "mean"], lambda v: v + 8 * o["mc"]["stderr"])(o)),
        ("mc.stderr", _edit(["mc", "stderr"], lambda v: v * 2)),
    ],
    "cli.emd": [
        ("emd", _edit(["exact", "emd"], _bump)),
        ("columns", _edit(["exact", "columns", 0], _bump)),
        ("plan", _edit(["plan", "entries"], _shift_first_entry)),
        ("barycenter", _edit(["barycenter", "mass"], _pile_at_end)),
    ],
    "cli.plan": [
        ("plan", _edit(["plan", "entries"], _shift_first_entry)),
        ("objective", _edit(["plan", "objective"], _bump)),
        ("breakpoints", _edit(["breakpoints", "labels"], lambda v: [v[0]] + v[:-1])),
    ],
    "cli.decompose": [
        ("g_coefficients", _edit(["exact", "g_coefficients", "1"], _bump)),
        ("g_double_prime", _edit(["exact", "g_double_prime"], _bump)),
        ("pairwise", _edit(["exact", "pairwise", "1,2"], _bump)),
    ],
    "cli.cost": [("cost", _edit(["exact", "cost"], _bump))],
    "cli.expected": [("value", _edit(["exact", "value"], lambda v: str(Fraction(v) * (1 + Fraction(1, 10**12)))))],
}


def negative_controls(kind: str, check, out, inp, refs) -> list[str]:
    """Names of the corruptions of ``out`` that ``check`` failed to reject."""
    missed = []
    for name, corrupt in CORRUPTIONS[kind]:
        try:
            check(corrupt(out), inp, refs)
        except CheckFailed:
            continue
        missed.append(f"{kind}:{name}")
    return missed
