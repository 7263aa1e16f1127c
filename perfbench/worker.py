"""The measured process of the in-process workloads, tuples and expected.

    python3 perfbench/worker.py SPEC OUT MODE

SPEC is the JSON list of op inputs that ``run.py`` wrote; OUT receives the
report.  MODE is ``setup`` (import emdkit and run the warm-up op, timed),
``run`` (setup, then every op timed, untraced) or ``trace`` (setup, then the
first half of the ops, each run once untraced and once with spans around
emdkit's layers).  Inputs are decoded before emdkit is imported; outputs
are encoded after each op's clock stops.
"""

from __future__ import annotations

import gc
import importlib
import json
import resource
import sys
import time
import traceback

from tracing import Tracer
from workloads import decode, encode


def _tuple(E, rows):
    return E.DistTuple(tuple(E.validate_distribution(r) for r in rows))


def _chain(E, rows):
    xs = _tuple(E, rows)
    value = E.emd(xs)
    plan = E.greedy_plan(xs)
    E.check_marginals(plan, xs)
    objective = E.plan_objective(plan)
    sweep = E.sweep_plan(xs)
    report = E.cm_decompose(xs)
    center = E.barycenter(xs, plan)
    return value, plan, objective, sweep, report, center


def _plan_out(plan):
    return [[list(y), m] for y, m in plan.sorted_entries()]


def _chain_out(r):
    value, plan, objective, sweep, report, center = r
    return {
        "emd": value,
        "plan": _plan_out(plan),
        "objective": objective,
        "cuts": list(sweep.cuts),
        "labels": [list(label) for label in sweep.labels],
        "cm_emd": report.emd,
        "pairwise": [[list(k), v] for k, v in sorted(report.pairwise.items())],
        "pairwise_sum": report.pairwise_sum,
        "obstruction": report.obstruction,
        "equality_holds": report.equality_holds,
        "barycenter": list(center.mass),
    }


def _certify(E, rows):
    xs = _tuple(E, rows)
    value = E.emd(xs)
    plan = E.greedy_plan(xs)
    objective = E.plan_objective(plan)
    lp = E.lp_oracle_emd(xs)
    return {"emd": value, "plan": plan, "objective": objective, "lp": lp}


def tuples_op(E, inp):
    return {
        "exact": _chain(E, inp["exact"]),
        "float": _chain(E, inp["float"]),
        "certify": _certify(E, inp["certify"]),
    }


def tuples_out(r):
    return {
        "exact": _chain_out(r["exact"]),
        "float": _chain_out(r["float"]),
        "certify": dict(r["certify"], plan=_plan_out(r["certify"]["plan"])),
    }


def expected_op(E, inp):
    exact = E.expected_emd_exact(*inp["exact"]).value
    quad = E.expected_emd_quadrature(*inp["quad"]).value
    n, d, samples, seed = inp["mc"]
    mc = E.mc_expected_emd(n, d, samples, seed)
    return {"exact": exact, "quad": quad, "mc": mc}


def expected_out(r):
    mc = r["mc"]
    return dict(r, mc={"mean": mc.mean, "stderr": mc.stderr, "samples": mc.samples})


OPS = {
    "tuples": (tuples_op, tuples_out),
    "expected": (expected_op, expected_out),
}


def _cpu() -> float:
    r = resource.getrusage(resource.RUSAGE_SELF)
    return r.ru_utime + r.ru_stime


def timed(E, op, to_json, inp, index) -> dict:
    """Run one op; only the op itself is inside the clock."""
    c0, t0 = _cpu(), time.perf_counter()
    try:
        raw, error = op(E, inp), None
    except Exception:  # a failed op is recorded and the run goes on
        raw, error = None, traceback.format_exc(limit=3)
    wall, cpu = time.perf_counter() - t0, _cpu() - c0
    out = encode(to_json(raw)) if error is None else None
    return {"op": index, "wall": wall, "cpu": cpu, "error": error, "out": out}


def _os_threads() -> int:
    with open("/proc/self/status") as fh:
        return next(int(line.split()[1]) for line in fh if line.startswith("Threads:"))


def main(spec_path: str, out_path: str, mode: str) -> None:
    with open(spec_path) as fh:
        spec = json.load(fh)
    op, to_json = OPS[spec["workload"]]
    ops = [decode(o) for o in spec["ops"]]
    warmup = decode(spec["warmup"])

    t0 = time.perf_counter()
    E = importlib.import_module("emdkit")
    import_s = time.perf_counter() - t0
    t0 = time.perf_counter()
    op(E, warmup)
    warmup_s = time.perf_counter() - t0
    report = {
        "setup_s": import_s + warmup_s,
        "import_s": import_s,
        "warmup_s": warmup_s,
        "emdkit_file": E.__file__,
        "versions": {m: sys.modules[m].__version__ for m in ("numpy", "scipy") if m in sys.modules},
        "os_threads": _os_threads(),
    }
    if mode != "setup":
        # Records go to disk op by op, so the outputs do not count in this
        # process's peak memory.
        with open(spec["records"], "w") as records:
            gc.collect()
            if mode == "run":
                for k, inp in enumerate(ops):
                    records.write(json.dumps(timed(E, op, to_json, inp, k)) + "\n")
            else:
                tracer = Tracer()
                for k, inp in enumerate(ops[: (len(ops) + 1) // 2]):
                    records.write(json.dumps(dict(timed(E, op, to_json, inp, k), traced=False)) + "\n")
                    tracer.op = k
                    tracer.install()
                    try:
                        record = dict(timed(E, op, to_json, inp, k), traced=True)
                    finally:
                        tracer.uninstall()
                    records.write(json.dumps(record) + "\n")
                report["trace"] = tracer.summary()
                tracer.write_spans(spec["spans"])
    report["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    with open(out_path, "w") as fh:
        json.dump(report, fh)


if __name__ == "__main__":
    main(*sys.argv[1:])
