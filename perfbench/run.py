"""emdkit benchmark: three workloads, six end-to-end metrics, a traced per-layer run.

    python3 perfbench/run.py --workload {cli,tuples,expected} \\
        --seed N --seconds S --trace {0,1}

Run from anywhere inside a checkout; the program is taken from the
checkout's ``src/`` (byte-compiled first, which is the whole build).
Every measured process runs with one BLAS/OpenMP thread.  One closed-loop
client runs the seeded op list of ``workloads.py``: for ``cli`` this
process starts one ``emdkit`` process per op; for the other workloads one
fresh ``worker.py`` process imports emdkit, runs an untimed warm-up op and
then times each op.  Every op's output is checked afterwards by
``checks.py``, which never imports emdkit, and every check is fed corrupted
outputs that it must reject.

The last line of stdout is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.  With ``--trace 0`` the metrics are the
end-to-end ones; with ``--trace 1`` they are the per-layer ones, from a run
of the first half of the ops, each op once untraced and once traced, so the
tracing overhead is measured op by op.  Run reports, spans and the cached
mpmath references go to ``.perfbench/`` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import subprocess
import sys
import time
from pathlib import Path
from statistics import median, quantiles

import checks
import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
SETUP_REPEATS = 5  # fresh processes whose set-up time is measured; the median is reported
IMPORTTIME_REPEATS = 3
# Fixed for every measured process: unpinned OpenBLAS starts a thread per
# core and adds about 0.1 s of CPU to each emdkit process on a 2-CPU machine.
THREAD_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}
# What the installed `emdkit` console script runs.
CLI_ENTRY = "import sys; from emdkit.cli import main; sys.exit(main())"


class BenchError(Exception):
    """The benchmark could not measure; no result is printed."""


def program_env() -> dict:
    return dict(os.environ, PYTHONPATH=str(SRC), **THREAD_ENV)


def run_program(cmd: list[str], what: str) -> subprocess.CompletedProcess:
    proc = subprocess.run(cmd, env=program_env(), cwd=ROOT, capture_output=True, text=True)
    if proc.returncode != 0:
        raise BenchError(f"{what} failed with exit code {proc.returncode}:\n{proc.stderr[-2000:]}")
    return proc


def build() -> None:
    if not (SRC / "emdkit" / "__init__.py").is_file():
        raise BenchError(f"no emdkit sources under {SRC}")
    run_program([sys.executable, "-m", "compileall", "-q", str(SRC / "emdkit")], "byte-compiling emdkit")


def _children_cpu() -> float:
    r = resource.getrusage(resource.RUSAGE_CHILDREN)
    return r.ru_utime + r.ru_stime


# -- cli: this process is the client, one emdkit process per op ---------------------


def cli_call(argv: list[str], index: int, trace_out: Path | None = None) -> dict:
    if trace_out is None:
        cmd = [sys.executable, "-c", CLI_ENTRY, *argv]
    else:
        cmd = [sys.executable, str(HERE / "traced_cli.py"), str(trace_out), *argv]
    c0, t0 = _children_cpu(), time.perf_counter()
    proc = subprocess.run(cmd, env=program_env(), cwd=ROOT, capture_output=True, text=True)
    wall, cpu = time.perf_counter() - t0, _children_cpu() - c0
    record = {"op": index, "wall": wall, "cpu": cpu, "error": None, "out": None}
    if proc.returncode != 0:
        record["error"] = f"exit code {proc.returncode}: {proc.stderr[-1000:]}"
    else:
        record["out"] = json.loads(proc.stdout)
    return record


def measure_cli(ops, warmup, out_dir: Path, trace: bool) -> dict:
    docs = out_dir.relative_to(ROOT)
    for op in [*ops, warmup]:
        if "doc_name" in op:
            (out_dir / op["doc_name"]).write_text(op["doc_text"])
            op["argv"] = [str(docs / a) if a == op["doc_name"] else a for a in op["argv"]]
    probe = run_program([sys.executable, "-c", "import emdkit; print(emdkit.__file__)"], "importing emdkit")
    require_checkout_program(probe.stdout.strip())
    result: dict = {"setup": [], "records": []}
    if not trace:
        for _ in range(SETUP_REPEATS):
            rec = cli_call(warmup["argv"], -1)
            if rec["error"]:
                raise BenchError(f"cli warm-up op failed: {rec['error']}")
            result["setup"].append(rec["wall"])
        result["records"] = [cli_call(op["argv"], k) for k, op in enumerate(ops)]
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
        return result
    summaries, per_command = [], {}
    for k, op in enumerate(ops[: (len(ops) + 1) // 2]):
        result["records"].append(dict(cli_call(op["argv"], k), traced=False))
        trace_out = out_dir / f"trace-op{k:04d}.json"
        result["records"].append(dict(cli_call(op["argv"], k, trace_out), traced=True))
        if trace_out.exists():
            summary = json.loads(trace_out.read_text())["summary"]
            summaries.append(summary)
            per_command.setdefault(op["command"], []).append(summary)
    result["trace"] = tracing.merge(summaries)
    result["per_command"] = {
        command: tracing.layer_metrics(tracing.merge(s), len(s)) for command, s in per_command.items()
    }
    return result


def require_checkout_program(emdkit_file: str) -> None:
    """The measured program is the checkout's, not one installed elsewhere."""
    where = Path(emdkit_file).resolve()
    if SRC.resolve() not in where.parents:
        raise BenchError(f"emdkit was imported from {where}, not from {SRC}")


# -- in-process workloads: a fresh worker process per measurement ---------------------


def run_worker(spec: Path, out: Path, mode: str) -> dict:
    run_program([sys.executable, str(HERE / "worker.py"), str(spec), str(out), mode], f"worker ({mode})")
    report = json.loads(out.read_text())
    require_checkout_program(report["emdkit_file"])
    return report


def measure_worker(workload: str, ops, warmup, out_dir: Path, trace: bool) -> dict:
    def write_spec(name: str, ops) -> Path:
        spec = out_dir / name
        spec.write_text(json.dumps({
            "workload": workload,
            "ops": workloads.encode(ops),
            "warmup": workloads.encode(warmup),
            "spans": str(out_dir / "spans.jsonl"),
            "records": str(out_dir / "records.jsonl"),
        }))
        return spec

    setup = []
    if not trace:
        probe = write_spec("setup-spec.json", [])
        for k in range(SETUP_REPEATS - 1):
            setup.append(run_worker(probe, out_dir / f"setup{k}.json", "setup")["setup_s"])
    report = run_worker(write_spec("spec.json", ops), out_dir / "worker.json", "trace" if trace else "run")
    setup.append(report["setup_s"])
    with open(out_dir / "records.jsonl") as fh:
        records = [json.loads(line) for line in fh]
    for rec in records:
        if rec["out"] is not None:
            rec["out"] = workloads.decode(rec["out"])
    return dict(report, setup=setup, records=records)


# -- checks -------------------------------------------------------------------------------


def references(workload: str, ops) -> dict:
    if workload == "expected":
        configs = {tuple(op["exact"]) for op in ops} | {tuple(op["quad"]) for op in ops}
        configs.add(tuple(workloads.MC[:2]))
        refs = checks.expected_references(sorted(configs), OUT / "expected-refs.json")
        refs["mc_sd"] = checks.mc_sd_reference(*workloads.MC[:2])
        return refs
    if workload == "cli":
        return checks.expected_references([workloads.CLI_EXPECTED], OUT / "expected-refs.json")
    return {}


def check_outputs(workload: str, ops, records) -> list[str]:
    """Every problem found: wrong outputs, and corruptions a check let through."""
    refs = references(workload, ops)
    check = checks.CHECKS[workload]
    problems, controlled = [], set()
    for rec in records:
        if rec["error"] is not None:
            continue
        op = ops[rec["op"]]
        try:
            check(rec["out"], op, refs)
        except checks.CheckFailed as exc:
            problems.append(f"op {rec['op']}: {exc}")
            continue
        kind = f"cli.{op['command']}" if workload == "cli" else workload
        if kind not in controlled:
            controlled.add(kind)
            missed = checks.negative_controls(kind, check, rec["out"], op, refs)
            problems += [f"negative control not rejected: {m}" for m in missed]
    if workload == "expected":
        outs = [rec["out"] for rec in records if rec["error"] is None]
        try:
            checks.check_mc_pooled(outs, refs[tuple(workloads.MC[:2])])
        except checks.CheckFailed as exc:
            problems.append(str(exc))
    return problems


# -- metrics ------------------------------------------------------------------------------


def end_to_end(result: dict) -> dict[str, float]:
    ok = [r for r in result["records"] if r["error"] is None]
    times = [r["wall"] for r in ok]
    return {
        "throughput_ops_s": len(ok) / sum(times),
        "op_p50_s": median(times),
        "op_p90_s": quantiles(times, n=10, method="inclusive")[8],
        "cpu_s_per_op": sum(r["cpu"] for r in ok) / len(ok),
        "peak_rss_mb": result["peak_rss_mb"],
        "setup_s": median(result["setup"]),
    }


def import_probe() -> tuple[float, float]:
    """Median (emdkit, scipy) import seconds of fresh `python -X importtime` runs."""
    probes = [
        tracing.import_times(run_program([sys.executable, "-X", "importtime", "-c", "import emdkit.cli"],
                                         "importtime probe").stderr)
        for _ in range(IMPORTTIME_REPEATS)
    ]
    return median(p[0] for p in probes), median(p[1] for p in probes)


def per_layer(result: dict) -> dict[str, float]:
    traced = [r for r in result["records"] if r.get("traced") and r["error"] is None]
    out = tracing.layer_metrics(result["trace"], max(1, len(traced)))
    out["cli.import_s"], out["cli.import_scipy_s"] = import_probe()
    walls: dict[int, dict[bool, float]] = {}
    for r in result["records"]:
        if r["error"] is None:
            walls.setdefault(r["op"], {})[r["traced"]] = r["wall"]
    pairs = [(w[False], w[True]) for w in walls.values() if len(w) == 2]
    out["trace.overhead_s"] = median(t - u for u, t in pairs)
    out["trace.overhead_pct"] = 100 * (sum(t for _, t in pairs) / sum(u for u, _ in pairs) - 1)
    return out


# -- main -----------------------------------------------------------------------------------


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=int, choices=range(1, 61), metavar="1..60")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    trace = bool(args.trace)
    build()
    out_dir = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(out_dir, ignore_errors=True)
    out_dir.mkdir(parents=True)
    ops, warmup = workloads.build(args.workload, args.seed, args.seconds)

    started = time.perf_counter()
    if args.workload == "cli":
        result = measure_cli(ops, warmup, out_dir, trace)
    else:
        result = measure_worker(args.workload, ops, warmup, out_dir, trace)
    measured_s = time.perf_counter() - started

    records = result["records"]
    failed = sum(1 for r in records if r["error"] is not None)
    if failed == len(records):
        raise BenchError(f"every op failed; first error:\n{records[0]['error']}")
    problems = check_outputs(args.workload, ops, records)
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer" if trace else "end_to_end"]
    values = per_layer(result) if trace else end_to_end(result)
    metrics = {m["name"]: values[m["name"]] for m in declared}
    units = {m["name"]: m["unit"] for m in declared}

    report = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "ops": len(ops), "attempted": len(records), "failed": failed, "measured_s": measured_s,
        "metrics": metrics, "problems": problems,
        "errors": [r["error"] for r in records if r["error"] is not None][:5],
        "thread_env": THREAD_ENV, "python": sys.version, "machine": platform.machine(),
        "cpus": os.cpu_count(), "worker": {k: result.get(k) for k in ("versions", "os_threads", "import_s")},
        "per_command": result.get("per_command"),
        "op_walls": [r["wall"] for r in records],
    }
    (out_dir / "report.json").write_text(json.dumps(report, indent=1, default=str))

    for name, value in metrics.items():
        print(f"{name:<40} {value:>14.6g} {units[name]}")
    for command, layer in (result.get("per_command") or {}).items():
        print(f"{command:<10} per op: g_polynomial.calls {layer['cayley_menger.g_polynomial.calls']:g}, "
              f"load_document.self_s {layer['cli.load_document.self_s']:.4g}, main.self_s {layer['cli.main.self_s']:.4g}")
    print(f"ops attempted {len(records)}, failed {failed}; measured {measured_s:.1f} s; "
          f"report {(out_dir / 'report.json').relative_to(ROOT)}")
    for p in problems[:20]:
        print(f"CHECK FAILED: {p}")
    print(json.dumps({
        "correct": not problems,
        "attempted": len(records),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        sys.exit(2)
