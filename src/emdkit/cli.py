"""Command-line front end: JSON/CSV ingestion, dispatch, exact output.

Input documents carry a d-tuple of distributions, either as JSON

    {"n": 3, "distributions": [["0.2", "0.2", "0.2", "0.4"], ...]}

or as CSV with one distribution per row (header optional).  Values may be
JSON numbers, decimal strings, or rational strings "p/q"; every form parses
to an exact rational (JSON floats are intercepted as text), so results print
both as "p/q" strings and as decimals at a configurable precision.  A decimal
whose exponent lies beyond +-MAX_DECIMAL_EXPONENT is refused before any
integer is built from it, and so is a value or a row total whose numerator
or denominator passes MAX_EXACT_BITS.  A CSV first row is a header only if
none of its cells is a number.  A result too long to print (a numerator or
denominator beyond MAX_RENDER_BITS) is refused as over budget.

Exit codes: 0 success, 1 parse/validation, 2 budget/threshold (including a
result too long to render), 3 internal invariant violation or a failed
selftest.  A reader that closes the pipe early does not change the code: the
rest of the output is dropped without a traceback.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import re
import sys
from decimal import Decimal, InvalidOperation, localcontext
from fractions import Fraction
from typing import Callable, Optional, Sequence

from . import __version__
from .cayley_menger import cm_decompose
from .cost import cost_counting, cost_deltas, cost_epsilon
from .errors import (
    BudgetExceeded,
    EmdError,
    Frozen,
    InvalidNumber,
    InvariantViolation,
    ParseError,
    ThresholdExceeded,
    ValidationError,
)
from .expectation import (
    expected_emd_exact,
    expected_emd_quadrature,
    expected_emd_recursive,
    ExpectationResult,
)
from .sampling import mc_expected_emd
from .simplex import DistTuple, validate_distribution
from .transport import barycenter, emd, greedy_plan, plan_objective, sweep_plan

DEFAULT_DIGITS = 10

#: Largest |adjusted exponent| of an accepted decimal: 1e1000 still parses,
#: 1e1001 and 1e-1001 are refused.
MAX_DECIMAL_EXPONENT = 1000

#: Most bits in the numerator or denominator of a value or a row total:
#: 2**6644 passes 10**2000, so about 2,000 decimal digits, well below the
#: 4,300-digit limit of int-to-str conversion.
MAX_EXACT_BITS = 6644

#: Most bits in the numerator or denominator of a rendered exact result:
#: 2**14284 < 10**4300, so it stays within int-to-str's 4,300-digit limit.
#: A result's denominator can grow to the product of every row's.
MAX_RENDER_BITS = 14284

_DIGITS = r"\d(?:_?\d)*"
#: Decimal syntax with an exponent, which Decimal refuses only for range;
#: compiled on first use, since only a refused decimal needs it.
_EXPONENT_FORM = rf"[+-]?(?:{_DIGITS}(?:\.(?:{_DIGITS})?)?|\.{_DIGITS})[eE][+-]?{_DIGITS}"


class TupleDocument(Frozen):
    """A parsed input document: the tuple plus a digest of the exact values."""

    xs: DistTuple
    digest: str


def _bounded_decimal(value: str, where: str) -> Decimal:
    """Parse a decimal, refusing an exponent beyond +-MAX_DECIMAL_EXPONENT."""
    text = value.strip()
    try:
        number = Decimal(text)
    except InvalidOperation as exc:
        if re.fullmatch(_EXPONENT_FORM, text):  # an exponent beyond Decimal's own range
            raise InvalidNumber(
                f"{where}: cannot parse scalar {value!r}: its decimal exponent "
                f"is beyond +-{MAX_DECIMAL_EXPONENT}"
            ) from exc
        raise ParseError(f"{where}: cannot parse scalar {value!r}") from exc
    if number.is_finite() and abs(number.adjusted()) > MAX_DECIMAL_EXPONENT:
        raise InvalidNumber(
            f"{where}: {value!r} has a decimal exponent beyond +-{MAX_DECIMAL_EXPONENT}"
        )
    return number


def _bounded_size(number: Fraction, where: str, what: str) -> Fraction:
    """Refuse ``number`` when its numerator or denominator passes MAX_EXACT_BITS."""
    if max(number.numerator.bit_length(), number.denominator.bit_length()) > MAX_EXACT_BITS:
        raise InvalidNumber(
            f"{where}: {what} has a numerator or denominator beyond "
            f"{MAX_EXACT_BITS} bits (about 2,000 digits)"
        )
    return number


def _parse_scalar(value: object, where: str) -> Fraction:
    if isinstance(value, bool):
        raise InvalidNumber(f"{where}: {value!r} is a bool, not a number")
    if isinstance(value, float):  # JSON NaN / Infinity; other JSON numbers are Fractions
        raise InvalidNumber(f"{where}: {value!r} is not finite")
    if isinstance(value, (int, Fraction)):
        fraction = Fraction(value)
    elif isinstance(value, str) and "/" in value:
        try:
            fraction = Fraction(value.strip())
        except (ValueError, ZeroDivisionError):
            raise ParseError(f"{where}: cannot parse scalar {value!r}") from None
    elif isinstance(value, str):
        # The exponent is bounded before Fraction builds 10**exponent.
        number = _bounded_decimal(value, where)
        if not number.is_finite():
            raise InvalidNumber(f"{where}: {value!r} is not finite")
        fraction = Fraction(number)
    else:
        raise ParseError(f"{where}: cannot parse scalar {value!r}")
    return _bounded_size(fraction, where, "a value")


def _document_from_rows(rows: list[list[Fraction]], n: Optional[int]) -> TupleDocument:
    if n is not None:
        for k, row in enumerate(rows):
            if len(row) != n + 1:
                raise ValidationError(
                    f"distribution {k + 1}: expected {n + 1} masses for n={n}, "
                    f"got {len(row)}"
                )
    members = []
    for k, row in enumerate(rows):
        _bounded_size(sum(row), f"distribution {k + 1}", "the sum of its masses")
        try:
            members.append(validate_distribution(row))
        except EmdError as exc:
            raise ValidationError(f"distribution {k + 1}: {exc}") from exc
    try:
        xs = DistTuple(tuple(members))
    except EmdError as exc:
        raise ValidationError(str(exc)) from exc
    canonical = json.dumps(
        {"n": xs.n, "distributions": [[str(m) for m in row] for row in rows]},
        separators=(",", ":"),
    )
    import hashlib

    digest = hashlib.sha256(canonical.encode()).hexdigest()
    return TupleDocument(xs=xs, digest=digest)


def _parse_json_document(text: str) -> TupleDocument:
    try:
        obj = json.loads(
            text, parse_float=lambda s: Fraction(_bounded_decimal(s, "JSON number"))
        )
    except EmdError:  # from parse_float, already typed
        raise
    except (ValueError, RecursionError) as exc:  # ValueError covers JSONDecodeError
        raise ParseError(f"invalid JSON: {exc}") from exc
    if not isinstance(obj, dict) or "distributions" not in obj:
        raise ParseError('JSON document must be an object with a "distributions" key')
    raw_rows = obj["distributions"]
    if not isinstance(raw_rows, list) or not all(isinstance(r, list) for r in raw_rows):
        raise ParseError('"distributions" must be a list of rows')
    n = obj.get("n")
    if n is not None and (not isinstance(n, int) or isinstance(n, bool) or n < 1):
        raise ParseError(f'"n" must be a positive integer, got {n!r}')
    rows = [
        [_parse_scalar(v, f"distribution {k + 1}") for v in row]
        for k, row in enumerate(raw_rows)
    ]
    return _document_from_rows(rows, n)


def _parse_csv_document(text: str) -> TupleDocument:
    import csv

    reader = csv.reader(io.StringIO(text))
    raw_rows = [row for row in reader if any(cell.strip() for cell in row)]
    if not raw_rows:
        raise ParseError("CSV document contains no rows")

    def parse_row(cells: list[str], k: int) -> list[Fraction]:
        return [_parse_scalar(cell, f"distribution {k + 1}") for cell in cells]

    def is_number(cell: str) -> bool:  # InvalidNumber propagates: it is a number
        try:
            _parse_scalar(cell, "distribution 1")
        except ParseError:
            return False
        return True

    header = 0 if any(map(is_number, raw_rows[0])) else 1
    if header and len(raw_rows) == 1:
        raise ParseError("CSV document has a header but no data rows")
    rows = [parse_row(row, k) for k, row in enumerate(raw_rows[header:])]
    return _document_from_rows(rows, None)


def load_document(path: str) -> TupleDocument:
    """Read a tuple document from a file path or '-' (stdin)."""
    try:
        if path == "-":
            text = sys.stdin.read()
        else:
            with open(path, "r", encoding="utf-8") as handle:
                text = handle.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    stripped = text.lstrip()
    if path.endswith(".csv"):
        return _parse_csv_document(text)
    if path.endswith(".json") or stripped.startswith("{"):
        return _parse_json_document(text)
    return _parse_csv_document(text)


# -- rendering -------------------------------------------------------------


def exact_str(value, field: str) -> str:
    """``value`` as "p/q"; BudgetExceeded naming ``field`` when too long to render."""
    frac = Fraction(value)
    if max(frac.numerator.bit_length(), frac.denominator.bit_length()) > MAX_RENDER_BITS:
        raise BudgetExceeded(
            f"{field}: the exact result has a numerator or denominator beyond "
            f"{MAX_RENDER_BITS} bits (about 4,300 digits), too long to render"
        )
    return str(frac)


def decimal_str(value, digits: int) -> str:
    if isinstance(value, float):
        return f"{value:.{digits}g}"
    frac = Fraction(value)
    with localcontext() as ctx:
        ctx.prec = digits
        return str(Decimal(frac.numerator) / Decimal(frac.denominator))


def _plan_block(plan, objective, digits: int) -> dict:
    return {
        "entries": [
            {"y": list(y), "mass": exact_str(mass, f"plan.entries[{k}].mass")}
            for k, (y, mass) in enumerate(plan.sorted_entries())
        ],
        "objective": exact_str(objective, "plan.objective"),
        "objective_decimal": decimal_str(objective, digits),
        "entry_count": len(plan.entries),
        "sparsity_bound": plan.d * plan.n + 1,
    }


# -- command handlers --------------------------------------------------------


def _cmd_emd(args: argparse.Namespace) -> dict:
    doc = load_document(args.input)
    xs = doc.xs
    lattice = xs.lattice
    columns = [lattice.value(cost_deltas(col)) for col in lattice.columns()]
    total = sum(columns)
    result = {
        "command": "emd",
        "input": {"n": xs.n, "d": xs.d, "digest": doc.digest},
        "exact": {
            "emd": exact_str(total, "exact.emd"),
            "columns": [exact_str(c, f"exact.columns[{j}]") for j, c in enumerate(columns)],
        },
        "decimal": {
            "emd": decimal_str(total, args.digits),
            "columns": [decimal_str(c, args.digits) for c in columns],
        },
        "method": {"backend": "exact", "digits": args.digits},
    }
    if args.plan or args.barycenter:
        plan = greedy_plan(xs)
        objective = plan_objective(plan)
        if args.plan:
            result["plan"] = _plan_block(plan, objective, args.digits)
        if args.barycenter:
            center = barycenter(xs, plan)
            result["barycenter"] = {
                "mass": [exact_str(m, f"barycenter.mass[{k}]") for k, m in enumerate(center.mass)],
                "cost": exact_str(objective, "barycenter.cost"),
            }
    return result


def _cmd_plan(args: argparse.Namespace) -> dict:
    doc = load_document(args.input)
    xs = doc.xs
    plan = greedy_plan(xs)
    sweep = sweep_plan(xs)
    return {
        "command": "plan",
        "input": {"n": xs.n, "d": xs.d, "digest": doc.digest},
        "plan": _plan_block(plan, plan_objective(plan), args.digits),
        "breakpoints": {
            "cuts": [exact_str(c, f"breakpoints.cuts[{k}]") for k, c in enumerate(sweep.cuts)],
            "labels": [list(label) for label in sweep.labels],
        },
    }


def _cmd_decompose(args: argparse.Namespace) -> dict:
    doc = load_document(args.input)
    xs = doc.xs
    report = cm_decompose(xs)
    digits = args.digits
    return {
        "command": "decompose",
        "input": {"n": xs.n, "d": xs.d, "digest": doc.digest},
        "exact": {
            "g_coefficients": {
                str(w): exact_str(c, f"exact.g_coefficients.{w}")
                for w, c in sorted(report.g.coeffs.items())
            },
            "g_prime": exact_str(report.emd, "exact.g_prime"),
            "g_double_prime": exact_str(report.obstruction, "exact.g_double_prime"),
            "emd": exact_str(report.emd, "exact.emd"),
            "pairwise": {
                f"{k},{l}": exact_str(v, f"exact.pairwise.{k},{l}")
                for (k, l), v in sorted(report.pairwise.items())
            },
            "pairwise_sum": exact_str(report.pairwise_sum, "exact.pairwise_sum"),
        },
        "decimal": {
            "emd": decimal_str(report.emd, digits),
            "g_double_prime": decimal_str(report.obstruction, digits),
            "pairwise_sum": decimal_str(report.pairwise_sum, digits),
        },
        "identity_verified": True,  # cm_decompose raises on failure
        "equality_holds": report.equality_holds,
    }


def _cmd_expected(args: argparse.Namespace) -> dict:
    n, d = args.n, args.d
    if n < 1 or d < 2:
        raise ValidationError(f"expected needs n >= 1 and d >= 2, got n={n}, d={d}")
    digits = args.digits
    result: dict = {"command": "expected", "n": n, "d": d}

    if args.method == "exact":
        res = expected_emd_exact(n, d)
        result["method"] = {"name": "exact"}
    elif args.method == "recursive":
        value = expected_emd_recursive((n,) * d)
        res = ExpectationResult(n=n, d=d, value=value, method="recursion")
        result["method"] = {"name": "recursive"}
    elif args.method == "quadrature":
        res = expected_emd_quadrature(n, d, nodes=args.nodes)
        result["method"] = {"name": "quadrature", "nodes": res.nodes, "error_estimate": res.error}
    else:  # mc
        estimate = mc_expected_emd(n, d, args.samples, args.seed)
        res = ExpectationResult(n=n, d=d, value=estimate.mean, method="mc")
        result["method"] = {
            "name": "mc",
            "samples": estimate.samples,
            "seed": estimate.seed,
            "stderr": estimate.stderr,
        }

    if isinstance(res.value, Fraction):
        exact_block = {"value": exact_str(res.value, "exact.value")}
        if args.normalized:
            exact_block["normalized"] = exact_str(res.normalized, "exact.normalized")
        result["exact"] = exact_block
    decimal_block = {"value": decimal_str(res.value, digits)}
    if args.normalized:
        decimal_block["normalized"] = decimal_str(res.normalized, digits)
    result["decimal"] = decimal_block
    return result


def _cmd_cost(args: argparse.Namespace) -> dict:
    values = [_parse_scalar(v, f"value {k + 1}") for k, v in enumerate(args.values)]
    if len(values) < 2:
        raise ValidationError(f"cost needs at least 2 values, got {len(values)}")
    signed = cost_epsilon(values)
    gaps = cost_deltas(values)
    if signed != gaps:
        raise InvariantViolation(
            f"cost forms disagree: signed {signed} vs gap sum {gaps}"
        )
    result = {
        "command": "cost",
        "values": [exact_str(v, f"values[{k}]") for k, v in enumerate(values)],
        "exact": {"cost": exact_str(signed, "exact.cost")},
        "decimal": {"cost": decimal_str(signed, args.digits)},
        "forms": {
            "signed_order_sum": exact_str(signed, "forms.signed_order_sum"),
            "weighted_gap_sum": exact_str(gaps, "forms.weighted_gap_sum"),
        },
    }
    if args.sites is not None:
        ints = [int(v) for v in values]
        if any(v != i for v, i in zip(values, ints)):
            raise ValidationError("--sites requires integer values")
        counted = cost_counting(ints, args.sites)
        if counted != signed:
            raise InvariantViolation(
                f"site-counting form {counted} disagrees with {signed}"
            )
        result["forms"]["site_counting"] = exact_str(counted, "forms.site_counting")
    return result


def _cmd_selftest(args: argparse.Namespace) -> dict:
    from .selftest import run_selftest

    results, passed = run_selftest(budget=args.budget, corrupt=args.inject_cost_corruption)
    return {
        "command": "selftest",
        "budget": args.budget,
        "checks": [
            {"name": r.name, "status": r.status, "detail": r.detail} for r in results
        ],
        "passed": passed,
    }


# -- parser -------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # usage errors are validation errors
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _int_at_least(least: int, kind: str) -> Callable[[str], int]:
    """An argparse type: an int of at least ``least``, else "must be a <kind> integer"."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
        if value < least:
            raise argparse.ArgumentTypeError(f"must be a {kind} integer, got {value}")
        return value

    return parse


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="emdkit",
        description="d-fold earth mover's distance on the standard simplex",
    )
    parser.add_argument("--version", action="version", version=f"emdkit {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_digits(p):
        p.add_argument(
            "--digits", type=_int_at_least(1, "positive"), default=DEFAULT_DIGITS,
            help="significant digits for decimal renderings (default 10)",
        )

    p = sub.add_parser("emd", help="EMD and per-column costs of a tuple document")
    p.add_argument("input", help="JSON/CSV document path, or - for stdin")
    p.add_argument("--plan", action="store_true", help="include the optimal plan")
    p.add_argument("--barycenter", action="store_true", help="include a barycenter")
    add_digits(p)
    p.set_defaults(handler=_cmd_emd)

    p = sub.add_parser("plan", help="optimal transport plan and interval sweep")
    p.add_argument("input", help="JSON/CSV document path, or - for stdin")
    add_digits(p)
    p.set_defaults(handler=_cmd_plan)

    p = sub.add_parser("decompose", help="pairwise decomposition of the EMD")
    p.add_argument("input", help="JSON/CSV document path, or - for stdin")
    add_digits(p)
    p.set_defaults(handler=_cmd_decompose)

    p = sub.add_parser("expected", help="expected EMD under the uniform distribution")
    p.add_argument("n", type=int)
    p.add_argument("d", type=int)
    p.add_argument(
        "--method", choices=("exact", "recursive", "quadrature", "mc"), default="exact"
    )
    p.add_argument("--samples", type=int, default=100_000, help="mc sample count")
    p.add_argument("--seed", type=int, default=0, help="mc seed")
    p.add_argument(
        "--nodes", type=int, default=None,
        help="quadrature starting node count per half-window",
    )
    p.add_argument(
        "--normalized", action="store_true",
        help="also report value / (n * floor(d/2))",
    )
    add_digits(p)
    p.set_defaults(handler=_cmd_expected)

    p = sub.add_parser("cost", help="dispersion cost of a raw sample")
    p.add_argument("values", nargs="+", help="sample values (decimals or p/q)")
    p.add_argument(
        "--sites", type=int, default=None,
        help="ground-space size n: also verify the site-counting form",
    )
    add_digits(p)
    p.set_defaults(handler=_cmd_cost)

    p = sub.add_parser("selftest", help="run the built-in verification suites")
    p.add_argument(
        "--budget", type=_int_at_least(0, "nonnegative"), default=10**6,
        help="0 skips the exhaustive Monge check",
    )
    p.add_argument(
        "--inject-cost-corruption", action="store_true", help=argparse.SUPPRESS
    )
    p.set_defaults(handler=_cmd_selftest)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        result = args.handler(args)
    except (BudgetExceeded, ThresholdExceeded) as exc:
        print(f"emdkit: {exc}", file=sys.stderr)
        return 2
    except InvariantViolation as exc:
        print(f"emdkit: internal invariant violation: {exc}", file=sys.stderr)
        return 3
    except EmdError as exc:
        print(f"emdkit: {exc}", file=sys.stderr)
        return 1
    code = 3 if result.get("command") == "selftest" and not result["passed"] else 0
    try:
        print(json.dumps(result, indent=2))
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader is gone; pointing stdout at devnull keeps the flush at
        # interpreter exit from raising again.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
