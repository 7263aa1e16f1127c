"""The command-line surface: parsing, rendering, exit codes.

Core claims:
    - JSON and CSV documents parse to identical exact tuples; JSON numbers
      are read as decimal text, so 0.2 means exactly 1/5
    - results carry both "p/q" strings and decimal renderings that re-parse
      to the exact value at the stated precision
    - NaN, infinities and bools are rejected as values, and --digits must be
      positive, each with exit code 1 and a message naming the culprit
    - non-UTF-8 files, JSON nested too deeply and JSON integers past the
      interpreter's digit limit are parse errors (exit 1), not tracebacks;
      a decimal exponent beyond +-1000 is an invalid number (exit 1), refused
      before any integer is built from it, wherever the number sits; so is a
      value or a row total with more than about 2,000 digits;
      an underscore is read only singly between digits, as in Python
      literals, and any other is a parse error (exit 1);
      a CSV first row is a header only if none of its cells is a number;
      arbitrary bytes, small JSON and small CSV documents always end in an
      exit code
    - an exact result whose numerator or denominator is too long to print
      (beyond 14284 bits, about 4,300 digits) is refused as over budget
      (exit 2) with the field named, before any string is built
    - exit codes: 0 ok, 1 parse/validation, 2 budget/threshold, 3 internal
      invariant violation or a failed selftest; arbitrary argv lists of small
      words and the parser's own flags always end in one of them, and a
      reader that closes the pipe leaves the code unchanged, with no traceback
    - a self-test budget too small for the exhaustive Monge grid skips that
      check rather than failing it; the injected-corruption control runs and
      fails whatever the budget
"""

import argparse
import io
import json
import os
import subprocess
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import emdkit

from emdkit import DomainError, InvalidNumber
from emdkit.cli import build_parser, decimal_str, load_document, main
from emdkit.selftest import run_selftest

DATA = Path(__file__).parent / "data"
SRC = str(Path(emdkit.__file__).resolve().parents[1])
GOLDEN_JSON = str(DATA / "golden6.json")
GOLDEN_CSV = str(DATA / "golden6.csv")


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    doc = json.loads(captured.out) if captured.out.strip() else None
    return code, doc, captured.err


class TestDocumentParsing:
    def test_json_and_csv_agree(self):
        assert load_document(GOLDEN_JSON).xs == load_document(GOLDEN_CSV).xs

    def test_json_numbers_are_exact(self):
        doc = load_document(GOLDEN_JSON)
        assert doc.xs.members[0].mass == (F(1, 5), F(1, 5), F(1, 5), F(2, 5))

    def test_rational_strings(self, tmp_path):
        path = tmp_path / "doc.json"
        path.write_text('{"distributions": [["1/3", "2/3"], ["1/2", "1/2"]]}')
        doc = load_document(str(path))
        assert doc.xs.members[0].mass == (F(1, 3), F(2, 3))

    def test_round_trip_preserves_tuple(self, tmp_path):
        doc = load_document(GOLDEN_JSON)
        rendered = {
            "n": doc.xs.n,
            "distributions": [
                [str(m) for m in member.mass] for member in doc.xs.members
            ],
        }
        path = tmp_path / "round.json"
        path.write_text(json.dumps(rendered))
        again = load_document(str(path))
        assert again.xs == doc.xs
        assert again.digest == doc.digest

    def test_bad_row_sum_names_the_row(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text('{"distributions": [[0.5, 0.5], [0.5, 0.6]]}')
        code, _, err = run_cli(capsys, "emd", str(path))
        assert code == 1
        assert "distribution 2" in err

    def test_declared_n_must_match_rows(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text('{"n": 2, "distributions": [[0.5, 0.5], [0.25, 0.75]]}')
        code, _, err = run_cli(capsys, "emd", str(path))
        assert code == 1
        assert "n=2" in err

    def test_malformed_json_is_parse_error(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        code, _, err = run_cli(capsys, "emd", str(path))
        assert code == 1

    def test_missing_file(self, capsys):
        code, _, err = run_cli(capsys, "emd", "/nonexistent/x.json")
        assert code == 1

    @pytest.mark.parametrize(
        "text, culprit",
        [
            ('{"distributions": [[true, false], [false, true]]}', "True is a bool"),
            ('{"distributions": [[NaN, 1], [0, 1]]}', "nan is not finite"),
            ('{"distributions": [[Infinity, 0], [0, 1]]}', "inf is not finite"),
            ('{"distributions": [["nan", 1], [0, 1]]}', "'nan' is not finite"),
            ('{"distributions": [[0, 1], [1, "-inf"]]}', "'-inf' is not finite"),
            ('{"n": true, "distributions": [[1, 0], [0, 1]]}', '"n" must be a positive'),
        ],
    )
    def test_bools_and_non_finite_values_rejected(self, tmp_path, capsys, text, culprit):
        path = tmp_path / "bad.json"
        path.write_text(text)
        code, doc, err = run_cli(capsys, "emd", str(path))
        assert code == 1
        assert doc is None
        assert culprit in err

    def test_non_finite_csv_row_is_not_a_header(self, tmp_path, capsys):
        path = tmp_path / "bad.csv"
        path.write_text("nan,1\n0,1\n1,0\n")
        code, _, err = run_cli(capsys, "emd", str(path))
        assert code == 1
        assert "distribution 1: 'nan' is not finite" in err

    @pytest.mark.parametrize(
        "content, culprit",
        [
            (b'\xff\xfe{"distributions": [[1, 0], [0, 1]]}', "can't decode byte 0xff"),
            (
                ('{"distributions": ' + "[" * 100_000 + "]" * 100_000 + "}").encode(),
                "invalid JSON: maximum recursion depth exceeded",
            ),
            (
                ('{"distributions": [[1' + "0" * 5000 + ", 0], [0, 1]]}").encode(),
                "invalid JSON: Exceeds the limit",
            ),
        ],
        ids=["non-utf8", "deeply-nested", "huge-integer"],
    )
    def test_unreadable_documents_are_parse_errors(self, tmp_path, capsys, content, culprit):
        path = tmp_path / "bad.json"
        path.write_bytes(content)
        code, doc, err = run_cli(capsys, "emd", str(path))
        assert code == 1
        assert doc is None
        assert culprit in err

    @pytest.mark.parametrize("exponent", ["99999", "-99999", "999999999"])
    @pytest.mark.parametrize(
        "name, template",
        [
            ("bad.json", '{{"distributions": [[1e{e}, 0], [0, 1]]}}'),
            ("bad.json", '{{"distributions": [["1e{e}", 0], [0, 1]]}}'),
            ("bad.csv", "1e{e},0\n0,1\n"),
        ],
        ids=["json-number", "json-string", "csv-cell"],
    )
    def test_huge_exponents_are_invalid_numbers(
        self, tmp_path, capsys, name, template, exponent
    ):
        path = tmp_path / name
        path.write_text(template.format(e=exponent))
        code, doc, err = run_cli(capsys, "emd", str(path))
        assert code == 1
        assert doc is None
        assert f"'1e{exponent}' has a decimal exponent beyond +-1000" in err

    def test_json_exponent_beyond_decimal_range_is_parse_error(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text('{"distributions": [[1e99999999999999999999999, 0], [0, 1]]}')
        code, doc, err = run_cli(capsys, "emd", str(path))
        assert code == 1
        assert doc is None
        assert "JSON number: cannot parse scalar" in err

    def test_out_of_range_exponent_in_first_csv_row_is_not_a_header(self, tmp_path, capsys):
        path = tmp_path / "bad.csv"
        path.write_text("1e99999999999999999999999,0\n0,1\n1,0\n")
        code, doc, err = run_cli(capsys, "emd", str(path))
        assert code == 1
        assert doc is None
        assert "distribution 1: cannot parse scalar '1e99999999999999999999999'" in err

    @pytest.mark.parametrize(
        "name, text",
        [
            ("bad.json", '{"distributions": [[1e99999999999999999999999, 0], [0, 1]]}'),
            ("bad.json", '{"distributions": [[0, 1], [1, "-1E-99999999999999999999"]]}'),
            ("bad.csv", "0,1\n1,.5e+99_999_999_999_999_999_999\n"),
        ],
        ids=["json-number", "json-string", "csv-cell"],
    )
    def test_out_of_range_exponent_is_invalid_number(self, tmp_path, name, text):
        path = tmp_path / name
        path.write_text(text)
        with pytest.raises(InvalidNumber, match="decimal exponent is beyond"):
            load_document(str(path))

    @pytest.mark.parametrize("cell", ["_1", "1_", "1__0", "1._5"])
    @pytest.mark.parametrize(
        "name, template",
        [
            ("bad.json", '{{"distributions": [["{}", 0], [0, 1]]}}'),
            ("bad.csv", "0,1\n{},0\n"),
        ],
        ids=["json-string", "csv-cell"],
    )
    def test_stray_underscores_are_parse_errors(self, tmp_path, capsys, name, template, cell):
        path = tmp_path / name
        path.write_text(template.format(cell))
        code, doc, err = run_cli(capsys, "emd", str(path))
        assert code == 1
        assert doc is None
        assert f"cannot parse scalar {cell!r}" in err

    def test_underscores_between_digits_are_accepted(self, tmp_path):
        path = tmp_path / "grouped.csv"
        path.write_text("0.2_5,7_5e-3,.67_5\n1_0e-2,0.9,0\n")
        members = load_document(str(path)).xs.members
        assert members[0].mass == (F(1, 4), F(3, 40), F(27, 40))
        assert members[1].mass == (F(1, 10), F(9, 10), 0)

    def test_first_row_of_stray_underscores_is_a_header(self, tmp_path):
        path = tmp_path / "header.csv"
        path.write_text("_1,1_,1__0\n0.5,0.25,0.25\n1,0,0\n")
        doc = load_document(str(path))
        assert doc.xs.d == 2
        assert doc.xs.members[0].mass == (F(1, 2), F(1, 4), F(1, 4))

    def test_first_row_with_a_number_is_not_a_header(self, tmp_path, capsys):
        path = tmp_path / "bad.csv"
        path.write_text("mass,0.5\n0.5,0.5\n1,0\n")
        code, doc, err = run_cli(capsys, "emd", str(path))
        assert code == 1
        assert doc is None
        assert "distribution 1: cannot parse scalar 'mass'" in err

    @pytest.mark.parametrize(
        "rows, culprit",
        [
            (
                [[f"1/{10**999 + k}" for k in (1, 3, 7, 9, 11)], [1, 0, 0, 0, 0]],
                "distribution 1: the sum of its masses has a numerator or denominator",
            ),
            (
                [[1, 0], ["0." + "3" * 5000, "0." + "6" * 4999 + "7"]],
                "distribution 2: a value has a numerator or denominator",
            ),
        ],
        ids=["long-row-total", "long-decimals"],
    )
    def test_values_past_the_digit_bound_are_invalid_numbers(
        self, tmp_path, capsys, rows, culprit
    ):
        path = tmp_path / "long.json"
        path.write_text(json.dumps({"distributions": rows}))
        code, doc, err = run_cli(capsys, "emd", str(path))
        assert code == 1
        assert doc is None
        assert culprit in err
        assert "beyond 6644 bits" in err

    def test_digit_bound_edges(self, tmp_path):
        q = 10**2000  # 6644 bits: accepted
        path = tmp_path / "edge.json"
        path.write_text(json.dumps({"distributions": [[f"1/{q}", f"{q - 1}/{q}"], [1, 0]]}))
        assert load_document(str(path)).xs.members[0].mass == (F(1, q), 1 - F(1, q))
        q *= 10  # 6647 bits: refused
        path.write_text(json.dumps({"distributions": [[f"1/{q}", f"{q - 1}/{q}"], [1, 0]]}))
        with pytest.raises(InvalidNumber, match="distribution 1: a value"):
            load_document(str(path))

    def test_exponent_bound_is_inclusive(self, tmp_path):
        path = tmp_path / "edge.csv"
        path.write_text(f"1e-1000,0.{'9' * 1000}\n0,1\n")
        tiny = F(1, 10**1000)
        assert load_document(str(path)).xs.members[0].mass == (tiny, 1 - tiny)

    def test_stdin_input(self, capsys, monkeypatch):
        monkeypatch.setattr(
            sys, "stdin", io.StringIO('{"distributions": [[1, 0], [0, 1]]}')
        )
        code, doc, _ = run_cli(capsys, "emd", "-")
        assert code == 0
        assert doc["exact"]["emd"] == "1"


class TestRenderBound:
    """A result too long to print is over budget (exit 2), named by its field."""

    Q = [10**999 + k for k in range(1, 9)]  # distinct 1,000-digit denominators

    def rows_document(self, tmp_path, count):
        path = tmp_path / "rows.json"
        rows = [[f"1/{q}", f"{q - 1}/{q}"] for q in self.Q[:count]]
        path.write_text(json.dumps({"distributions": rows}))
        return str(path)

    def test_eight_long_rows_refused_at_the_emd(self, tmp_path, capsys):
        code, doc, err = run_cli(capsys, "emd", self.rows_document(tmp_path, 8))
        assert code == 2
        assert doc is None
        assert "exact.emd: the exact result has a numerator or denominator beyond" in err

    def test_five_long_rows_still_render(self, tmp_path, capsys):
        path = self.rows_document(tmp_path, 5)
        code, doc, _ = run_cli(capsys, "emd", path)
        assert code == 0
        assert F(doc["exact"]["emd"]) == emdkit.emd(load_document(path).xs)

    def test_cost_of_eight_long_values_refused(self, capsys):
        code, doc, err = run_cli(capsys, "cost", *(f"1/{q}" for q in self.Q))
        assert code == 2
        assert doc is None
        assert "exact.cost: the exact result has a numerator or denominator beyond" in err


_CELLS = st.one_of(
    st.sampled_from(["0", "1", "0.5", "1/2", "1/3", "2/3", "-0", "1e-3", "nan", "x", ""]),
    st.text(max_size=4),
)
_JSON_SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(-3, 3), st.floats(), _CELLS
)
_JSON_DOCUMENTS = st.one_of(
    st.fixed_dictionaries(
        {"distributions": st.lists(st.lists(_JSON_SCALARS, max_size=4), max_size=4)},
        optional={"n": _JSON_SCALARS},
    ),
    st.recursive(_JSON_SCALARS, lambda inner: st.lists(inner, max_size=3), max_leaves=8),
).map(lambda obj: json.dumps(obj).encode())
_CSV_DOCUMENTS = st.lists(st.lists(_CELLS, max_size=4), max_size=4).map(
    lambda rows: "\n".join(",".join(row) for row in rows).encode()
)


class TestDocumentFuzz:
    @settings(
        derandomize=True,
        database=None,
        max_examples=300,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        content=st.one_of(st.binary(max_size=48), _JSON_DOCUMENTS, _CSV_DOCUMENTS),
        suffix=st.sampled_from([".json", ".csv", ".txt"]),
        command=st.sampled_from(["emd", "plan", "decompose"]),
    )
    def test_documents_end_in_an_exit_code(self, content, suffix, command):
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "doc" + suffix)
            with open(path, "wb") as handle:
                handle.write(content)
            with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
                code = main([command, path])
        assert code in {0, 1, 2, 3}


_WORDS = st.sampled_from(["0", "1", "2", "3", "-1", "-2", "1e3", "nan", "0.5", "1/3", "x", ""])
_PATHS = st.sampled_from([GOLDEN_JSON, GOLDEN_CSV, str(DATA / "missing.json")])


def _parser_flags() -> dict:
    """Each subcommand but selftest: its option strings and their choices."""
    commands = next(
        a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)
    ).choices
    flags = {}
    for name, sub in commands.items():
        if name == "selftest":  # runs every suite: too slow to fuzz
            continue
        options = [a for a in sub._actions if not isinstance(a, argparse._HelpAction)]
        flags[name] = [
            word for a in options if a.option_strings
            for word in [*a.option_strings, *(a.choices or ())]
        ]
    return flags


_FLAGS = _parser_flags()


@st.composite
def _argv(draw):
    """A command with up to six words: documents, its flags and small numeric text."""
    command = draw(st.sampled_from(sorted(_FLAGS)))
    words = [_WORDS, st.sampled_from(_FLAGS[command])]
    if command in ("emd", "plan", "decompose"):
        words.append(_PATHS)
    return [command, *draw(st.lists(st.one_of(words), max_size=6))]


class TestArgvFuzz:
    """Every number a word can be is at most 1000, so no example starts a long run."""

    @settings(
        derandomize=True,
        database=None,
        max_examples=300,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(argv=_argv())
    def test_argv_ends_in_an_exit_code(self, argv):
        err = io.StringIO()
        with redirect_stdout(io.StringIO()), redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:  # a usage error from the parser
                code = exc.code
        assert code in {0, 1, 2, 3}
        assert "Traceback" not in err.getvalue()


class TestEmdCommand:
    def test_reference_document(self, capsys):
        code, doc, _ = run_cli(capsys, "emd", GOLDEN_JSON)
        assert code == 0
        assert doc["exact"]["emd"] == "7/2"
        assert doc["exact"]["columns"] == ["13/10", "1", "6/5"]
        assert doc["decimal"]["emd"] == "3.5"
        assert doc["input"] == {
            "n": 3,
            "d": 6,
            "digest": load_document(GOLDEN_JSON).digest,
        }

    def test_repeated_distribution_is_zero(self, capsys, tmp_path):
        path = tmp_path / "same.json"
        path.write_text(json.dumps({"distributions": [[0.25, 0.75]] * 3}))
        code, doc, _ = run_cli(capsys, "emd", str(path))
        assert code == 0
        assert doc["exact"]["emd"] == "0"

    def test_plan_and_barycenter_blocks(self, capsys):
        code, doc, _ = run_cli(capsys, "emd", GOLDEN_JSON, "--plan", "--barycenter")
        assert code == 0
        plan = doc["plan"]
        assert plan["objective"] == "7/2"
        assert plan["entry_count"] <= plan["sparsity_bound"] == 19
        masses = [F(e["mass"]) for e in plan["entries"]]
        assert sum(masses) == 1
        keys = [tuple(e["y"]) for e in plan["entries"]]
        assert keys == sorted(keys)
        bary = doc["barycenter"]
        assert sum(F(m) for m in bary["mass"]) == 1
        assert bary["cost"] == "7/2"

    def test_decimal_rendering_reparses_to_stated_precision(self, capsys):
        for digits in (6, 10, 20):
            code, doc, _ = run_cli(capsys, "emd", GOLDEN_JSON, "--digits", str(digits))
            assert code == 0
            for exact_text, rendered in zip(
                doc["exact"]["columns"], doc["decimal"]["columns"]
            ):
                exact = F(exact_text)
                reparsed = F(rendered)
                assert abs(reparsed - exact) <= abs(exact) * F(10) ** (1 - digits)


class TestPlanCommand:
    def test_breakpoints_and_plan(self, capsys):
        code, doc, _ = run_cli(capsys, "plan", GOLDEN_JSON)
        assert code == 0
        cuts = [F(c) for c in doc["breakpoints"]["cuts"]]
        assert cuts[0] == 0
        assert cuts == sorted(cuts)
        labels = doc["breakpoints"]["labels"]
        # member 4 has zero mass at site 1, so its coordinate starts at 2
        assert labels[0] == [1, 1, 1, 2, 1, 1]
        assert doc["plan"]["objective"] == "7/2"


class TestDecomposeCommand:
    def test_reference_document(self, capsys):
        code, doc, _ = run_cli(capsys, "decompose", GOLDEN_JSON)
        assert code == 0
        exact = doc["exact"]
        assert exact["g_coefficients"] == {"1": "4/5", "2": "9/10", "3": "3/10"}
        assert exact["g_prime"] == "7/2"
        assert exact["g_double_prime"] == "18/5"
        assert exact["pairwise_sum"] == "139/10"
        assert exact["pairwise"]["1,2"] == "3/10"
        assert len(exact["pairwise"]) == 15
        assert doc["identity_verified"] is True
        assert doc["equality_holds"] is False

    def test_triple_has_zero_obstruction(self, capsys, tmp_path):
        path = tmp_path / "triple.json"
        path.write_text(
            json.dumps({"distributions": [[0.5, 0.5], [0.1, 0.9], [1, 0]]})
        )
        code, doc, _ = run_cli(capsys, "decompose", str(path))
        assert code == 0
        assert doc["exact"]["g_double_prime"] == "0"
        assert doc["equality_holds"] is True

    def test_identical_rows_all_zero(self, capsys, tmp_path):
        path = tmp_path / "same.json"
        path.write_text(json.dumps({"distributions": [[0.3, 0.7]] * 4}))
        code, doc, _ = run_cli(capsys, "decompose", str(path))
        assert code == 0
        assert doc["exact"]["emd"] == "0"
        assert doc["exact"]["pairwise_sum"] == "0"
        assert doc["equality_holds"] is True


class TestExpectedCommand:
    def test_exact_normalized_reference(self, capsys):
        code, doc, _ = run_cli(
            capsys, "expected", "8", "10", "--method", "exact", "--normalized"
        )
        assert code == 0
        assert doc["decimal"]["value"].startswith("7.9002814")
        assert doc["decimal"]["normalized"].startswith("0.1975")
        assert F(doc["exact"]["normalized"]) == F(doc["exact"]["value"]) / 40

    def test_quadrature_reference(self, capsys):
        code, doc, _ = run_cli(capsys, "expected", "6", "100", "--method", "quadrature")
        assert code == 0
        assert abs(float(doc["decimal"]["value"]) - 72.6685) < 5e-3
        assert doc["method"]["nodes"] == 128  # the final count per half-window
        assert 0 <= doc["method"]["error_estimate"] <= 1e-14 * 72.67

    def test_quadrature_refuses_d_past_limit(self, capsys):
        code, doc, err = run_cli(capsys, "expected", "1", "100000", "--method", "quadrature")
        assert code == 2
        assert doc is None
        assert "d=100000 exceeds limit 65536" in err

    def test_quadrature_has_no_start_count_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["expected", "2", "65536", "--method", "quadrature", "--nodes", "2"])
        captured = capsys.readouterr()
        assert exc.value.code == 1
        assert captured.out == ""
        assert "unrecognized arguments: --nodes 2" in captured.err

    def test_recursive_small(self, capsys):
        code, doc, _ = run_cli(capsys, "expected", "1", "2", "--method", "recursive")
        assert code == 0
        assert doc["exact"]["value"] == "1/3"

    def test_mc_metadata(self, capsys):
        code, doc, _ = run_cli(
            capsys, "expected", "1", "2", "--method", "mc",
            "--samples", "2000", "--seed", "77",
        )
        assert code == 0
        assert doc["method"]["samples"] == 2000
        assert doc["method"]["seed"] == 77
        assert doc["method"]["stderr"] > 0
        assert abs(float(doc["decimal"]["value"]) - 1 / 3) < 0.05

    def test_threshold_exceeded_exit_code(self, capsys):
        code, doc, err = run_cli(capsys, "expected", "7", "215", "--method", "exact")
        assert code == 2
        assert doc is None
        assert "quadrature" in err

    def test_recursion_budget_exit_code(self, capsys):
        code, _, err = run_cli(capsys, "expected", "8", "10", "--method", "recursive")
        assert code == 2

    def test_invalid_dimensions_exit_code(self, capsys):
        code, _, _ = run_cli(capsys, "expected", "0", "2")
        assert code == 1

    def test_negative_seed_exit_code(self, capsys):
        code, doc, err = run_cli(capsys, "expected", "3", "4", "--method", "mc", "--seed", "-1")
        assert code == 1
        assert doc is None
        assert "seed must lie in [0, 2^64)" in err

    @pytest.mark.parametrize(
        "argv, culprit",
        [
            (["3", "4", "--method", "mc", "--samples", "1000000000000"], "samples exceed limit"),
            (["1000000000", "2", "--method", "mc", "--samples", "2"],
             "a sample of d*n = 2000000000 uniforms exceeds the per-sample limit"),
            (["1000", "100", "--method", "mc"],
             "100000 samples of d*n = 100000 uniforms (10000000000 in all) exceed limit"),
        ],
        ids=["samples", "sample-uniforms", "uniforms"],
    )
    def test_work_budget_exit_code(self, capsys, argv, culprit):
        code, doc, err = run_cli(capsys, "expected", *argv)
        assert code == 2
        assert doc is None
        assert culprit in err


class TestCostCommand:
    def test_reference_column(self, capsys):
        code, doc, _ = run_cli(
            capsys, "cost", "0.2", "0.3", "0.6", "0.0", "0.7", "0.1"
        )
        assert code == 0
        assert doc["exact"]["cost"] == "13/10"
        assert doc["forms"]["signed_order_sum"] == doc["forms"]["weighted_gap_sum"]

    def test_integer_sites_with_counting_form(self, capsys):
        code, doc, _ = run_cli(capsys, "cost", "1", "4", "--sites", "3")
        assert code == 0
        assert doc["exact"]["cost"] == "3"
        assert doc["forms"]["site_counting"] == "3"

    def test_site_count_past_the_counting_limit_exits_two(self, capsys):
        code, doc, err = run_cli(capsys, "cost", "1", "2", "--sites", "100000000000000000000")
        assert code == 2
        assert doc is None
        assert "site counting over n = 100000000000000000000 sites" in err

    def test_grouped_digits_accepted(self, capsys):
        code, doc, _ = run_cli(capsys, "cost", "1_000", "0")
        assert code == 0
        assert doc["exact"]["cost"] == "1000"

    @pytest.mark.parametrize("value", ["_1", "1_", "1__0", "1._5"])
    def test_stray_underscore_rejected(self, capsys, value):
        code, doc, err = run_cli(capsys, "cost", "0", value)
        assert code == 1
        assert doc is None
        assert f"value 2: cannot parse scalar {value!r}" in err

    def test_single_value_rejected(self, capsys):
        code, _, _ = run_cli(capsys, "cost", "1")
        assert code == 1

    @pytest.mark.parametrize("value", ["1e99999", "1e-99999", "1e999999999", "0e1001"])
    def test_huge_exponent_rejected(self, capsys, value):
        code, doc, err = run_cli(capsys, "cost", "0", value)
        assert code == 1
        assert doc is None
        assert f"value 2: {value!r} has a decimal exponent beyond +-1000" in err

    def test_largest_exponent_accepted(self, capsys):
        code, doc, _ = run_cli(capsys, "cost", "1e-1000", "1e1000")
        assert code == 0
        assert doc["exact"]["cost"] == str(F(10**1000) - F(1, 10**1000))

    @pytest.mark.parametrize("value", ["nan", "inf", "Infinity"])
    def test_non_finite_value_rejected(self, capsys, value):
        code, doc, err = run_cli(capsys, "cost", "0.5", value)
        assert code == 1
        assert doc is None
        assert f"value 2: {value!r} is not finite" in err


class TestSelftestCommand:
    def test_default_budget_passes(self, capsys):
        code, doc, _ = run_cli(capsys, "selftest")
        assert code == 0
        assert doc["passed"] is True
        assert all(c["status"] == "pass" for c in doc["checks"])

    def test_zero_budget_skips_exhaustive(self, capsys):
        code, doc, _ = run_cli(capsys, "selftest", "--budget", "0")
        assert code == 0
        statuses = {c["name"]: c["status"] for c in doc["checks"]}
        assert statuses["monge-exhaustive"] == "skip"

    @pytest.mark.parametrize("budget", ["-1", "-1000"])
    def test_negative_budget_is_a_usage_error(self, capsys, budget):
        with pytest.raises(SystemExit) as exc:
            main(["selftest", "--budget", budget])
        assert exc.value.code == 1
        err = capsys.readouterr().err
        assert f"argument --budget: must be a nonnegative integer, got {budget}" in err

    def test_budget_below_the_grid_skips_exhaustive(self, capsys):
        code, doc, _ = run_cli(capsys, "selftest", "--budget", "5")
        assert code == 0
        assert doc["passed"] is True
        monge = next(c for c in doc["checks"] if c["name"] == "monge-exhaustive")
        assert monge == {
            "name": "monge-exhaustive",
            "status": "skip",
            "detail": "(n+1)^d = 8 cells / 6 adjacent pairs exceed budget 5",
        }

    def test_negative_budget_refused_by_the_library_runner(self):
        with pytest.raises(DomainError, match="budget must be >= 0, got -1"):
            run_selftest(budget=-1)

    def test_injected_corruption_fails(self, capsys):
        code, doc, _ = run_cli(capsys, "selftest", "--inject-cost-corruption")
        assert code == 3
        assert doc["passed"] is False
        statuses = {c["name"]: c["status"] for c in doc["checks"]}
        assert statuses["monge-with-injected-corruption"] == "fail"

    @pytest.mark.parametrize("budget", ["0", "5"])
    def test_injected_corruption_fails_below_the_grid(self, capsys, budget):
        code, doc, err = run_cli(
            capsys, "selftest", "--budget", budget, "--inject-cost-corruption"
        )
        assert code == 3
        assert err == ""
        assert doc["passed"] is False
        statuses = {c["name"]: c["status"] for c in doc["checks"]}
        assert statuses["monge-exhaustive"] == "skip"
        assert statuses["monge-with-injected-corruption"] == "fail"


class TestParserAndRendering:
    def test_usage_error_exits_one(self):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(["expected", "not-a-number", "2"])
        assert exc.value.code == 1

    def test_unknown_command_exits_one(self):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(["frobnicate"])
        assert exc.value.code == 1

    @pytest.mark.parametrize("digits", ["0", "-3"])
    def test_non_positive_digits_rejected(self, capsys, digits):
        with pytest.raises(SystemExit) as exc:
            main(["emd", GOLDEN_JSON, "--digits", digits])
        assert exc.value.code == 1
        err = capsys.readouterr().err
        assert f"argument --digits: must be a positive integer, got {digits}" in err
        assert "Traceback" not in err

    def test_decimal_str_precision(self):
        value = F(1, 3)
        assert decimal_str(value, 5) == "0.33333"
        tiny = F(1, 7) ** 3
        reparsed = F(decimal_str(tiny, 12))
        assert abs(reparsed - tiny) <= tiny * F(10) ** (-11)

    def test_console_script_entry_point(self):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
        result = subprocess.run(
            [sys.executable, "-m", "emdkit.cli", "--version"],
            capture_output=True,
            text=True,
            env=env,
        )
        assert result.returncode == 0
        assert "emdkit" in result.stdout

    @pytest.mark.parametrize(
        "argv, code",
        [
            (["emd", GOLDEN_JSON, "--plan", "--barycenter"], 0),
            (["selftest", "--inject-cost-corruption"], 3),
            (["selftest", "--budget", "0", "--inject-cost-corruption"], 3),
            (["selftest", "--budget", "5", "--inject-cost-corruption"], 3),
        ],
    )
    def test_closed_pipe_keeps_the_exit_code(self, argv, code):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
        reader, writer = os.pipe()
        os.close(reader)  # the reader is gone before the command writes anything
        try:
            result = subprocess.run(
                [sys.executable, "-m", "emdkit.cli", *argv],
                stdout=writer,
                stderr=subprocess.PIPE,
                text=True,
                env=env,
            )
        finally:
            os.close(writer)
        assert result.returncode == code
        assert result.stderr == ""

    def test_invariant_violation_exits_three(self, capsys, monkeypatch):
        # unreachable through honest inputs; exercise the mapping directly
        from emdkit.cli import _cmd_cost
        from emdkit.errors import InvariantViolation

        def broken(args):
            raise InvariantViolation("forced for the exit-code test")

        monkeypatch.setattr("emdkit.cli._cmd_cost", broken)
        code, _, err = run_cli(capsys, "cost", "1", "2")
        assert code == 3
        assert "invariant" in err
