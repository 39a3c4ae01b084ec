"""CLI contract: parsing, exit codes, report formats, error lines."""

import argparse
import json
import re
import sys
from pathlib import Path

import pytest

import mcor.cli as mcor_cli
import mcor.datafile as mcor_datafile
import mcor.io as mcor_io
import mcor.linalg as mcor_linalg
import mcor.parallel as mcor_parallel
from mcor import Scenario, SplitMix64, mcor, monte_carlo
from mcor.cli import _build_parser, main, parse_args
from mcor.errors import NotSymmetric, UsageError
from mcor.io import bundled_fixture, read_matrix
from support import assert_no_child_left, rand_data, shadow_builtin

AREA1 = str(bundled_fixture("tb_area1.csv"))
AREA2 = str(bundled_fixture("tb_area2.csv"))
README = Path(__file__).resolve().parents[1] / "README.md"


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestParseArgs:
    def test_compute(self):
        args = parse_args(
            ["compute", "data.csv", "--columns", "a,b,c", "--output", "json"]
        )
        assert args.command == "compute"
        assert args.path == "data.csv"
        assert args.columns == ("a", "b", "c")
        assert args.output == "json"
        assert args.drop_na is False

    def test_compare(self):
        args = parse_args(["compare", "areaA.csv", "areaB.csv"])
        assert args.command == "compare"
        assert (args.path_a, args.path_b) == ("areaA.csv", "areaB.csv")
        assert args.as_kind is None

    def test_simulate(self):
        args = parse_args(
            ["simulate", "linear-combo", "--n", "1000", "--seed", "42", "--reps", "100"]
        )
        assert args.command == "simulate"
        assert args.scenario == "linear-combo"
        assert Scenario.from_cli_name(args.scenario) is Scenario.LINEAR_COMBO
        assert (args.n, args.seed, args.reps) == (1000, 42, 100)

    def test_unknown_flag(self):
        with pytest.raises(UsageError):
            parse_args(["compute", "x.csv", "--frobnicate"])

    def test_missing_operand(self):
        with pytest.raises(UsageError):
            parse_args(["compare", "only-one.csv"])

    def test_no_command(self):
        with pytest.raises(UsageError):
            parse_args([])

    def test_empty_columns(self):
        with pytest.raises(UsageError, match="--columns needs at least one name"):
            parse_args(["compute", "x.csv", "--columns", ""])

    def test_bad_seed(self):
        with pytest.raises(UsageError):
            parse_args(["simulate", "chained", "--seed", "-3"])
        with pytest.raises(UsageError):
            parse_args(["simulate", "chained", "--seed", str(2**64)])


def readme_synopses() -> dict:
    """Command name -> its synopsis line(s) in README's Command line block."""
    text = README.read_text(encoding="utf-8")
    block = text.split("## Command line", 1)[1].split("```", 2)[1]
    synopses = {}
    for line in block.splitlines():
        if line.startswith("mcor "):
            command = line.split()[1]
            synopses[command] = line
        elif line.startswith(" ") and synopses:
            synopses[command] += "\n" + line
    return synopses


def test_readme_synopsis_lists_every_option():
    subparsers = next(action for action in _build_parser()._actions
                      if isinstance(action, argparse._SubParsersAction))
    synopses = readme_synopses()
    assert set(synopses) == set(subparsers.choices)
    for command, parser in subparsers.choices.items():
        for action in parser._actions:
            for option in action.option_strings:
                if option.startswith("--") and option != "--help":
                    assert re.search(re.escape("[" + option) + r"[ \]]", synopses[command]), (
                        f"README synopsis of {command} lacks {option}")


def test_readme_synopsis_lists_only_existing_options():
    subparsers = next(action for action in _build_parser()._actions
                      if isinstance(action, argparse._SubParsersAction))
    for command, synopsis in readme_synopses().items():
        options = {option for action in subparsers.choices[command]._actions
                   for option in action.option_strings}
        for option in re.findall(r"\[(--[a-z-]+)", synopsis):
            assert option in options, f"README synopsis of {command} lists {option}"


@pytest.mark.parametrize("command", ["compute", "matrix", "compare", "validate"])
def test_max_sweeps_is_not_an_option(capsys, command):
    paths = ["a.csv", "b.csv"] if command == "compare" else ["a.csv"]
    code, out, err = run_cli(capsys, command, *paths, "--max-sweeps", "5")
    assert (code, out) == (2, "")
    assert err == "error: USAGE: unrecognized arguments: --max-sweeps 5\n"


class TestComputeCommand:
    def test_text_report(self, tmp_path, capsys):
        path = write(tmp_path, "d.csv", "a,b\n1,2\n2,4.2\n3,5.8\n4,8.1\n")
        code, out, err = run_cli(capsys, "compute", path)
        assert code == 0 and err == ""
        assert "mcor:" in out

    def test_json_schema(self, tmp_path, capsys):
        path = write(tmp_path, "d.csv", "a,b,c\n1,2,4\n2,4,5\n3,5,9\n4,9,14\n")
        code, out, err = run_cli(capsys, "compute", path, "--output", "json")
        assert code == 0
        payload = json.loads(out)
        assert list(payload) == ["kind", "inputs", "result", "warnings"]
        assert payload["kind"] == "mcor_report"
        assert payload["inputs"] == [path]
        assert set(payload["result"]) == {
            "d", "mcor", "eigenvalues", "sphericity",
            "rescaled_sphericity", "min_eigenvalue",
        }

    def test_zero_variance_error_line(self, tmp_path, capsys):
        path = write(tmp_path, "d.csv", "a,b\n1,5\n2,5\n3,5\n")
        code, out, err = run_cli(capsys, "compute", path)
        assert code == 1
        assert out == ""
        assert err == "error: ZERO_VARIANCE: column b\n"

    def test_drop_na_flag(self, tmp_path, capsys):
        path = write(tmp_path, "d.csv", "a,b\n1,2\nNA,9\n2,4.5\n3,5.5\n")
        code, _, _ = run_cli(capsys, "compute", path, "--drop-na")
        assert code == 0

    def test_columns_flag(self, tmp_path, capsys):
        path = write(tmp_path, "d.csv", "a,b,c\n1,2,x\n2,4,y\n3,7,z\n")
        code, out, _ = run_cli(capsys, "compute", path, "--columns", "a,b",
                               "--output", "json")
        assert code == 0
        assert json.loads(out)["result"]["d"] == 2

    @pytest.mark.parametrize("columns, line", [
        ("a,a", "BAD_ARGUMENTS: column(s) selected more than once: a"),
        ("b,a,b", "BAD_ARGUMENTS: column(s) selected more than once: b"),
        ("b,a,b,zz", "EMPTY_SELECTION: column(s) not in header: zz"),
    ])
    def test_column_selected_twice(self, tmp_path, capsys, columns, line):
        path = write(tmp_path, "d.csv", "a,b\n1,2\n2,1\n4,3\n")
        code, out, err = run_cli(capsys, "compute", path, "--columns", columns)
        assert (code, out, err) == (1, "", f"error: {line}\n")

    @pytest.mark.parametrize("columns", ["a,b", "b,a"])
    def test_column_named_twice_in_the_header(self, tmp_path, capsys, columns):
        path = write(tmp_path, "d.csv", "a,a,b\n1,2,3\n2,3,5\n4,4,1\n")
        assert run_cli(capsys, "compute", path, "--columns", columns) == (
            1, "", "error: BAD_ARGUMENTS: column(s) named more than once in the header: a\n")
        # Without --columns every numeric column is used, duplicates included.
        code, out, err = run_cli(capsys, "compute", path, "--output", "json")
        assert (code, err, json.loads(out)["result"]["d"]) == (0, "", 3)

    @pytest.mark.parametrize("text, options, n", [
        ("a,b\n1,2\n", [], 1),
        ("a,b\n1,2\n", ["--drop-na"], 1),
        ("a,b\n", ["--columns", "a,b"], 0),
        ("a,b\n", [], 0),
        ("a,b\n", ["--drop-na"], 0),
        ("a,b\n", ["--drop-na", "--columns", "a"], 0),
    ])
    def test_too_few_rows_without_deletion(self, tmp_path, capsys, text, options, n):
        # "after deletion" is reserved for files whose rows --drop-na removed;
        # a header with no rows is short of rows however columns are chosen.
        path = write(tmp_path, "d.csv", text)
        assert run_cli(capsys, "compute", path, *options) == (
            1, "", f"error: TOO_FEW_ROWS: need at least 2 observations, got {n}\n")

    def test_column_spanning_the_float_range(self, tmp_path, capsys):
        path = write(tmp_path, "d.csv", "a,b\n1e300,1\n-1e300,2\n0,3\n")
        code, out, err = run_cli(capsys, "compute", path)
        assert (code, err) == (0, "")
        assert "  mcor:                0.5000\n" in out

    def test_column_at_the_float_maximum(self, tmp_path, capsys):
        path = write(tmp_path, "d.csv", "a,b\n1e308,1\n1e308,2\n-1e308,4\n")
        code, out, err = run_cli(capsys, "compute", path)
        assert (code, err) == (0, "")
        assert "  mcor:                0.9449\n" in out

    @pytest.mark.parametrize("scale", ["e-200", "e160"])
    def test_scaled_data_set(self, tmp_path, capsys, scale):
        rows = ["1,2,3", "2,1,5", "3,4,4", "4,3,1"]
        plain = write(tmp_path, "plain.csv", "a,b,c\n" + "\n".join(rows) + "\n")
        scaled = write(tmp_path, "scaled.csv", "a,b,c\n" + "\n".join(
            ",".join(cell + scale for cell in row.split(",")) for row in rows) + "\n")
        code, out, err = run_cli(capsys, "compute", scaled, "--output", "json")
        assert (code, err) == (0, "")
        _, expected, _ = run_cli(capsys, "compute", plain, "--output", "json")
        assert json.loads(out)["result"] == json.loads(expected)["result"]


class TestMatrixCommand:
    def test_identity_matrix(self, tmp_path, capsys):
        rows = "\n".join(",".join("1" if i == j else "0" for j in range(6))
                         for i in range(6))
        path = write(tmp_path, "eye.csv", rows + "\n")
        code, out, err = run_cli(capsys, "matrix", path, "--output", "json")
        assert code == 0 and err == ""
        assert json.loads(out)["result"]["mcor"] == 0.0

    def test_not_square_error(self, tmp_path, capsys):
        path = write(tmp_path, "m.csv", "1,0.5,0.1\n0.5,1,0.2\n")
        code, out, err = run_cli(capsys, "matrix", path)
        assert code == 1
        assert err.startswith("error: NOT_SQUARE: ")

    def test_entry_near_the_float_maximum(self, tmp_path, capsys):
        path = write(tmp_path, "m.csv", "1,1.5e308\n1.5e308,1\n")
        code, out, err = run_cli(capsys, "matrix", path)
        assert code == 1
        assert err.startswith("error: NOT_A_CORRELATION_MATRIX: ")

    def test_worst_pair_when_gaps_overflow(self, tmp_path, capsys):
        # Both gaps overflow to inf; (1,3) is the further apart.
        path = write(tmp_path, "m.csv",
                     "1,1.5e308,1.7e308\n-1.5e308,1,0\n-1.7e308,0,1\n")
        code, out, err = run_cli(capsys, "matrix", path)
        assert (code, out) == (1, "")
        assert err == ("error: NOT_SYMMETRIC: entries (1,3) = 1.7e+308 and "
                       "(3,1) = -1.7e+308 differ by inf\n")

    def test_no_convergence_is_one_error_line(self, capsys, monkeypatch):
        # The fixture needs more than one QL iteration on some eigenvalue.
        monkeypatch.setattr(mcor_linalg, "MAX_SWEEPS", 1)
        code, out, err = run_cli(capsys, "matrix", AREA1)
        assert (code, out) == (1, "")
        assert len(err.splitlines()) == 1
        assert err.startswith("error: NO_CONVERGENCE: an eigenvalue is not split off after 1 ")

    @pytest.mark.parametrize("argv", [["matrix", "{m}"], ["validate", "{m}"],
                                      ["compare", "{m}", "{m}", "--as", "matrix"]])
    def test_rows_of_a_headed_matrix_count_the_header(self, tmp_path, capsys, argv):
        path = write(tmp_path, "m.csv", "a,b\n1,x\n")
        code, out, err = run_cli(capsys, *(arg.replace("{m}", path) for arg in argv))
        assert (code, out) == (1, "")
        assert err == "error: PARSE_ERROR: row 2, column 2: cannot parse 'x'\n"

    @pytest.mark.parametrize("output", ["text", "json"])
    def test_hand_rounded_matrix_is_accepted(self, tmp_path, capsys, output):
        # Its coefficient is 1 + 5e-10, above 1 by more than roundoff but
        # within what a 1e-9 entry tolerance allows.
        path = write(tmp_path, "m.csv", "1,1.0000000005\n1.0000000005,1\n")
        code, out, err = run_cli(capsys, "matrix", path, "--output", output)
        assert (code, err) == (0, "")
        warning = "off-diagonal entry (1,2) exceeds unit magnitude by 5.000e-10"
        if output == "json":
            payload = json.loads(out)
            assert payload["result"]["mcor"] == 1.0
            assert warning in payload["warnings"]
        else:
            assert "  mcor:                1.0000\n" in out
            assert f"  warning: {warning}\n" in out

    def test_diagonal_below_unit_is_accepted(self, tmp_path, capsys):
        # sum(l^2) = 2 (1 - 9e-10)^2 puts the rescaled sphericity at -1.8e-9.
        path = write(tmp_path, "m.csv", "0.9999999991,0\n0,0.9999999991\n")
        code, out, err = run_cli(capsys, "matrix", path, "--output", "json")
        assert (code, err) == (0, "")
        result = json.loads(out)["result"]
        assert (result["mcor"], result["rescaled_sphericity"]) == (0.0, 0.0)


class TestCompareCommand:
    @pytest.mark.parametrize("options", [[], ["--columns", "a,b"], ["--drop-na"]])
    def test_header_without_rows(self, tmp_path, capsys, options):
        path = write(tmp_path, "d.csv", "a,b\n")
        assert run_cli(capsys, "compare", path, AREA1, *options) == (
            1, "", "error: TOO_FEW_ROWS: need at least 2 observations, got 0\n")

    def test_column_named_twice_in_the_header(self, tmp_path, capsys):
        path = write(tmp_path, "d.csv", "a,a,b\n1,2,3\n2,3,5\n4,4,1\n")
        assert run_cli(capsys, "compare", path, path, "--columns", "a,b") == (
            1, "", "error: BAD_ARGUMENTS: column(s) named more than once in the header: a\n")

    def test_fixture_verdict(self, capsys):
        code, out, err = run_cli(capsys, "compare", AREA1, AREA2, "--output", "json")
        assert code == 0 and err == ""
        payload = json.loads(out)
        assert payload["kind"] == "comparison"
        assert payload["result"]["more_correlated"] == "B"
        assert payload["result"]["delta"] < 0

    def test_delta_antisymmetry(self, capsys):
        _, out_ab, _ = run_cli(capsys, "compare", AREA1, AREA2, "--output", "json")
        _, out_ba, _ = run_cli(capsys, "compare", AREA2, AREA1, "--output", "json")
        ab = json.loads(out_ab)["result"]
        ba = json.loads(out_ba)["result"]
        assert abs(ab["delta"] + ba["delta"]) <= 1e-15
        assert ab["more_correlated"] == "B" and ba["more_correlated"] == "A"

    def test_tie_against_itself(self, capsys):
        code, out, _ = run_cli(capsys, "compare", AREA1, AREA1, "--output", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["result"]["more_correlated"] == "tie"
        assert payload["result"]["delta"] == 0.0

    def test_mixed_kinds_auto_detected(self, tmp_path, capsys):
        data = write(tmp_path, "d.csv", "a,b,c\n1,2,3\n2,4.1,5\n3,5.8,8\n4,8.2,12\n")
        code, out, _ = run_cli(capsys, "compare", data, AREA2, "--output", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["result"]["report_a"]["d"] == 3
        assert payload["result"]["report_b"]["d"] == 6

    def test_forced_kind_overrides_sniffing(self, tmp_path, capsys):
        # a unit-diagonal square file sniffs as a matrix; --as data overrides
        path = write(tmp_path, "sq.csv", "a,b\n1,0.25\n0.25,1\n")
        code, out, _ = run_cli(capsys, "compare", path, path, "--output", "json")
        assert code == 0
        as_matrix = json.loads(out)["result"]["report_a"]["mcor"]
        assert as_matrix == pytest.approx(0.25, abs=1e-12)
        code, out, _ = run_cli(capsys, "compare", path, path, "--as", "data",
                               "--output", "json")
        assert code == 0
        # two observations correlate perfectly, so the data reading gives 1
        as_data = json.loads(out)["result"]["report_a"]["mcor"]
        assert as_data == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("extra", [[], ["--as", "matrix"]])
    def test_reads_each_file_once(self, capsys, monkeypatch, tmp_path, extra):
        data = write(tmp_path, "d.csv", "a,b,c\n1,2,3\n2,4.1,5\n3,5.8,8\n4,8.2,12\n")
        pairs = [(AREA1, AREA2)] if extra else [(AREA1, AREA2), (data, AREA2)]
        real_matrix = mcor_io._checked_matrix
        opened, grids = [], []

        def recording_open(path, *args, **kwargs):
            opened.append(path)
            return open(path, *args, **kwargs)

        def counting_matrix(path, rows):
            grids.append(path)
            return real_matrix(path, rows)

        # open() looks the name up in the globals of the module that calls
        # it; read_compare_input calls its own import of _checked_matrix.
        shadow_builtin(monkeypatch, "open", recording_open, mcor_io, mcor_datafile)
        monkeypatch.setattr(mcor_io, "_checked_matrix", counting_matrix)
        monkeypatch.setattr(mcor_datafile, "_checked_matrix", counting_matrix)
        for path_a, path_b in pairs:
            opened.clear()
            grids.clear()
            code, _, err = run_cli(capsys, "compare", path_a, path_b, *extra)
            assert (code, err) == (0, "")
            assert opened == [path_a, path_b]
            # One grid per matrix gives both its kind and its matrix; a data
            # file too long to be square is never parsed as a grid.
            assert grids == [path for path in (path_a, path_b) if path != data]

    # The stream errors of A, then those of B, come before any other error
    # of either file; then A's other errors, then B's.
    @pytest.mark.parametrize("text_a, text_b, line", [
        (b"a,b\n1,2\n3,x\n4,5\n", None, "FILE_ERROR: cannot read {b}: "
         "[Errno 2] No such file or directory: '{b}'"),
        (b"a,b\n" + b"1,2\n" * 10 + b"\xff,3\n", b"a,b\n1,2\n3,5\n4,4\n",
         "FILE_ERROR: {a} is not valid UTF-8: 'utf-8' codec can't decode byte 0xff "
         "in position 44: invalid start byte"),
        (b"a,b\n1,2\n3,4\n5,6\n7\n", b"a,b\n1,2\n\xc3\x28,5\n",
         "FILE_ERROR: {b} is not valid UTF-8: 'utf-8' codec can't decode byte 0xc3 "
         "in position 8: invalid continuation byte"),
        (b"a,b\n1,2\n3,4\n5,6\n7\n", b"a,b\n1,2\n3,x\n4,5\n",
         "PARSE_ERROR: row 5: expected 2 cells, found 1"),
    ], ids=["bad-cell-then-missing", "late-bad-utf8-then-fine", "short-row-then-bad-utf8",
            "short-row-then-bad-cell"])
    def test_error_order(self, tmp_path, capsys, text_a, text_b, line):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        a.write_bytes(text_a)
        if text_b is not None:
            b.write_bytes(text_b)
        code, out, err = run_cli(capsys, "compare", str(a), str(b))
        assert (code, out, err) == (1, "", f"error: {line.format(a=a, b=b)}\n")

    # A square grid has at most a header row plus as many rows as its first
    # data row has cells; a file within that bound is held whole and judged
    # as before, a longer one is data.
    @pytest.mark.parametrize("text, extra, expected", [
        ("u,v\n1,0.3\n0.3,1\n", [], "matrix"),
        ("1,2\n3,4\n5,6\n", [], "data"),
        ("a,b,c,d,e\n1,0.5\n0.5,1\n", [], "matrix"),
        ("a,b\n1,0.5,0.2\n0.5,1,0.3\n0.2,0.3,1\n", [], "matrix"),
        ("a,b\n1,0.5\n0.5,1\n0.2,0.4\n", [], "data"),
        ("a,b\n1,2\n3,4\n5,6\n", ["--as", "matrix"],
         "error: NOT_SQUARE: 3 rows x 2 columns\n"),
    ], ids=["headed-2x2-at-the-bound", "headerless-3x2", "wide-header-over-2x2",
            "narrow-header-over-3x3", "one-row-past-the-bound", "tall-as-matrix"])
    def test_matrix_bound(self, tmp_path, capsys, text, extra, expected):
        path = write(tmp_path, "f.csv", text)
        code, out, err = run_cli(capsys, "compare", path, AREA2, *extra)
        if expected.startswith("error: "):
            assert (code, out, err) == (1, "", expected)
        else:
            assert (code, err) == (0, "")
            assert f"  A ({expected}): {path}" in out.splitlines()


class TestSimulateCommand:
    def test_matches_library_call(self, capsys):
        code, out, err = run_cli(
            capsys, "simulate", "independent", "--n", "120", "--reps", "4",
            "--seed", "9", "--output", "json",
        )
        assert code == 0 and err == ""
        payload = json.loads(out)
        summary = monte_carlo(Scenario.INDEPENDENT, 120, 4, 9)
        assert payload["result"]["mcor_mean"] == pytest.approx(
            summary.mcor_mean, abs=1e-12
        )
        assert payload["result"]["seed"] == 9

    def test_unknown_scenario(self, capsys):
        code, out, err = run_cli(capsys, "simulate", "quadratic")
        assert code == 2
        assert err.startswith("error: USAGE: ")

    # Each is one error line, whether or not the replicates would be forked.
    @pytest.mark.parametrize("n, reps, message", [
        ("100000000000000000000", "1",
         f"n_obs must be <= {sys.maxsize // 3}, got 100000000000000000000"),
        ("5", "100000000000000000000",
         f"replicates must be <= {sys.maxsize}, got 100000000000000000000"),
    ])
    def test_sizes_past_the_index_range(self, capsys, monkeypatch, n, reps, message):
        monkeypatch.setattr(mcor_parallel, "_usable_cpus", lambda: 2)
        code, out, err = run_cli(capsys, "simulate", "independent", "--n", n, "--reps", reps)
        assert (code, out, err) == (1, "", f"error: BAD_ARGUMENTS: {message}\n")
        assert_no_child_left()

    def test_all_linear_text(self, capsys):
        code, out, err = run_cli(
            capsys, "simulate", "all-linear", "--n", "50", "--reps", "3", "--seed", "1"
        )
        assert code == 0
        assert "mcor mean:  1.0000" in out


class TestValidateCommand:
    def test_healthy_fixture(self, capsys):
        code, out, err = run_cli(capsys, "validate", AREA1, "--output", "json")
        assert code == 0 and err == ""
        result = json.loads(out)["result"]
        assert result["symmetric"] and result["unit_diagonal"] and result["psd"]

    def test_asymmetric_square_is_diagnosed_not_fatal(self, tmp_path, capsys):
        path = write(tmp_path, "m.csv", "1,0.6,0.1\n0.2,1,0.3\n0.1,0.3,1\n")
        code, out, err = run_cli(capsys, "validate", path, "--output", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["result"]["symmetric"] is False
        assert "failed check: symmetric" in payload["warnings"]

    def test_entry_past_unit_magnitude_is_diagnosed(self, tmp_path, capsys):
        # PSD within tolerance at d = 2, but past matrix's [-1, 1] rule.
        path = write(tmp_path, "m.csv", "1,1.000000005\n1.000000005,1\n")
        assert run_cli(capsys, "matrix", path)[0] == 1
        code, out, err = run_cli(capsys, "validate", path)
        assert (code, err) == (0, "")
        assert "  off-diagonal in [-1,1]: NO (max excess 5.000e-09)\n" in out
        assert "  PSD within tolerance:   yes" in out
        assert out.endswith("  warning: failed check: off_diagonal_in_range\n")

    def test_non_psd_diagnosed(self, tmp_path, capsys):
        a = "-0.9"
        path = write(tmp_path, "m.csv",
                     f"1,{a},{a}\n{a},1,{a}\n{a},{a},1\n")
        code, out, _ = run_cli(capsys, "validate", path, "--output", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["result"]["psd"] is False
        assert payload["result"]["min_eigenvalue"] < -1e-8


    def test_min_eigenvalue_when_squares_overflow(self, tmp_path, capsys):
        path = write(tmp_path, "m.csv", "1,2e200\n2e200,1\n")
        code, out, err = run_cli(capsys, "validate", path)
        assert code == 0 and err == ""
        assert "PSD within tolerance:   NO (min eigenvalue -2e+200)" in out

    def test_entries_far_below_a_tiny_leading_block(self, tmp_path, capsys):
        path = write(tmp_path, "m.csv", "1,1e-200,1e-200\n1e-200,0,0\n1e-200,0,-1\n")
        code, out, err = run_cli(capsys, "validate", path)
        assert (code, err) == (0, "")
        assert out.startswith("correlation-matrix diagnostics\n")
        assert out.count("correlation-matrix diagnostics") == 1
        assert "  PSD within tolerance:   NO (min eigenvalue -1)\n" in out

    def test_mirrored_entries_near_the_float_maximum(self, tmp_path, capsys):
        path = write(tmp_path, "m.csv", "1,1e308\n1.5e308,1\n")
        code, out, err = run_cli(capsys, "validate", path, "--output", "json")
        assert code == 0 and err == ""
        result = json.loads(out)["result"]
        assert result["symmetric"] is False and result["psd"] is False

    def test_infinite_asymmetry_is_not_written_as_json(self, tmp_path, capsys):
        path = write(tmp_path, "m.csv", "1,1.5e308\n-1.5e308,1\n")
        code, out, err = run_cli(capsys, "validate", path, "--output", "json")
        assert (code, out) == (1, "")
        assert err == ("error: NON_FINITE_ENTRY: validation result is not finite, "
                       "which JSON cannot hold\n")
        code, out, err = run_cli(capsys, "validate", path)
        assert (code, err) == (0, "")
        assert "  symmetric:              NO (max asymmetry inf)\n" in out

    def test_eigenvalue_beyond_the_float_range(self, tmp_path, capsys):
        b = "1.5e308"
        path = write(tmp_path, "m.csv", f"1,{b},{b}\n{b},1,{b}\n{b},{b},1\n")
        code, out, err = run_cli(capsys, "validate", path)
        assert (code, out) == (1, "")
        assert err.startswith("error: NON_FINITE_ENTRY: eigenvalue ")


class TestOneMatrixTolerance:
    """One 1e-9 tolerance judges a matrix file wherever it is read: the
    ``matrix`` command, ``validate`` and the kind ``compare`` gives it
    agree on each side of it."""

    @pytest.mark.parametrize("diagonal, within", [
        ("1.0000000009", True), ("1.0000000011", False)])
    def test_unit_diagonal(self, tmp_path, capsys, diagonal, within):
        # Three rows, so that the file also reads as data: a header and two rows.
        path = write(tmp_path, "m.csv", f"{diagonal},0.5,0.2\n0.5,1,0.1\n0.2,0.1,1\n")
        code, _, err = run_cli(capsys, "matrix", path)
        if within:
            assert (code, err) == (0, "")
        else:
            assert code == 1 and err.startswith("error: NOT_A_CORRELATION_MATRIX: ")
        code, out, _ = run_cli(capsys, "validate", path)
        assert code == 0
        assert f"  unit diagonal:          {'yes' if within else 'NO'} (" in out
        code, out, err = run_cli(capsys, "compare", path, AREA1)
        assert (code, err) == (0, "")
        assert f"  A ({'matrix' if within else 'data'}): " in out

    @pytest.mark.parametrize("mirror, within", [
        ("0.5000000009", True), ("0.5000000011", False)])
    def test_mirrored_entries(self, tmp_path, capsys, mirror, within):
        # compare judges the kind by the diagonal only: an asymmetric file is
        # still read as a matrix, so the matrix path can report the asymmetry.
        path = write(tmp_path, "m.csv", f"1,0.5\n{mirror},1\n")
        if within:
            assert read_matrix(path).lower[1][0] == pytest.approx(0.5, abs=1e-9)
        else:
            with pytest.raises(NotSymmetric):
                read_matrix(path)
        code, _, err = run_cli(capsys, "matrix", path)
        if within:
            assert (code, err) == (0, "")
        else:
            assert code == 1 and err.startswith("error: NOT_SYMMETRIC: ")
        code, out, _ = run_cli(capsys, "validate", path)
        assert code == 0
        assert f"  symmetric:              {'yes' if within else 'NO'} (" in out
        code, out, err = run_cli(capsys, "compare", path, AREA1)
        if within:
            assert (code, err) == (0, "") and "  A (matrix): " in out
        else:
            assert code == 1 and err.startswith("error: NOT_SYMMETRIC: ")


class TestOutputStability:
    def test_json_byte_identical_across_runs(self, capsys):
        _, first, _ = run_cli(capsys, "compare", AREA1, AREA2, "--output", "json")
        _, second, _ = run_cli(capsys, "compare", AREA1, AREA2, "--output", "json")
        assert first == second

    def test_error_paths_print_exactly_one_error_line(self, tmp_path, capsys):
        const = write(tmp_path, "c.csv", "a,b\n1,5\n2,5\n")
        cases = [
            ("compute", const),
            ("matrix", write(tmp_path, "r.csv", "1,2,3\n4,5,6\n")),
            ("compute", str(tmp_path / "missing.csv")),
        ]
        for argv in cases:
            code, out, err = run_cli(capsys, *argv)
            assert code == 1
            lines = err.splitlines()
            assert len(lines) == 1 and lines[0].startswith("error: ")

    @pytest.mark.parametrize("text, argv, message", [
        ('"b\nc",d\n1,2\nx,3\n', (), "PARSE_ERROR: row 3, column b\\nc: cannot use cell 'x'"),
        ("a,b\n1,2\n3,5\n", ("--columns", "a,no\nsuch"),
         "EMPTY_SELECTION: column(s) not in header: no\\nsuch"),
    ], ids=["header", "columns"])
    def test_a_name_that_does_not_print_is_escaped(self, tmp_path, capsys, text, argv, message):
        path = write(tmp_path, "d.csv", text)
        assert run_cli(capsys, "compute", path, *argv) == (1, "", f"error: {message}\n")

    def test_a_path_that_does_not_print_is_escaped(self, tmp_path, capsys):
        path = str(tmp_path / "no\nsuch.csv")
        code, out, err = run_cli(capsys, "compute", path)
        assert (code, out) == (1, "")
        escaped = path.replace("\n", "\\n")
        assert err.startswith(f"error: FILE_ERROR: cannot read {escaped}: ")
        assert err.endswith(f"'{escaped}'\n") and err.count("\n") == 1

    def test_file_that_is_not_utf8(self, tmp_path, capsys):
        path = tmp_path / "d.csv"
        path.write_bytes(b"a,b\n1,2\n\xff,3\n")
        code, out, err = run_cli(capsys, "compute", str(path))
        assert (code, out) == (1, "")
        assert len(err.splitlines()) == 1
        assert err.startswith(f"error: FILE_ERROR: {path} is not valid UTF-8: ")

    def test_empty_data_file(self, tmp_path, capsys):
        path = write(tmp_path, "d.csv", "")
        assert run_cli(capsys, "compute", path) == (1, "", f"error: PARSE_ERROR: {path} is empty\n")

    @pytest.mark.parametrize("command", ["compute", "matrix", "validate", "compare"])
    def test_cell_past_the_csv_field_limit(self, tmp_path, capsys, command):
        # csv.reader refuses a field over 131072 characters.
        path = write(tmp_path, "d.csv", "a,b\n1,2\n3," + "4" * 140_000 + "\n")
        paths = [AREA1, path] if command == "compare" else [path]
        assert run_cli(capsys, command, *paths) == (1, "", (
            f"error: PARSE_ERROR: {path}, line 3: field larger than field limit (131072)\n"))

    @pytest.mark.parametrize("argv, name", [
        (("simulate", "independent", "--n", "100000000", "--reps", "1"), "monte_carlo"),
        (("compute", "data.csv"), "read_csv_data"),
    ], ids=["simulate", "compute"])
    def test_out_of_memory_is_one_error_line(self, capsys, monkeypatch, argv, name):
        def exhausted(*args, **kwargs):
            raise MemoryError
        monkeypatch.setattr(mcor_cli, name, exhausted)
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (1, "")
        assert len(err.splitlines()) == 1 and err.startswith("error: OUT_OF_MEMORY: ")

    def test_usage_error_single_line_exit_2(self, capsys):
        code, out, err = run_cli(capsys, "frobnicate")
        assert code == 2
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: USAGE: ")

    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0


class TestCsvRoundTrip:
    def test_mcor_preserved_through_serialization(self, tmp_path, capsys):
        data = rand_data(SplitMix64(271828), 40, 4)
        direct = mcor(data).mcor
        lines = [",".join(data.var_names)]
        for row in data.values:
            lines.append(",".join(f"{v:.12g}" for v in row))
        path = write(tmp_path, "round.csv", "\n".join(lines) + "\n")
        code, out, _ = run_cli(capsys, "compute", path, "--output", "json")
        assert code == 0
        assert abs(json.loads(out)["result"]["mcor"] - direct) <= 1e-10
