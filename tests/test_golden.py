"""Golden outputs: exact CLI stdout and exact library floats.

The expected files under ``tests/golden/`` were recorded from the
row-major implementation that preceded the column layout of DataMatrix,
the ``validate-*`` files from the command before it shared
``io.read_checked_matrix`` (re-recorded, with every ``validate-*`` entry
of ``matrix-files.json``, when ``validate`` gained its off-diagonal
[-1, 1] check), and the ``compare-*`` files and
``usage-errors.json`` (exit code, stdout and stderr of each rejected
command line) from the CLI before its options moved into argparse
defaults; its ``max-sweeps-zero`` entry was re-recorded when that option
was removed, and now pins its absence. ``matrix-files.json`` holds the exit code, stdout and stderr of
``matrix`` and ``validate`` (text and JSON) on thirteen small matrix files,
accepted or rejected, plus a ``compare`` of one of them against the golden
data CSV; it was recorded before the matrix-file path was collapsed onto
one number parser, one tolerance and one solver exit, and pins its error
lines. ``compare-edges.json`` holds the same for ``compare`` on seven pairs
that decide each file's kind, or fail, on different branches; it was
recorded before the kind and the matrix came from one parse of the file.
Any refactor of parsing, data layout, generation, correlation,
matrix checks or argument handling must reproduce them byte for byte.
Input paths are machine-dependent, so each occurrence of an input path in
stdout or stderr is replaced by ``{path}`` (``{path_a}``, ``{path_b}`` for
two) before the comparison.
"""

import io
import json
import statistics
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from mcor import Scenario, SplitMix64, correlation_matrix, derive_seed, generate, monte_carlo
from mcor.cli import main
from mcor.datafile import read_csv_data
from mcor.io import bundled_fixture
from oracles import full_square, rms_mcor

GOLDEN = Path(__file__).with_name("golden")
SIM_ARGS = ("--n", "300", "--reps", "7", "--seed", "11")


def golden_csv() -> str:
    """30 rows: a text id, four numeric columns with shared structure,
    one NA row and one row with an empty cell."""
    rng = SplitMix64(20200305)
    lines = ["id,a,b,c,d"]
    for i in range(30):
        a, e1, e2, e3 = rng.uniforms(4)
        cells = [f"s{i + 1:02d}", a, a + 0.5 * e1, 2.0 * e2 - a, e3]
        cells = [c if isinstance(c, str) else f"{c:.9g}" for c in cells]
        if i == 5:
            cells[3] = "NA"
        if i == 17:
            cells[1] = ""
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def near_symmetric_csv(csv_path: str) -> str:
    """Headerless 4x4 correlation matrix of the golden data, repr digits,
    with two mirrored pairs and one diagonal entry off by less than 1e-9."""
    grid = full_square(correlation_matrix(read_csv_data(csv_path, drop_na=True)).lower)
    grid[0][1] += 4e-10
    grid[3][2] -= 7e-10
    grid[2][2] += 3e-10
    return "".join(",".join(repr(v) for v in row) + "\n" for row in grid)


def _cases():
    cases = {}
    for scenario in Scenario:
        cases[f"simulate-{scenario.value}.json"] = [
            "simulate", scenario.value, *SIM_ARGS, "--output", "json"]
    cases["simulate-noisy-combo.txt"] = ["simulate", "noisy-combo", *SIM_ARGS]
    for fixture in ("tb_area1", "tb_area2"):
        for command in ("matrix", "validate"):
            cases[f"{command}-{fixture}.json"] = [command, f"{{{fixture}}}", "--output", "json"]
            cases[f"{command}-{fixture}.txt"] = [command, f"{{{fixture}}}"]
    cases["compute-drop-na.json"] = ["compute", "{csv}", "--drop-na", "--output", "json"]
    cases["compute-drop-na.txt"] = ["compute", "{csv}", "--drop-na"]
    cases["validate-near-symmetric.json"] = ["validate", "{matrix}", "--output", "json"]
    cases["validate-near-symmetric.txt"] = ["validate", "{matrix}"]
    cases["compare-tb_area.json"] = ["compare", "{tb_area1}", "{tb_area2}", "--output", "json"]
    cases["compare-tb_area.txt"] = ["compare", "{tb_area1}", "{tb_area2}"]
    mixed = ["compare", "{csv}", "{tb_area2}", "--columns", "a,b,d", "--drop-na"]
    cases["compare-columns.json"] = [*mixed, "--output", "json"]
    cases["compare-columns.txt"] = mixed
    return cases


CASES = _cases()

# Small matrix files, each reaching a different branch of the matrix path.
MATRIX_FILES = {
    "header-row": "a,b,c\n1,0.3,0.2\n0.3,1,-0.1\n0.2,-0.1,1\n",
    "bad-cell": "1,0.2\n0.2,x\n",
    "nan-token": "1,0.5\n0.5,nan\n",
    "inf-token": "1,inf\n0.5,1\n",
    "ragged-rows": "1,0.5\n0.5\n",
    "grid-3x2": "1,0.5\n0.5,1\n0.2,0.3\n",
    "empty": "",
    "header-no-rows": "a,b\n",
    "near-symmetric-2x2": "1,0.5000000001\n0.4999999999,1\n",
    "not-symmetric": "1,0.5,0.2\n0.4,1,0.1\n0.2,0.1,1\n",
    "diagonal-off-unit": "1.0000000001,0.5\n0.5,1\n",
    "entries-near-float-max": "1,1e308\n1.5e308,1\n",
    "quoted-cell": '1,"0.5"\n0.5,1\n',
}


def _matrix_file_cases():
    cases = {}
    for name in MATRIX_FILES:
        for command in ("matrix", "validate"):
            cases[f"{command}-{name}"] = [command, f"{{{name}}}"]
            cases[f"{command}-{name}-json"] = [command, f"{{{name}}}", "--output", "json"]
    cases["compare-header-row-csv"] = ["compare", "{header-row}", "{csv}", "--drop-na"]
    cases["compare-header-row-csv-json"] = [
        "compare", "{header-row}", "{csv}", "--drop-na", "--output", "json"]
    return cases


MATRIX_FILE_CASES = _matrix_file_cases()

# compare inputs on each side of how the kind of a file is decided.
COMPARE_FILES = {
    "ragged-data": "a,b\n1,2\n3\n",
    "square-data": "a,b\n1,2\n3,4\n",
    "data": "a,b,c\n1,2,3\n2,4.1,5\n3,5.8,8\n4,8.2,12\n",
    "diagonal-two": "2,0.5,0.2\n0.5,1,0.1\n0.2,0.1,1\n",
    "asymmetric": "1,0.5\n0.4,1\n",
}


def _compare_edge_cases():
    argvs = {
        # Both files are read before either is judged: B's FILE_ERROR wins.
        "ragged-data-missing": ["{ragged-data}", "{missing}"],
        "square-data": ["{square-data}", "{tb_area1}"],
        "as-matrix-data": ["{data}", "{tb_area1}", "--as", "matrix"],
        "as-matrix-diagonal-two": ["{tb_area1}", "{diagonal-two}", "--as", "matrix"],
        "asymmetric": ["{asymmetric}", "{tb_area1}"],
        "diagonal-two": ["{diagonal-two}", "{tb_area2}"],
        "as-data": ["{tb_area1}", "{tb_area2}", "--as", "data"],
    }
    cases = {}
    for name, argv in argvs.items():
        cases[f"compare-{name}"] = ["compare", *argv]
        cases[f"compare-{name}-json"] = ["compare", *argv, "--output", "json"]
    return cases


COMPARE_EDGE_CASES = _compare_edge_cases()

# Each is rejected before any file is opened, so the paths need not exist.
USAGE_ERRORS = {
    "no-command": [],
    "unknown-command": ["frobnicate"],
    "compute-without-path": ["compute"],
    "unknown-flag": ["compute", "x.csv", "--frobnicate"],
    "compare-one-path": ["compare", "only-one.csv"],
    "seed-negative": ["simulate", "chained", "--seed", "-3"],
    "seed-over-64-bits": ["simulate", "chained", "--seed", str(2**64)],
    "seed-not-an-integer": ["simulate", "chained", "--seed", "x"],
    "unknown-scenario": ["simulate", "quadratic"],
    "n-zero": ["simulate", "chained", "--n", "0"],
    "reps-not-an-integer": ["simulate", "chained", "--reps", "x"],
    "max-sweeps-zero": ["matrix", "m.csv", "--max-sweeps", "0"],
    "columns-without-names": ["compute", "x.csv", "--columns", " , "],
    "as-csv": ["compare", "a.csv", "b.csv", "--as", "csv"],
    "output-xml": ["matrix", "m.csv", "--output", "xml"],
}


def run_main(argv) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def cli_result(name: str, inputs: dict) -> tuple[int, str, str]:
    """Exit code, stdout and stderr of a case, input paths in stdout and
    stderr replaced by ``{path}`` (or ``{path_a}`` and ``{path_b}``)."""
    template = {**CASES, **MATRIX_FILE_CASES, **COMPARE_EDGE_CASES}[name]
    code, out, err = run_main([inputs.get(arg, arg) for arg in template])
    paths = [inputs[arg] for arg in template if arg in inputs]
    marks = ["{path}"] if len(paths) == 1 else ["{path_a}", "{path_b}"]
    for path, mark in zip(paths, marks):
        out = out.replace(path, mark)
        err = err.replace(path, mark)
    return code, out, err


def library_values(csv_path: str) -> dict:
    """Full-precision floats behind the rounded CLI output."""
    values = {}
    for scenario in Scenario:
        s = monte_carlo(scenario, 300, 7, 11)
        values[f"monte_carlo:{scenario.value}"] = [
            repr(v) for v in (s.mcor_mean, s.mcor_sd, s.mcor_min, s.mcor_max)]
    square = full_square(correlation_matrix(read_csv_data(csv_path, drop_na=True)).lower)
    values["correlation_matrix:compute-drop-na"] = [repr(v) for row in square for v in row]
    return values


@pytest.fixture
def csv_path(tmp_path) -> str:
    path = tmp_path / "golden.csv"
    path.write_text(golden_csv(), encoding="utf-8")
    return str(path)


@pytest.fixture
def inputs(csv_path, tmp_path) -> dict:
    matrix = tmp_path / "near-symmetric.csv"
    matrix.write_text(near_symmetric_csv(csv_path), encoding="utf-8")
    paths = {
        "{csv}": csv_path,
        "{matrix}": str(matrix),
        "{tb_area1}": str(bundled_fixture("tb_area1.csv")),
        "{tb_area2}": str(bundled_fixture("tb_area2.csv")),
    }
    for name, text in {**MATRIX_FILES, **COMPARE_FILES}.items():
        path = tmp_path / f"{name}.csv"
        path.write_text(text, encoding="utf-8")
        paths[f"{{{name}}}"] = str(path)
    paths["{missing}"] = str(tmp_path / "missing.csv")
    return paths


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_stdout_is_unchanged(name, inputs):
    expected = (GOLDEN / name).read_text(encoding="utf-8")
    assert cli_result(name, inputs) == (0, expected, "")


@pytest.mark.parametrize("name", sorted(MATRIX_FILE_CASES))
def test_matrix_file_outputs_are_unchanged(name, inputs):
    expected = json.loads((GOLDEN / "matrix-files.json").read_text(encoding="utf-8"))
    code, out, err = cli_result(name, inputs)
    assert {"exit": code, "stdout": out, "stderr": err} == expected[name]


@pytest.mark.parametrize("name", sorted(COMPARE_EDGE_CASES))
def test_compare_edge_outputs_are_unchanged(name, inputs):
    expected = json.loads((GOLDEN / "compare-edges.json").read_text(encoding="utf-8"))
    code, out, err = cli_result(name, inputs)
    assert {"exit": code, "stdout": out, "stderr": err} == expected[name]


@pytest.mark.parametrize("name", sorted(USAGE_ERRORS))
def test_usage_errors_are_unchanged(name):
    expected = json.loads((GOLDEN / "usage-errors.json").read_text(encoding="utf-8"))
    code, out, err = run_main(USAGE_ERRORS[name])
    assert {"exit": code, "stdout": out, "stderr": err} == expected[name]


def test_library_floats_are_unchanged(csv_path):
    expected = json.loads((GOLDEN / "library.json").read_text(encoding="utf-8"))
    assert library_values(csv_path) == expected


@pytest.mark.parametrize("scenario", list(Scenario), ids=lambda s: s.value)
def test_library_monte_carlo_floats_match_the_rms_route(scenario):
    # Each replicate's coefficient from the RMS of its correlation matrix's
    # off-diagonal entries, which needs no eigensolver; the summary from
    # statistics, which needs no package code.
    expected = json.loads((GOLDEN / "library.json").read_text(encoding="utf-8"))
    values = [rms_mcor(correlation_matrix(generate(scenario, 300, derive_seed(11, i))).lower)
              for i in range(7)]
    route = (statistics.fmean(values), statistics.stdev(values), min(values), max(values))
    recorded = [float(v) for v in expected[f"monte_carlo:{scenario.value}"]]
    assert recorded == pytest.approx(route, rel=0.0, abs=1e-12)
