"""Golden outputs: exact CLI stdout and exact library floats.

The expected files under ``tests/golden/`` were recorded from the
row-major implementation that preceded the column layout of DataMatrix,
and the ``validate-*`` files from the command before it shared
``io.read_checked_matrix``; any refactor of parsing, data layout, generation,
correlation or matrix checks must reproduce them byte for byte. Input
paths are machine-dependent, so each occurrence of the input path in
stdout is replaced by ``{path}`` before the comparison.
"""

import json
from pathlib import Path

import pytest

from mcor import Scenario, SplitMix64, correlation_matrix, monte_carlo
from mcor.cli import main
from mcor.io import bundled_fixture, read_csv_data

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
    rows = correlation_matrix(read_csv_data(csv_path, drop_na=True)).rows
    grid = [list(row) for row in rows]
    grid[0][1] += 4e-10
    grid[3][2] -= 7e-10
    grid[2][2] += 3e-10
    return "".join(",".join(repr(v) for v in row) + "\n" for row in grid)


def _cases():
    cases = {}
    for scenario in Scenario:
        cases[f"simulate-{scenario.value}.json"] = (
            None, ["simulate", scenario.value, *SIM_ARGS, "--output", "json"])
    cases["simulate-noisy-combo.txt"] = (None, ["simulate", "noisy-combo", *SIM_ARGS])
    for fixture in ("tb_area1", "tb_area2"):
        path = str(bundled_fixture(f"{fixture}.csv"))
        for command in ("matrix", "validate"):
            cases[f"{command}-{fixture}.json"] = (path, [command, path, "--output", "json"])
            cases[f"{command}-{fixture}.txt"] = (path, [command, path])
    cases["compute-drop-na.json"] = ("{csv}", ["compute", "{csv}", "--drop-na", "--output", "json"])
    cases["compute-drop-na.txt"] = ("{csv}", ["compute", "{csv}", "--drop-na"])
    cases["validate-near-symmetric.json"] = (
        "{matrix}", ["validate", "{matrix}", "--output", "json"])
    cases["validate-near-symmetric.txt"] = ("{matrix}", ["validate", "{matrix}"])
    return cases


CASES = _cases()


def cli_stdout(name: str, inputs: dict, capsys) -> str:
    path, argv = CASES[name]
    path = inputs.get(path, path)
    argv = [inputs.get(arg, arg) for arg in argv]
    assert main(argv) == 0
    out = capsys.readouterr().out
    return out.replace(path, "{path}") if path else out


def library_values(csv_path: str) -> dict:
    """Full-precision floats behind the rounded CLI output."""
    values = {}
    for scenario in Scenario:
        s = monte_carlo(scenario, 300, 7, 11)
        values[f"monte_carlo:{scenario.value}"] = [
            repr(v) for v in (s.mcor_mean, s.mcor_sd, s.mcor_min, s.mcor_max)]
    rows = correlation_matrix(read_csv_data(csv_path, drop_na=True)).rows
    values["correlation_matrix:compute-drop-na"] = [repr(v) for row in rows for v in row]
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
    return {"{csv}": csv_path, "{matrix}": str(matrix)}


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_stdout_is_unchanged(name, inputs, capsys):
    expected = (GOLDEN / name).read_text(encoding="utf-8")
    assert cli_stdout(name, inputs, capsys) == expected


def test_library_floats_are_unchanged(csv_path):
    expected = json.loads((GOLDEN / "library.json").read_text(encoding="utf-8"))
    assert library_values(csv_path) == expected
