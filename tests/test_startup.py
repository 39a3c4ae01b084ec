"""Start-up in a fresh interpreter: what ``import mcor.cli`` and each
command load, and the lazily loaded names behaving as if imported up
front."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import mcor.cli as mcor_cli
import mcor.io as mcor_io
from mcor.cli import main
from mcor.io import bundled_fixture

ROOT = Path(__file__).resolve().parents[1]
README = ROOT / "README.md"
AREA1, AREA2 = str(bundled_fixture("tb_area1.csv")), str(bundled_fixture("tb_area2.csv"))
MISSING = str(ROOT / "no-such-file.csv")
READERS = {"mcor.io", "mcor.datafile"}


def run_python(*args: str, check: bool = True) -> subprocess.CompletedProcess:
    """A fresh interpreter importing this checkout's ``mcor``."""
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], capture_output=True, check=check,
                          env={**os.environ, "PYTHONPATH": path})


def test_cli_import_skips_what_only_some_commands_need():
    out = run_python("-c", "import sys; before = set(sys.modules); import mcor.cli; "
                           "print(' '.join(sorted(set(sys.modules) - before)))").stdout
    loaded = set(out.decode().split())
    assert "mcor.cli" in loaded
    assert loaded.isdisjoint({"csv", "dataclasses", "fractions", "inspect", "mcor.parallel",
                               "mcor.rng", "mcor.simulate", *READERS})


# Each command loads the reader modules it calls and no other.
@pytest.mark.parametrize("argv, readers", [
    (["simulate", "noisy-combo", "--n", "50", "--reps", "3"], set()),
    (["matrix", AREA1], {"mcor.io"}),
    (["validate", AREA1], {"mcor.io"}),
    (["compute", AREA1], READERS),
], ids=["simulate", "matrix", "validate", "compute"])
def test_each_command_loads_only_its_readers(argv, readers):
    out = run_python("-c", "import sys; from mcor.cli import main; code = main(sys.argv[1:]); "
                           "print(code, *sorted(sys.modules))", *argv).stdout
    code, *loaded = out.decode().splitlines()[-1].split()
    assert code == "0"
    assert READERS & set(loaded) == readers


def test_cli_import_skips_importlib_resources():
    # Without site (-S), which may import it first, nothing else hides it.
    out = run_python("-S", "-c", "import sys, mcor.cli; "
                                 "print('importlib.resources' in sys.modules)").stdout
    assert out.decode().strip() == "False"


# In-process tests run with every module already imported; only a fresh
# interpreter runs each handler's imports cold, error paths included.
@pytest.mark.parametrize("argv", [
    ["simulate", "noisy-combo", "--n", "50", "--reps", "3", "--seed", "7", "--output", "json"],
    ["simulate", "noisy-combo", "--n", "0"],
    ["compute", AREA1, "--output", "json"],
    ["compute", AREA1, "--columns", "zz"],
    ["matrix", AREA1, "--output", "json"],
    ["matrix", MISSING],
    ["validate", AREA2],
    ["validate", MISSING],
    ["compare", AREA1, AREA2, "--output", "json"],
    ["compare", MISSING, AREA2],
], ids=["simulate", "simulate-error", "compute", "compute-error", "matrix", "matrix-error",
        "validate", "validate-error", "compare", "compare-error"])
def test_subprocess_matches_in_process(capsys, argv):
    child = run_python("-m", "mcor.cli", *argv, check=False)
    assert main(argv) == child.returncode
    captured = capsys.readouterr()
    assert child.stdout == captured.out.encode()
    assert child.stderr == captured.err.encode()
    assert (child.stderr == b"") == (child.returncode == 0)


# bench/entry.py imports the readers from mcor.io, and bench/run.py wraps
# cli.read_csv_data and cli.read_matrix to time the io layer.
def test_readers_import_from_io_in_a_fresh_interpreter():
    out = run_python("-c", "import sys; from mcor.io import read_csv_data, read_matrix; "
                           "print(read_csv_data.__module__, read_matrix.__module__)").stdout
    assert out.decode().split() == ["mcor.datafile", "mcor.io"]


def test_io_forwards_only_public_data_file_names():
    with pytest.raises(AttributeError, match="_SPLIT_BYTES"):
        getattr(mcor_io, "_SPLIT_BYTES")


@pytest.mark.parametrize("argv, name", [
    (["compute", AREA1], "read_csv_data"),
    (["matrix", AREA1], "read_matrix"),
])
def test_cli_reader_names_can_be_wrapped(capsys, monkeypatch, argv, name):
    paths = []
    real = getattr(mcor_cli, name)

    def recording(path, *args, **kwargs):
        paths.append(path)
        return real(path, *args, **kwargs)

    monkeypatch.setattr(mcor_cli, name, recording)
    assert main(argv) == 0
    assert paths == [AREA1] and capsys.readouterr().err == ""


def test_star_import_binds_all():
    out = run_python("-c", "from mcor import *; import mcor; "
                           "print(' '.join(n for n in mcor.__all__ if n not in globals()))").stdout
    assert out.decode().split() == []


README_BLOCKS = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)


def test_readme_has_python_blocks():
    # The library quick start and the simulation snippet.
    assert len(README_BLOCKS) == 2


@pytest.mark.parametrize("block", README_BLOCKS, ids=["quick-start", "simulation"])
def test_readme_python_block_runs(block):
    assert run_python("-c", block).stdout.strip()
