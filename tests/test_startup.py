"""Start-up in a fresh interpreter: what ``import mcor.cli`` loads, and the
lazily loaded simulation exports behaving as if imported up front."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from mcor.cli import main

ROOT = Path(__file__).resolve().parents[1]
README = ROOT / "README.md"


def run_python(*args: str) -> subprocess.CompletedProcess:
    """A fresh interpreter importing this checkout's ``mcor``."""
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], capture_output=True, check=True,
                          env={**os.environ, "PYTHONPATH": path})


def test_cli_import_skips_what_only_some_commands_need():
    out = run_python("-c", "import sys; before = set(sys.modules); import mcor.cli; "
                           "print(' '.join(sorted(set(sys.modules) - before)))").stdout
    loaded = set(out.decode().split())
    assert "mcor.cli" in loaded
    assert loaded.isdisjoint({"dataclasses", "fractions", "inspect", "mcor.parallel",
                               "mcor.rng", "mcor.simulate"})


def test_cli_import_skips_importlib_resources():
    # Without site (-S), which may import it first, nothing else hides it.
    out = run_python("-S", "-c", "import sys, mcor.cli; "
                                 "print('importlib.resources' in sys.modules)").stdout
    assert out.decode().strip() == "False"


def test_simulate_subprocess_matches_in_process(capsys):
    argv = ["simulate", "noisy-combo", "--n", "50", "--reps", "3", "--seed", "7",
            "--output", "json"]
    child = run_python("-m", "mcor.cli", *argv)
    assert main(argv) == 0
    captured = capsys.readouterr()
    assert child.stdout == captured.out.encode()
    assert child.stderr == captured.err.encode() == b""


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
