"""The script entry ``cli.script_main``, which owns the process that
``mcor`` and ``python -m mcor.cli`` run in, and the failed writes to a
standard stream that ``main`` reports; ``main`` itself leaves its caller's
process as it found it."""

import ast
import errno
import gc
import os
import subprocess
import sys
import tomllib
from pathlib import Path

import pytest

from mcor.cli import main
from mcor.io import bundled_fixture

ROOT = Path(__file__).resolve().parents[1]
AREA1 = str(bundled_fixture("tb_area1.csv"))
MISSING = str(ROOT / "no-such-file.csv")
SIMULATE = ["simulate", "noisy-combo", "--n", "50", "--reps", "3"]
DEV_FULL = "/dev/full"
needs_dev_full = pytest.mark.skipif(not os.path.exists(DEV_FULL), reason="no /dev/full")


def stdout_error(code: int) -> bytes:
    """The one stderr line of a run whose stdout write failed with ``code``."""
    exc = OSError(code, os.strerror(code))
    return f"error: FILE_ERROR: cannot write standard output: {exc}\n".encode()


def run_cli(argv, buffered: bool, **streams) -> subprocess.CompletedProcess:
    """``python -m mcor.cli`` on this checkout, its standard streams
    buffered as by default or unbuffered as under ``PYTHONUNBUFFERED``."""
    env = {key: value for key, value in os.environ.items() if key != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                      os.environ.get("PYTHONPATH")]))
    if not buffered:
        env["PYTHONUNBUFFERED"] = "1"
    return subprocess.run([sys.executable, "-m", "mcor.cli", *argv], env=env,
                          stdin=subprocess.DEVNULL, **streams)


@pytest.mark.parametrize("argv, code", [
    (["compute", AREA1], 0),
    (["matrix", MISSING], 1),
    (["--help"], 0),
], ids=["success", "domain-error", "help"])
def test_main_leaves_the_collector_as_it_found_it(capsys, argv, code):
    before = gc.get_freeze_count(), gc.isenabled()
    assert main(argv) == code
    assert (gc.get_freeze_count(), gc.isenabled()) == before


@pytest.mark.parametrize("argv, code", [
    (SIMULATE, 0), (["matrix", MISSING], 1), (["frobnicate"], 2),
], ids=["success", "domain-error", "usage-error"])
def test_script_main_returns_main_code_and_freezes(argv, code):
    out = subprocess.run(
        [sys.executable, "-c", "import gc, sys; from mcor.cli import script_main; "
                               "frozen = gc.get_freeze_count(); code = script_main(sys.argv[1:]); "
                               "print(code, frozen, gc.get_freeze_count() > 0)", *argv],
        capture_output=True, check=True, env={**os.environ, "PYTHONPATH": str(ROOT / "src")})
    assert out.stdout.decode().splitlines()[-1].split() == [str(code), "0", "True"]


def main_block_call(source: str) -> str:
    """Name of the function whose result the ``__main__`` block passes to
    ``sys.exit``."""
    for node in ast.parse(source).body:
        if isinstance(node, ast.If) and ast.unparse(node.test) == "__name__ == '__main__'":
            (statement,) = node.body
            call = statement.value
            assert ast.unparse(call.func) == "sys.exit"
            return call.args[0].func.id
    raise AssertionError("no __main__ block")


def test_console_script_is_the_main_block_entry():
    project = tomllib.loads((ROOT / "pyproject.toml").read_text(encoding="utf-8"))
    module, function = project["project"]["scripts"]["mcor"].split(":")
    cli = ROOT / "src" / "mcor" / "cli.py"
    assert (module, function) == ("mcor.cli", main_block_call(cli.read_text(encoding="utf-8")))
    assert function == "script_main"


class _FailingStream:
    """A text stream whose every write fails, as a closed pipe's does."""

    def write(self, text):
        raise BrokenPipeError(errno.EPIPE, os.strerror(errno.EPIPE))

    def flush(self):
        pass


@pytest.mark.parametrize("argv", [SIMULATE, ["--help"]], ids=["record", "help"])
def test_a_failed_stdout_write_is_one_error_line_in_process(capsys, monkeypatch, argv):
    monkeypatch.setattr(sys, "stdout", _FailingStream())
    assert main(argv) == 1
    assert capsys.readouterr().err.encode() == stdout_error(errno.EPIPE)


def closed_pipe():
    """The write end of a pipe whose read end is already closed."""
    read_fd, write_fd = os.pipe()
    os.close(read_fd)
    return write_fd, errno.EPIPE


def dev_full():
    return os.open(DEV_FULL, os.O_WRONLY), errno.ENOSPC


# Without the script entry's redirect, a buffered stream that failed once
# fails again at the interpreter's exit: an "Exception ignored" line and
# exit code 120.
@pytest.mark.parametrize("buffered", [True, False], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize("sink", [closed_pipe, pytest.param(dev_full, marks=needs_dev_full)],
                         ids=["closed-pipe", "dev-full"])
@pytest.mark.parametrize("argv", [SIMULATE, ["--help"]], ids=["record", "help"])
def test_a_failed_stdout_write_is_one_error_line(argv, sink, buffered):
    fd, code = sink()
    try:
        child = run_cli(argv, buffered, stdout=fd, stderr=subprocess.PIPE)
    finally:
        os.close(fd)
    assert child.returncode == 1
    assert child.stderr == stdout_error(code)


@needs_dev_full
@pytest.mark.parametrize("buffered", [True, False], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize("argv, code", [
    (["frobnicate"], 2), (["matrix", MISSING], 1),
], ids=["usage-error", "domain-error"])
def test_a_failed_stderr_write_keeps_the_exit_code(argv, code, buffered):
    with open(DEV_FULL, "wb") as full:
        child = run_cli(argv, buffered, stdout=subprocess.PIPE, stderr=full)
    assert (child.returncode, child.stdout) == (code, b"")


# A stdout closed before start-up is None in Python: print drops the record
# and argparse sends --help to stderr, so the run ends as a run with nothing
# to flush, with no error of its own.
@pytest.mark.parametrize("argv", [SIMULATE, ["--help"]], ids=["record", "help"])
def test_a_closed_stdout_is_not_a_failure(capsys, argv):
    main(argv)
    help_text = capsys.readouterr().out.encode() if argv == ["--help"] else b""
    child = run_cli(argv, True, stderr=subprocess.PIPE, preexec_fn=lambda: os.close(1))
    assert (child.returncode, child.stderr) == (0, help_text)
