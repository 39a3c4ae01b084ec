"""Tests of the benchmark itself: inputs, checker and span arithmetic.

    python3 -m pytest -q bench
"""

from __future__ import annotations

import contextlib
import io
import json
import types

import pytest

import run
from checks import Expected, check_cli
from spans import Tracer, patched
from workloads import noisy_combo_columns, sim_reference, write_tall_csv, write_wide_matrix

mcor = run.load_package()


@pytest.mark.parametrize("write, kwargs", [
    (write_tall_csv, {"rows": 2000}),
    (write_wide_matrix, {"obs": 60, "d": 8}),
])
def test_inputs_are_byte_identical_for_a_seed(tmp_path, write, kwargs):
    first = write(tmp_path / "a.csv", 7, **kwargs)
    again = write(tmp_path / "b.csv", 7, **kwargs)
    other = write(tmp_path / "c.csv", 8, **kwargs)
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()
    assert first == again
    assert (tmp_path / "a.csv").read_bytes() != (tmp_path / "c.csv").read_bytes()
    assert first[0].bytes == len((tmp_path / "a.csv").read_bytes())
    assert other[1] != first[1]


def _cli(argv):
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = mcor.cli.main(argv)
    return code, stdout.getvalue(), stderr.getvalue()


@pytest.fixture(scope="module")
def compute_run(tmp_path_factory):
    path = tmp_path_factory.mktemp("data") / "data.csv"
    _, reference = write_tall_csv(path, 3, rows=3000)
    result = _cli(["compute", str(path), "--drop-na", "--output", "json"])
    return result, Expected("mcor", reference, 10)


def test_checker_accepts_correct_output(compute_run):
    (code, stdout, stderr), expected = compute_run
    assert check_cli(code, stdout, stderr, expected) is None


def test_checker_counts_a_perturbed_coefficient(compute_run):
    (code, stdout, stderr), expected = compute_run
    payload = json.loads(stdout)
    payload["result"]["mcor"] += 1e-6
    assert check_cli(code, json.dumps(payload), stderr, expected) is not None


def test_checker_counts_a_spectrum_not_summing_to_d(compute_run):
    (code, stdout, stderr), expected = compute_run
    payload = json.loads(stdout)
    payload["result"]["eigenvalues"][0] += 1e-6
    assert check_cli(code, json.dumps(payload), stderr, expected) is not None


@pytest.mark.parametrize("code, stdout, stderr", [
    (1, None, ""),
    (0, None, "warning: something\n"),
    (0, "not json", ""),
    (0, "{}", ""),
])
def test_checker_counts_bad_runs(compute_run, code, stdout, stderr):
    (_, good_stdout, _), expected = compute_run
    assert check_cli(code, good_stdout if stdout is None else stdout, stderr,
                     expected) is not None


def test_sim_reference_reproduces_the_package_stream():
    data = mcor.generate(mcor.Scenario.NOISY_COMBO, 50, 12345)
    assert noisy_combo_columns(12345, 50) == [data.column(j) for j in range(3)]
    summary = mcor.monte_carlo(mcor.Scenario.NOISY_COMBO, 200, 4, 9)
    assert abs(sim_reference(9, n=200, reps=4) - summary.mcor_mean) <= 1e-14


def test_self_time_is_exact_on_a_nested_call_tree():
    ticks = iter(range(100))
    tracer = Tracer(clock=lambda: next(ticks) * 1.0)
    leaf = tracer.wrap("leaf", lambda: None)
    mid = tracer.wrap("mid", lambda: (leaf(), leaf()))
    root = tracer.wrap("root", lambda: (mid(), leaf()))
    root()
    # Each clock reading advances one tick: spans start and end on whole numbers.
    assert [(s.name, s.start, s.end, s.parent) for s in tracer.spans] == [
        ("root", 0.0, 9.0, None),
        ("mid", 1.0, 6.0, 0),
        ("leaf", 2.0, 3.0, 1),
        ("leaf", 4.0, 5.0, 1),
        ("leaf", 7.0, 8.0, 0),
    ]
    assert tracer.self_times() == [3.0, 3.0, 1.0, 1.0, 1.0]
    assert tracer.totals() == {"root": (3.0, 1, 0), "mid": (3.0, 1, 0), "leaf": (3.0, 3, 0)}


def test_patched_restores_names_and_skips_missing_ones():
    module = types.SimpleNamespace(f=lambda x: x + 1)
    original = module.f
    tracer = Tracer()
    with patched(tracer, [(module, "f", "f", lambda args, result: result),
                          (module, "gone", "gone", None)]):
        assert module.f(2) == 3
    assert module.f is original
    assert not hasattr(module, "gone")
    assert [(s.name, s.amount) for s in tracer.spans] == [("f", 3)]
