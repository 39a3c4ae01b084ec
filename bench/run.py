"""Benchmark of the mcor CLI on three seeded workloads.

    python3 bench/run.py --workload tall-csv --seed 1 --seconds 30 --trace 0

``--trace 0`` runs ``python -m mcor.cli`` as a child process in a closed
loop (one invocation at a time), alternating with an ``import mcor.cli``
start-up and a fresh-interpreter call of the same library entry point
(entry.py), all spawned through launcher.py, and reports the end-to-end
metrics. ``--trace 1`` runs the
same work in process with timing wrappers on the names each layer's
caller looks up, and reports per-layer self times and counts; end-to-end
metrics never come from that run. ``--workload all`` runs every workload
in both modes and prints every metric by name. NOTES.md says why.

Every operation is checked against a reference the benchmark computes
itself (see workloads.py). The last stdout line is one JSON object with
the keys correct, attempted, failed and metrics. The package measured is
the one under this checkout's ``src/``; anything else is an error.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import io
import json
import os
import subprocess
import sys
import tempfile
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path
from statistics import median

from checks import Expected, check_cli, check_result
from spans import Tracer, patched
from workloads import (
    SIM_N,
    SIM_REPS,
    TALL_VARS,
    WIDE_VARS,
    InputStats,
    reference_loop,
    sim_reference,
    write_tall_csv,
    write_wide_matrix,
)

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
SPEC = ROOT / "BENCHMARK.json"
WORKLOADS = ("tall-csv", "wide-matrix", "sim-noisy")
MIN_ROUNDS = 3
SETUP_PER_ROUND = 3

# (metric, span name, field): field 0 is self time, 1 calls, 2 summed amount.
LAYER_METRICS = (
    ("io.read_s", "io.read", 0),
    ("io.read_calls", "io.read", 1),
    ("io.bytes", "io.read", 2),
    ("corestats.build_s", "corestats.build", 0),
    ("corestats.build_calls", "corestats.build", 1),
    ("corestats.corr_s", "corestats.corr", 0),
    ("corestats.corr_calls", "corestats.corr", 1),
    ("linalg.eig_s", "linalg.eig", 0),
    ("linalg.eig_calls", "linalg.eig", 1),
    ("linalg.sweeps", "linalg.eig", 2),
    ("linalg.build_s", "linalg.build", 0),
    ("multiway.self_s", "multiway", 0),
    ("simulate.generate_s", "simulate.generate", 0),
    ("simulate.generate_calls", "simulate.generate", 1),
    ("simulate.self_s", "simulate", 0),
    ("cli.self_s", "cli", 0),
)


class BenchError(Exception):
    """The benchmark cannot produce a result."""


@dataclass(frozen=True)
class Prepared:
    """One workload's inputs: CLI arguments after ``mcor``, the argument
    of its library entry point (entry.py) and what a correct run reports."""

    workload: str
    argv: list[str]
    entry_arg: str
    expected: Expected
    stats: InputStats | None


@dataclass
class Outcome:
    """Checked operations of one run and the metrics it measured."""

    attempted: int = 0
    failed: int = 0
    metrics: dict[str, float] = field(default_factory=dict)

    def record(self, reason: str | None) -> None:
        self.attempted += 1
        if reason is not None:
            self.failed += 1
            print(f"bench: failed operation: {reason}", file=sys.stderr)


def load_package():
    """Import mcor from this checkout's src/ and nowhere else."""
    if not (SRC / "mcor" / "__init__.py").is_file():
        raise BenchError(f"no mcor package under {SRC}")
    sys.path.insert(0, str(SRC))
    mcor = importlib.import_module("mcor")
    require_under_src(mcor.__file__)
    importlib.import_module("mcor.io")
    importlib.import_module("mcor.cli")
    return mcor


def require_under_src(path: str) -> None:
    if not Path(path).resolve().is_relative_to(SRC.resolve()):
        raise BenchError(f"mcor imported from {path}, not from {SRC}")


def prepare(name: str, seed: int, tmp: Path) -> Prepared:
    if name == "tall-csv":
        path = tmp / "data.csv"
        stats, reference = write_tall_csv(path, seed)
        argv = ["compute", str(path), "--drop-na", "--output", "json"]
        return Prepared(name, argv, str(path), Expected("mcor", reference, TALL_VARS), stats)
    if name == "wide-matrix":
        path = tmp / "R.csv"
        stats, reference = write_wide_matrix(path, seed)
        argv = ["matrix", str(path), "--output", "json"]
        return Prepared(name, argv, str(path), Expected("mcor", reference, WIDE_VARS), stats)
    argv = ["simulate", "noisy-combo", "--n", str(SIM_N), "--reps", str(SIM_REPS),
            "--seed", str(seed), "--output", "json"]
    expected = Expected("mcor_mean", sim_reference(seed), None)
    return Prepared(name, argv, str(seed), expected, None)


class Launcher:
    """launcher.py, started in a workload's directory with PYTHONPATH set
    to this checkout's src/; every measured child is spawned through it."""

    def __init__(self, cwd: Path):
        self._proc = subprocess.Popen(
            [sys.executable, str(BENCH / "launcher.py")], cwd=cwd,
            env=dict(os.environ, PYTHONPATH=str(SRC)),
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)

    def close(self) -> None:
        self._proc.stdin.close()
        try:
            self._proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            self._proc.kill()
            self._proc.wait()
        self._proc.stdout.close()

    def run(self, args: list[str]) -> tuple[float, int, int, str, str]:
        """``python args``: wall seconds, peak RSS in KiB, exit code,
        stdout and stderr."""
        self._proc.stdin.write(json.dumps(args) + "\n")
        self._proc.stdin.flush()
        line = self._proc.stdout.readline()
        if not line:
            raise BenchError("the launcher exited")
        reply = json.loads(line)
        return (reply["seconds"], reply["maxrss_kib"], reply["returncode"],
                reply["stdout"], reply["stderr"])


def startup_seconds(launcher: Launcher, code: str) -> float:
    elapsed, _, returncode, _, stderr = launcher.run(["-c", code])
    if returncode != 0:
        raise BenchError(f"python -c {code!r} exited {returncode}: {stderr[:200]}")
    return elapsed


def check_child_package(launcher: Launcher) -> None:
    """Untimed warm-up that also compiles the .pyc files: the child must
    import mcor from this checkout."""
    _, _, returncode, stdout, stderr = launcher.run(
        ["-c", "import mcor.cli; print(mcor.cli.__file__)"])
    if returncode != 0:
        raise BenchError(f"child cannot import mcor.cli: {stderr[:200]}")
    require_under_src(stdout.strip())


def lib_in_child(prep: Prepared, launcher: Launcher, outcome: Outcome) -> float | None:
    """Seconds of one library call timed inside a fresh interpreter, or
    None when the child reported no time."""
    _, _, returncode, stdout, stderr = launcher.run(
        [str(BENCH / "entry.py"), prep.workload, prep.entry_arg])
    outcome.record(check_cli(returncode, stdout, stderr, prep.expected))
    try:
        return float(json.loads(stdout)["seconds"])
    except (ValueError, KeyError, TypeError):
        return None


def lib_in_process(prep: Prepared, outcome: Outcome) -> float | None:
    """Seconds of one library call in this process, or None when it raised."""
    from entry import call  # imports mcor, so only after load_package

    gc.collect()
    start = time.perf_counter()
    try:
        result = call(prep.workload, prep.entry_arg)
    except Exception as exc:  # counted as a failed operation; the run goes on
        outcome.record(f"library raised {exc!r}")
        return None
    elapsed = time.perf_counter() - start
    outcome.record(check_result(result, prep.expected))
    return elapsed


def traced_cli(prep: Prepared, targets, outcome: Outcome) -> Tracer | None:
    """One in-process ``mcor.cli.main`` call with every target wrapped;
    its tracer, or None when it raised."""
    main = importlib.import_module("mcor.cli").main
    tracer = Tracer()
    stdout, stderr = io.StringIO(), io.StringIO()
    gc.collect()
    try:
        with patched(tracer, targets), contextlib.redirect_stdout(stdout), \
                contextlib.redirect_stderr(stderr):
            returncode = tracer.wrap("cli", main)(prep.argv)
    except Exception as exc:  # counted as a failed operation; the run goes on
        outcome.record(f"cli raised {exc!r}")
        return None
    outcome.record(check_cli(returncode, stdout.getvalue(), stderr.getvalue(), prep.expected))
    return tracer


def reference_seconds() -> float:
    """Seconds of one reference_loop in this process."""
    start = time.perf_counter()
    reference_loop()
    return time.perf_counter() - start


def end_to_end(prep: Prepared, launcher: Launcher, seconds: float) -> Outcome:
    """CLI and library times as multiples of the reference loop timed on
    either side of each, as the median over the run: the shared host's
    speed drifts by tens of percent over seconds to minutes, and the
    reference loop slows with it. Start-up is the fastest sample (the
    host only ever adds time) and peak RSS the median."""
    setup, wall, lib, rss, wall_rel, lib_rel = [], [], [], [], [], []
    outcome = Outcome()
    before = reference_seconds()
    deadline = time.perf_counter() + seconds
    while len(wall) < MIN_ROUNDS or time.perf_counter() < deadline:
        setup += [startup_seconds(launcher, "import mcor.cli") for _ in range(SETUP_PER_ROUND)]
        elapsed, maxrss_kib, returncode, stdout, stderr = launcher.run(
            ["-m", "mcor.cli", *prep.argv])
        outcome.record(check_cli(returncode, stdout, stderr, prep.expected))
        between = reference_seconds()
        wall.append(elapsed)
        wall_rel.append(2 * elapsed / (before + between))
        rss.append(maxrss_kib / 1024)
        elapsed = lib_in_child(prep, launcher, outcome)
        before = reference_seconds()
        if elapsed is not None:
            lib.append(elapsed)
            lib_rel.append(2 * elapsed / (between + before))
    if not lib:
        raise BenchError("no library call reported its time")
    print(f"{prep.workload}: {len(wall)} CLI runs, median wall {median(wall):.4f} s, "
          f"library {median(lib):.4f} s")
    outcome.metrics = {
        "setup_s": min(setup),
        "wall_rel": median(wall_rel),
        "lib_rel": median(lib_rel),
        "peak_rss_mb": median(rss),
    }
    return outcome


def trace_targets():
    """(module, attribute, span, amount) for every call that crosses a
    layer boundary on the three workloads, wrapped where the caller
    looks the name up."""
    cli, corestats, mcor_io, multiway, simulate = (
        importlib.import_module(f"mcor.{name}")
        for name in ("cli", "corestats", "io", "multiway", "simulate"))

    def file_bytes(args, _result):
        return os.path.getsize(args[0])

    def sweeps(_args, spectrum):
        return spectrum.sweeps_used

    return (
        (cli, "read_csv_data", "io.read", file_bytes),
        (cli, "read_matrix", "io.read", file_bytes),
        (mcor_io, "make_data_matrix", "corestats.build", None),
        (simulate, "make_data_matrix", "corestats.build", None),
        (multiway, "correlation_matrix", "corestats.corr", None),
        (corestats, "make_symmetric", "linalg.build", None),
        (mcor_io, "make_symmetric", "linalg.build", None),
        (multiway, "eigenvalues_symmetric", "linalg.eig", sweeps),
        (cli, "mcor", "multiway", None),
        (cli, "mcor_from_matrix", "multiway", None),
        (simulate, "mcor", "multiway", None),
        (simulate, "generate", "simulate.generate", None),
        (cli, "monte_carlo", "simulate", None),
    )


def layer_values(tracer: Tracer) -> dict[str, float]:
    """Per-layer metrics of one traced operation; a layer with no span
    reports 0. Also returns the traced library time under ``lib``."""
    totals = tracer.totals()
    values = {metric: totals.get(span, (0.0, 0, 0))[field]
              for metric, span, field in LAYER_METRICS}
    root = tracer.spans[0]
    values["lib"] = root.end - root.start - totals["cli"][0]
    return values


def per_layer(prep: Prepared, launcher: Launcher, seconds: float, spans_path: Path) -> Outcome:
    targets = trace_targets()
    outcome = Outcome()
    interp, imports, lib, tracers = [], [], [], []
    deadline = time.perf_counter() + seconds
    while len(interp) < MIN_ROUNDS or time.perf_counter() < deadline:
        interp.append(startup_seconds(launcher, "pass"))
        imports.append(startup_seconds(launcher, "import mcor.cli"))
        elapsed = lib_in_process(prep, outcome)
        if elapsed is not None:
            lib.append(elapsed)
        tracer = traced_cli(prep, targets, outcome)
        if tracer is not None:
            tracers.append(tracer)
    if not lib or not tracers:
        raise BenchError("every in-process call raised")
    ops = [layer_values(tracer) for tracer in tracers]
    with open(spans_path, "w", encoding="utf-8") as handle:
        json.dump([[asdict(span) for span in t.spans] for t in tracers], handle)
    metrics = {metric: median(op[metric] for op in ops) for metric, _, _ in LAYER_METRICS}
    metrics["setup.interp_s"] = min(interp)
    metrics["setup.import_s"] = min(imports) - min(interp)
    # Both sides are minima: the host only ever adds time (see end_to_end).
    metrics["trace.overhead_s"] = min(op["lib"] for op in ops) - min(lib)
    outcome.metrics = metrics
    return outcome


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> Outcome:
    WORK.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=WORK, prefix=f"{name}-") as tmp:
        cwd = Path(tmp)
        prep = prepare(name, seed, cwd)
        if prep.stats is not None:
            print(f"{name} input: " + " ".join(f"{k}={v}" for k, v in asdict(prep.stats).items()))
        launcher = Launcher(cwd)
        try:
            check_child_package(launcher)
            if trace:
                return per_layer(prep, launcher, seconds, WORK / f"spans-{name}-{seed}.json")
            return end_to_end(prep, launcher, seconds)
        finally:
            launcher.close()


def declared_units(trace: bool) -> dict[str, str]:
    spec = json.loads(SPEC.read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def labelled(outcome: Outcome, units: dict[str, str]) -> dict[str, dict]:
    if set(outcome.metrics) != set(units):
        raise BenchError(f"metrics {sorted(outcome.metrics)} do not match {SPEC.name}")
    return {name: {"value": outcome.metrics[name], "unit": unit} for name, unit in units.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not 0 <= args.seed < 1 << 64:
        parser.error("--seed must fit in 64 unsigned bits")
    if args.workload == "all":
        jobs = [(name, trace) for name in WORKLOADS for trace in (False, True)]
    else:
        jobs = [(args.workload, bool(args.trace))]
    try:
        load_package()
        attempted = failed = 0
        table: dict[str, dict] = {}
        for name, trace in jobs:
            outcome = run_workload(name, args.seed, args.seconds, trace)
            attempted += outcome.attempted
            failed += outcome.failed
            metrics = labelled(outcome, declared_units(trace))
            table.setdefault(name, {}).update(metrics)
            for metric, m in metrics.items():
                print(f"{name:12} {metric:24} {m['value']:<14.6g} {m['unit']}")
        print(json.dumps({
            "correct": failed == 0,
            "attempted": attempted,
            "failed": failed,
            "metrics": table if args.workload == "all" else table[args.workload],
        }))
        return 0
    except BenchError as exc:
        print(f"bench: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
