"""Command-line front end.

Subcommands: compute (CSV data), matrix (precomputed correlation matrix),
compare (two inputs, auto-detected), simulate (bundled scenarios),
validate (matrix diagnostics only). Exit codes: 0 success, 1 domain
error or out of memory, 2 usage error; every failure prints exactly one
``error: <CODE>: <detail>`` line on stderr. Each handler imports the
reader it runs, so a command loads no file reader it does not call.

``main`` leaves the process as it found it, so it can be called in any
process. ``script_main``, the entry of ``mcor`` and ``python -m mcor.cli``,
owns its process: after ``main`` it freezes the heap, so the interpreter's
exit sweeps no import-time object.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import sys

from .errors import FileError, McorError, NonFiniteEntry, UsageError
from .linalg import eigenvalues_symmetric
from .multiway import PSD_EIG_FLOOR, McorReport, mcor, mcor_from_matrix
from .scenarios import Scenario

TIE_THRESHOLD = 1e-9
U64_MAX = (1 << 64) - 1


def _stdout_error(exc: OSError) -> FileError:
    return FileError(f"cannot write standard output: {exc}")


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)

    def _print_message(self, message, file=None):
        # Only --help writes here, to stdout, since error() raises; unlike
        # argparse's own version, this one does not drop a failed write.
        # As there, a closed stdout (None) sends the text to stderr.
        file = file or sys.stderr
        if not message or file is None:
            return
        try:
            file.write(message)
            file.flush()
        except OSError as exc:
            raise _stdout_error(exc) from None


def _u64(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise UsageError(f"seed must be an integer, got {text!r}") from None
    if not 0 <= value <= U64_MAX:
        raise UsageError(f"seed must fit in 64 unsigned bits, got {text}")
    return value


def _positive(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise UsageError(f"expected a positive integer, got {text!r}") from None
    if value < 1:
        raise UsageError(f"expected a positive integer, got {text}")
    return value


def _column_names(text: str) -> tuple[str, ...]:
    names = tuple(name.strip() for name in text.split(",") if name.strip())
    if not names:
        raise UsageError("--columns needs at least one name")
    return names


def _build_parser() -> _Parser:
    output = argparse.ArgumentParser(add_help=False)
    output.add_argument("--output", choices=("text", "json"), default="text",
                        help="report format (default: text)")
    data = argparse.ArgumentParser(add_help=False)
    data.add_argument("--columns", type=_column_names, metavar="A,B,...",
                      help="comma-separated column names (default: all numeric)")
    data.add_argument("--drop-na", action="store_true",
                      help="listwise-delete rows with missing cells")

    parser = _Parser(prog="mcor", description="Multi-way correlation toolkit")
    parser.set_defaults(run=None)
    sub = parser.add_subparsers(dest="command", metavar="command")

    compute = sub.add_parser("compute", parents=[data, output],
                             help="coefficient of a data CSV")
    compute.add_argument("path")
    compute.set_defaults(run=_run_single, kind="data")

    matrix = sub.add_parser("matrix", parents=[output],
                            help="coefficient of a correlation-matrix CSV")
    matrix.add_argument("path")
    matrix.set_defaults(run=_run_single, kind="matrix")

    compare = sub.add_parser("compare", parents=[data, output],
                             help="which of two inputs is more correlated")
    compare.add_argument("path_a")
    compare.add_argument("path_b")
    compare.add_argument("--as", dest="as_kind", choices=("matrix", "data"),
                         help="force both inputs to one kind (default: auto-detect)")
    compare.set_defaults(run=_run_compare)

    simulate = sub.add_parser("simulate", parents=[output],
                              help="Monte Carlo run of a bundled scenario")
    simulate.add_argument("scenario", choices=[s.value for s in Scenario])
    simulate.add_argument("--n", type=_positive, default=1000, metavar="N",
                          help="observations per replicate (default: %(default)s)")
    simulate.add_argument("--reps", type=_positive, default=100, metavar="R",
                          help="replicates (default: %(default)s)")
    simulate.add_argument("--seed", type=_u64, default=0, metavar="S",
                          help="master seed (default: %(default)s)")
    simulate.set_defaults(run=_run_simulate)

    validate = sub.add_parser("validate", parents=[output],
                              help="correlation-matrix diagnostics")
    validate.add_argument("path")
    validate.set_defaults(run=_run_validate)
    return parser


def parse_args(argv) -> argparse.Namespace:
    """Parsed options; ``run`` is the command's handler, which takes them and
    returns the record ``_emit`` prints."""
    args = _build_parser().parse_args(argv)
    if args.run is None:
        raise UsageError("a command is required (compute, matrix, compare, simulate, validate)")
    return args


def _round12(value):
    """12-significant-digit floats, recursively; shortest repr on output."""
    if isinstance(value, float):
        return float(f"{value:.12g}")
    if isinstance(value, (list, tuple)):
        return [_round12(v) for v in value]
    if isinstance(value, dict):
        return {k: _round12(v) for k, v in value.items()}
    return value


def _report_dict(report: McorReport) -> dict:
    """Every field of the report but ``warnings``, which JSON lists apart."""
    result = report._asdict()
    del result["warnings"]
    return result


def _emit(output: str, kind: str, inputs, result: dict, warnings, lines) -> None:
    """Print and flush one command's record ``(kind, inputs, result, warnings,
    lines)``, the only writer of stdout. ``json`` prints ``kind``, ``inputs``, the
    rounded ``result`` and ``warnings``; ``text`` prints ``lines`` followed by
    one ``  warning: <w>`` line per warning."""
    if output == "json":
        payload = {
            "kind": kind,
            "inputs": list(inputs),
            "result": _round12(result),
            "warnings": list(warnings),
        }
        try:
            text = json.dumps(payload, indent=2, allow_nan=False)
        except ValueError:
            raise NonFiniteEntry(f"{kind} result is not finite, which JSON cannot hold") from None
    else:
        text = "\n".join(lines + [f"  warning: {w}" for w in warnings])
    try:
        print(text, flush=True)
    except OSError as exc:
        raise _stdout_error(exc) from None


def _fmt_eigs(values) -> str:
    return ", ".join(f"{v:.4f}" for v in values)


def _report_lines(report: McorReport, source: str) -> list[str]:
    return [
        "multi-way correlation report",
        f"  input:               {source}",
        f"  d:                   {report.d}",
        f"  mcor:                {report.mcor:.4f}",
        f"  eigenvalues:         {_fmt_eigs(report.eigenvalues)}",
        f"  sphericity:          {report.sphericity:.4f}",
        f"  rescaled sphericity: {report.rescaled_sphericity:.4f}",
        f"  min eigenvalue:      {report.min_eigenvalue:.6g}",
    ]


def read_csv_data(path, columns=None, drop_na=False):
    """``datafile.read_csv_data``, imported on the first call: only ``compute``
    and ``compare`` load it."""
    from .datafile import read_csv_data
    return read_csv_data(path, columns, drop_na)


def read_matrix(path):
    """``io.read_matrix``, imported on the first call: ``simulate`` never loads it."""
    from .io import read_matrix
    return read_matrix(path)


def _run_single(args: argparse.Namespace):
    if args.kind == "matrix":
        report = mcor_from_matrix(read_matrix(args.path))
    else:
        report = mcor(read_csv_data(args.path, columns=args.columns, drop_na=args.drop_na))
    return ("mcor_report", [args.path], _report_dict(report), report.warnings,
            _report_lines(report, args.path))


def _compare_input(path: str, args: argparse.Namespace) -> tuple[str, McorReport]:
    """Kind and report of one compare input; one read as a matrix must be symmetric."""
    from .datafile import read_compare_input
    from .io import CheckedMatrix
    read = read_compare_input(path, args.as_kind, args.columns, args.drop_na)
    if isinstance(read, CheckedMatrix):
        return "matrix", mcor_from_matrix(read.symmetric_matrix())
    return "data", mcor(read)


def _run_compare(args: argparse.Namespace):
    path_a, path_b = args.path_a, args.path_b
    try:
        kind_a, report_a = _compare_input(path_a, args)
    except McorError:
        # A stream error of A, then of B, beats any other error. Each reader
        # reads its whole stream before it raises any other, B's included.
        from .io import drain_rows
        drain_rows(path_a)
        drain_rows(path_b)
        raise
    kind_b, report_b = _compare_input(path_b, args)
    delta = report_a.mcor - report_b.mcor
    if delta > TIE_THRESHOLD:
        verdict = "A"
    elif delta < -TIE_THRESHOLD:
        verdict = "B"
    else:
        verdict = "tie"
    result = {
        "report_a": _report_dict(report_a),
        "report_b": _report_dict(report_b),
        "more_correlated": verdict,
        "delta": delta,
    }
    warnings = [f"A: {w}" for w in report_a.warnings]
    warnings += [f"B: {w}" for w in report_b.warnings]
    return "comparison", [path_a, path_b], result, warnings, [
        "comparison",
        f"  A ({kind_a}): {path_a}",
        f"      mcor: {report_a.mcor:.4f}   eigenvalues: {_fmt_eigs(report_a.eigenvalues)}",
        f"  B ({kind_b}): {path_b}",
        f"      mcor: {report_b.mcor:.4f}   eigenvalues: {_fmt_eigs(report_b.eigenvalues)}",
        f"  delta (A - B):   {delta:.4f}",
        f"  more correlated: {verdict}",
    ]


def monte_carlo(scenario: Scenario, n_obs: int, replicates: int, seed: int):
    """``simulate.monte_carlo``, imported on the first call: other commands never load it."""
    from .simulate import monte_carlo
    return monte_carlo(scenario, n_obs, replicates, seed)


def _run_simulate(args: argparse.Namespace):
    scenario = Scenario.from_cli_name(args.scenario)
    summary = monte_carlo(scenario, args.n, args.reps, args.seed)
    result = summary._asdict() | {"scenario": summary.scenario.value}
    return "monte_carlo", [f"scenario:{summary.scenario.value}"], result, [], [
        "monte carlo summary",
        f"  scenario:   {summary.scenario.value} ({summary.scenario.description})",
        f"  n_obs:      {summary.n_obs}",
        f"  replicates: {summary.replicates}",
        f"  seed:       {summary.seed}",
        f"  mcor mean:  {summary.mcor_mean:.4f}",
        f"  mcor sd:    {summary.mcor_sd:.4f}",
        f"  mcor min:   {summary.mcor_min:.4f}",
        f"  mcor max:   {summary.mcor_max:.4f}",
    ]


def _run_validate(args: argparse.Namespace):
    from .io import read_checked_matrix
    path = args.path
    checked = read_checked_matrix(path)
    min_eig = eigenvalues_symmetric(checked.matrix).values[-1]
    result = {
        "d": checked.matrix.dim,
        "symmetric": checked.symmetric,
        "max_asymmetry": checked.max_asymmetry,
        "unit_diagonal": checked.unit_diagonal,
        "max_diagonal_deviation": checked.max_diagonal_deviation,
        "off_diagonal_in_range": checked.off_diagonal_in_range,
        "max_off_diagonal_excess": checked.max_off_diagonal_excess,
        "psd": min_eig >= PSD_EIG_FLOOR,
        "min_eigenvalue": min_eig,
    }
    verdicts = ("symmetric", "unit_diagonal", "off_diagonal_in_range", "psd")
    warnings = [f"failed check: {name}" for name in verdicts if not result[name]]
    return "validation", [path], result, warnings, [
        "correlation-matrix diagnostics",
        f"  input:                  {path}",
        f"  d:                      {result['d']}",
        f"  symmetric:              {'yes' if result['symmetric'] else 'NO'}"
        f" (max asymmetry {result['max_asymmetry']:.3e})",
        f"  unit diagonal:          {'yes' if result['unit_diagonal'] else 'NO'}"
        f" (max deviation {result['max_diagonal_deviation']:.3e})",
        f"  off-diagonal in [-1,1]: {'yes' if result['off_diagonal_in_range'] else 'NO'}"
        f" (max excess {result['max_off_diagonal_excess']:.3e})",
        f"  PSD within tolerance:   {'yes' if result['psd'] else 'NO'}"
        f" (min eigenvalue {min_eig:.6g})",
    ]


def main(argv=None) -> int:
    try:
        try:
            args = parse_args(argv)  # None reads sys.argv[1:]
        except SystemExit as exc:  # --help lands here
            return int(exc.code or 0)
        _emit(args.output, *args.run(args))
        return 0
    except McorError as exc:
        # Column names and paths may hold any character: escape, as repr
        # does, those that do not print, so the error stays on one line.
        message = f"error: {exc.code}: {exc}"
        line = "".join(c if c.isprintable() else repr(c)[1:-1] for c in message)
        code = 2 if isinstance(exc, UsageError) else 1
    except MemoryError:
        line = "error: OUT_OF_MEMORY: not enough memory for this input file or --n"
        code = 1
    try:
        print(line, file=sys.stderr)
    except OSError:
        pass  # stderr cannot be written either; the exit code still tells
    return code


def script_main(argv=None) -> int:
    """``main`` as the whole process: the entry of ``mcor`` and of
    ``python -m mcor.cli``.

    A standard stream that still cannot be flushed is pointed at
    ``os.devnull``, so the interpreter's exit-time flush neither prints a
    second error nor changes the exit code. Then every object is frozen
    (``gc.freeze``): the exit-time collections skip the permanent
    generation, so the heap that start-up built is neither traversed nor
    freed one object at a time, and the OS reclaims it. ``atexit``
    handlers and the exit flush still run."""
    code = main(argv)
    for stream in (sys.stdout, sys.stderr):
        try:
            if stream is not None:  # None: the fd was closed at start-up
                stream.flush()
        except OSError:
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, stream.fileno())
            os.close(devnull)
    gc.freeze()
    return code


if __name__ == "__main__":
    sys.exit(script_main())
