"""CSV ingestion: the row stream and cell parser every reader shares, and
the readers of precomputed correlation matrices.

Matrix files are square numeric grids with an optional header row
(detected when any first-row cell fails to parse as a number), streamed:
only the values of as many rows as a square grid has are kept. Each
reader, here and in ``datafile``, reads a path's row stream to its end
before it raises an error other than the stream's own, and checks the
widths of the rows before it reports a bad cell; errors number the
file's non-blank rows from 1, the header being row 1.

The data-file readers live in ``datafile``, which only ``compute`` and
``compare`` load; ``read_csv_data`` and ``read_compare_input`` can still
be imported from here.
"""

from __future__ import annotations

import csv
import math
from collections.abc import Iterable, Iterator, Sequence
from io import TextIOWrapper
from itertools import chain, islice
from operator import itemgetter
from pathlib import Path
from typing import NamedTuple

from .errors import FileError, NotSquare, NotSymmetric, ParseError
from .linalg import SymmetricMatrix, make_symmetric
from .multiway import MATRIX_ENTRY_TOL, _entry_excesses


def __getattr__(name):
    """``read_csv_data`` and ``read_compare_input``, the public data-file
    readers, taken from ``datafile`` on first access, as PEP 562 allows, so
    that importing this module does not load them. No other name is
    forwarded."""
    if name not in ("read_csv_data", "read_compare_input"):
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from . import datafile
    return getattr(datafile, name)


def bundled_fixture(name: str) -> Path:
    """Path of a correlation-matrix CSV shipped with the package."""
    return Path(__file__).parent / "fixtures" / name


# The characters a finite float's text can start with besides decimal
# digits (``str.isdecimal``) and whitespace (``str.isspace``).
_NUMBER_SIGNS = frozenset("+-.")


def _rows(path, start: int = 0, lines: int | None = None) -> Iterator[list[str]]:
    """Rows of a CSV file as ``csv.reader`` gives them, cells as written
    (not stripped), blank lines dropped, read as they are asked for: the
    rows of the whole file, or of the byte range that begins at ``start``
    and holds ``lines`` lines.

    A line with no cells or with one cell that is only whitespace is
    blank; a line of delimiters like ",," is still a row. An unreadable
    file, a byte that is not UTF-8 or a ``csv`` error raises when the
    stream reaches it. The file is closed when the stream ends, raises or
    is closed.
    """
    try:
        with open(path, "rb") as raw:
            raw.seek(start)
            # utf-8-sig drops the byte-order mark spreadsheet exports put
            # before the first header name; a range that starts later keeps
            # one, as a read of the whole file does.
            handle = TextIOWrapper(raw, encoding="utf-8" if start else "utf-8-sig", newline="")
            reader = csv.reader(handle if lines is None else islice(handle, lines))
            for row in reader:
                if len(row) > 1 or row and row[0].strip():
                    yield row
    except OSError as exc:
        raise FileError(f"cannot read {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise FileError(f"{path} is not valid UTF-8: {exc}") from exc
    except csv.Error as exc:  # a cell past csv.field_size_limit(), for one
        raise ParseError(f"{path}, line {reader.line_num}: {exc}") from None


def drain_rows(path) -> None:
    """Read every row of ``path``, keeping none, so its stream errors raise."""
    for _ in _rows(path):
        pass


def _parse_column(cells: Sequence[str]) -> tuple[list[float], list[int]]:
    """Floats of a column's cells as ``str.strip`` would leave them, and the
    ascending indices of the cells that are not finite numbers: float()
    fails on them or returns nan or +-inf (0.0 stands in for those).

    float() runs over the cells at C speed and resumes after each bad
    token, so only bad tokens cost a Python-level step: list.extend keeps
    the items it appended before the exception, and the shared iterator
    has already consumed the rejected cell. float() ignores every
    character str.strip drops except \\x1c-\\x1f, so only a rejected cell
    can parse differently stripped; it is tried once more, stripped.

    A column whose first cell fails is first screened by the cells' first
    characters, collected in one C-speed pass: a finite float's text
    starts with "+", "-", ".", a decimal digit of any script
    (``str.isdecimal``; float("\u0663") is 3.0) or whitespace
    (``str.isspace``). A column with none of those starts is all bad and
    costs no further float() call; any other column is parsed in full.
    The screen waits for a failed first cell so that a numeric column
    pays nothing for it.
    """
    rest = iter(cells)
    values: list[float] = []
    bad: list[int] = []
    while True:
        try:
            values.extend(map(float, rest))
            break
        except ValueError:
            if not values and not _may_hold_a_number(cells):
                n = len(cells)
                return [0.0] * n, list(range(n))
            i = len(values)
            try:
                values.append(float(cells[i].strip()))
            except ValueError:
                bad.append(i)
                values.append(0.0)
    # Any inf or NaN makes the plain sum non-finite; a finite column whose
    # sum overflows only takes the per-value pass too.
    if not math.isfinite(sum(values)):
        bad = sorted(set(bad).union(
            i for i, v in enumerate(values) if not math.isfinite(v)))
        for i in bad:
            values[i] = 0.0
    return values, bad


def _may_hold_a_number(cells: Sequence[str]) -> bool:
    """Whether any cell starts with a character a finite float's text can
    start with; "" starts none."""
    return any(c in _NUMBER_SIGNS or c.isdecimal() or c.isspace()
               for c in set(map(itemgetter(slice(0, 1)), cells)))


class CheckedMatrix(NamedTuple):
    """A square matrix CSV with its two triangles averaged and how far the
    file itself was from symmetric. ``max_diagonal_deviation`` and
    ``max_off_diagonal_excess`` read ``multiway``'s measure of the entries,
    0 when none is past its bound; the verdicts ``symmetric``,
    ``unit_diagonal`` and ``off_diagonal_in_range`` each hold within 1e-9."""

    matrix: SymmetricMatrix  # mirrored entries averaged
    max_asymmetry: float
    # (i, j, entry (i, j), entry (j, i)) of the first pair, i < j in
    # row-major order, whose gap is max_asymmetry; indices are 0-based.
    worst_pair: tuple[int, int, float, float]

    @property
    def max_diagonal_deviation(self) -> float:
        return max((e for i, j, e in _entry_excesses(self.matrix) if i == j), default=0.0)

    @property
    def max_off_diagonal_excess(self) -> float:
        return max((e for i, j, e in _entry_excesses(self.matrix) if i != j), default=0.0)

    @property
    def symmetric(self) -> bool:
        return self.max_asymmetry <= MATRIX_ENTRY_TOL

    @property
    def unit_diagonal(self) -> bool:
        return self.max_diagonal_deviation <= MATRIX_ENTRY_TOL

    @property
    def off_diagonal_in_range(self) -> bool:
        return self.max_off_diagonal_excess <= MATRIX_ENTRY_TOL

    def symmetric_matrix(self) -> SymmetricMatrix:
        """The averaged matrix, once the file is ``symmetric``; NotSymmetric
        names the worst pair otherwise."""
        if not self.symmetric:
            i, j, upper, lower = self.worst_pair
            raise NotSymmetric(
                f"entries ({i + 1},{j + 1}) = {upper!r} and "
                f"({j + 1},{i + 1}) = {lower!r} differ by {self.max_asymmetry:.3e}"
            )
        return self.matrix


def read_checked_matrix(path) -> CheckedMatrix:
    """Load a square matrix CSV without judging it: the averaged entries
    and the asymmetry the file had, with its worst pair."""
    return _checked_matrix(path, _rows(path))


def _checked_matrix(path, rows: Iterable[list[str]]) -> CheckedMatrix:
    """``read_checked_matrix`` of ``rows``, the rows of ``path``, read to
    their end; the first data row, after an optional header, sets the width.

    Rows are taken one at a time, and the values of at most ``width`` rows
    are kept, since a longer file cannot be square: past them a row's width
    is checked and its cells parsed, for the first error, and it is counted.
    Errors keep the order of a whole-file read: the first row of the wrong
    width, then the first bad cell, then a file that is not square.
    """
    rows = iter(rows)
    row = next(rows, None)
    if row is None:
        raise ParseError(f"{path} is empty")
    first = 1
    if _parse_column(row)[1]:
        first = 2
        row = next(rows, None)
        if row is None:
            raise ParseError(f"{path} has a header but no rows")
    width = len(row)
    width_error = cell_error = None
    grid = []
    d = 0
    for number, row in enumerate(chain([row], rows), first):
        d += 1
        if len(row) != width:
            if width_error is None:
                width_error = ParseError(
                    f"row {number}: expected {width} cells, found {len(row)}")
        elif width_error is None and cell_error is None:
            values, bad = _parse_column(row)
            if bad:
                cell_error = ParseError(f"row {number}, column {bad[0] + 1}: "
                                        f"cannot parse {row[bad[0]].strip()!r}")
            elif d <= width:
                grid.append(values)
    if width_error is not None:
        raise width_error
    if cell_error is not None:
        raise cell_error
    if d != width:
        raise NotSquare(f"{d} rows x {width} columns")
    # Pairs i < j in row-major order. Halved gaps are ranked: two full gaps
    # past the float maximum would both be inf and the first would win.
    worst = 0.0
    worst_at = (0, 0)
    lower = [[] for _ in range(d)]
    for i in range(d):
        for j in range(i + 1, d):
            half_gap = abs(0.5 * grid[i][j] - 0.5 * grid[j][i])
            if half_gap > worst:
                worst = half_gap
                worst_at = (i, j)
            # Halved first: a + b may overflow. Same bits as 0.5 * (a + b)
            # whenever that is finite and neither half is subnormal.
            lower[j].append(0.5 * grid[j][i] + 0.5 * grid[i][j])
        lower[i].append(grid[i][i])
    i, j = worst_at
    return CheckedMatrix(
        matrix=make_symmetric(d, list(chain.from_iterable(lower))),
        max_asymmetry=abs(grid[i][j] - grid[j][i]),
        worst_pair=(i, j, grid[i][j], grid[j][i]),
    )


def read_matrix(path) -> SymmetricMatrix:
    """Load a correlation-matrix CSV: ``read_checked_matrix`` followed by
    ``CheckedMatrix.symmetric_matrix``."""
    return read_checked_matrix(path).symmetric_matrix()

