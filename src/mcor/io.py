"""CSV ingestion for raw data and precomputed correlation matrices.

Data files are RFC-4180-style with a header row; ``NA`` or an empty cell
means missing. Matrix files are square numeric grids with an optional
header row (detected when any first-row cell fails to parse as a number).
Both readers check every row's width before they parse a cell, and errors
number the file's non-blank rows from 1, the header being row 1.
"""

from __future__ import annotations

import csv
import gc
import math
from collections.abc import Sequence
from itertools import chain, compress
from operator import itemgetter
from pathlib import Path
from typing import NamedTuple

from .corestats import DataMatrix
from .errors import (
    BadArguments,
    EmptySelection,
    FileError,
    NotSquare,
    NotSymmetric,
    ParseError,
    TooFewRows,
)
from .linalg import SymmetricMatrix, make_symmetric
from .multiway import MATRIX_ENTRY_TOL, _entry_excesses


def bundled_fixture(name: str) -> Path:
    """Path of a correlation-matrix CSV shipped with the package."""
    return Path(__file__).parent / "fixtures" / name


# The characters a finite float's text can start with besides decimal
# digits (``str.isdecimal``) and whitespace (``str.isspace``).
_NUMBER_SIGNS = frozenset("+-.")


def read_cells(path) -> list[list[str]]:
    """Rows of a CSV file as ``csv.reader`` gives them, cells as written
    (not stripped), blank lines dropped.

    A line with no cells or with one cell that is only whitespace is
    blank; a line of delimiters like ",," is still a row. ``read_csv_data``
    and ``read_checked_matrix`` read them themselves, or take them as
    ``cells`` from a caller that has already read ``path``; they strip
    only the header and the cells float() rejects.
    """
    try:
        # utf-8-sig drops the byte-order mark spreadsheet exports put
        # before the first header name.
        with open(path, newline="", encoding="utf-8-sig") as handle:
            reader = csv.reader(handle)
            return [row for row in reader if row[1:] or row and row[0].strip()]
    except OSError as exc:
        raise FileError(f"cannot read {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise FileError(f"{path} is not valid UTF-8: {exc}") from exc
    except csv.Error as exc:  # a cell past csv.field_size_limit(), for one
        raise ParseError(f"{path}, line {reader.line_num}: {exc}") from None


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
    if not all(map(math.isfinite, values)):
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


def read_csv_data(
    path,
    columns: Sequence[str] | None = None,
    drop_na: bool = False,
    cells: list[list[str]] | None = None,
) -> DataMatrix:
    """Load a header-plus-rows CSV into a DataMatrix.

    With ``columns`` unset, every column holding at least one numeric cell
    is selected (every column of a file with no rows); a ``columns`` name
    the header holds twice is an error. ``drop_na=True`` removes rows with a
    missing or unparseable cell in any selected column (listwise deletion);
    ``drop_na=False`` makes such a cell a hard error naming its row and
    column, numbered by the module's row rule.

    Cyclic garbage collection is paused for the call and resumed, if it
    was enabled, once the cells are freed: the row lists ``csv.reader``
    makes hold only strings and form no cycles, yet every collection
    would scan them all. The switch is process-wide, so other threads run
    without cyclic collection meanwhile; reference counting still frees
    their objects.
    """
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        names, cols, bad_rows = _parse_selected_columns(path, columns, drop_na, cells)
        keep = [True] * len(cols[0])
        for i in bad_rows:
            keep[i] = False
        frozen = tuple(tuple(compress(col, keep)) for col in cols)
        n = len(frozen[0])
        if bad_rows and n < 2:
            raise TooFewRows(f"{n} usable rows after deletion, need at least 2")
        # The values are floats that _parse_column has proven finite.
        return DataMatrix._from_finite(frozen, tuple(names))
    finally:
        if was_enabled:
            gc.enable()


def _parse_selected_columns(
    path, columns: Sequence[str] | None, drop_na: bool, cells: list[list[str]] | None
) -> tuple[list[str], list[list[float]], set[int]]:
    """Names, parsed values and bad row indices of the selected columns.

    Without ``drop_na`` a bad row is an error instead. A function of its
    own so that the cell strings, the largest allocation, are freed before
    the DataMatrix is built, unless the caller passed them in.
    """
    cells = read_cells(path) if cells is None else cells
    if not cells:
        raise ParseError(f"{path} is empty")
    header = [name.strip() for name in cells[0]]
    body = cells[1:]
    _check_widths(body, len(header), 2)
    # Transposed once; each selected column is parsed once.
    by_column = list(zip(*body)) if body else [()] * len(header)
    if columns is not None:
        missing = [name for name in columns if name not in header]
        if missing:
            raise EmptySelection(
                f"column(s) not in header: {', '.join(sorted(missing))}"
            )
        repeated = {name for name in columns if columns.count(name) > 1}
        if repeated:
            raise BadArguments(
                f"column(s) selected more than once: {', '.join(sorted(repeated))}")
        ambiguous = {name for name in columns if header.count(name) > 1}
        if ambiguous:
            raise BadArguments(f"column(s) named more than once in the header: "
                               f"{', '.join(sorted(ambiguous))}")
        selected = [header.index(name) for name in columns]
        parsed = {j: _parse_column(by_column[j]) for j in selected}
    else:
        # Every cell bad drops a column, unless it has no cells: no rows.
        parsed = {
            j: column
            for j, column in enumerate(map(_parse_column, by_column))
            if len(column[1]) < len(body) or not body
        }
        selected = list(parsed)
    if not selected:
        raise EmptySelection("no numeric columns to select")

    bad_rows = set()
    for j in selected:
        bad_rows.update(parsed[j][1])
    if bad_rows and not drop_na:
        # The first bad cell in row-major order, columns in selection order.
        i = min(bad_rows)
        j = next(j for j in selected if i in parsed[j][1])
        raise ParseError(
            f"row {i + 2}, column {header[j]}: cannot use cell {body[i][j].strip()!r}"
        )
    return [header[j] for j in selected], [parsed[j][0] for j in selected], bad_rows


def _check_widths(rows: list[list[str]], width: int, first: int) -> None:
    """Raise at the first row not ``width`` cells wide; ``rows[0]`` is row ``first``."""
    for number, row in enumerate(rows, first):
        if len(row) != width:
            raise ParseError(f"row {number}: expected {width} cells, found {len(row)}")


def _numeric_grid(path, cells: list[list[str]] | None) -> list[list[float]]:
    """Square numeric block of a matrix CSV, optional header stripped; its
    first data row sets the width."""
    cells = read_cells(path) if cells is None else cells
    if not cells:
        raise ParseError(f"{path} is empty")
    first = 1
    if _parse_column(cells[0])[1]:
        first = 2
        cells = cells[1:]
        if not cells:
            raise ParseError(f"{path} has a header but no rows")
    width = len(cells[0])
    _check_widths(cells, width, first)
    grid = []
    for number, row in enumerate(cells, first):
        values, bad = _parse_column(row)
        if bad:
            raise ParseError(f"row {number}, column {bad[0] + 1}: "
                             f"cannot parse {row[bad[0]].strip()!r}")
        grid.append(values)
    if len(grid) != width:
        raise NotSquare(f"{len(grid)} rows x {width} columns")
    return grid


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


def read_checked_matrix(path, cells: list[list[str]] | None = None) -> CheckedMatrix:
    """Load a square matrix CSV without judging it: the averaged entries
    and the asymmetry the file had, with its worst pair."""
    grid = _numeric_grid(path, cells)
    d = len(grid)
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
