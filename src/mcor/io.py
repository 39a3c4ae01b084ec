"""CSV ingestion for raw data and precomputed correlation matrices.

Data files are RFC-4180-style with a header row; ``NA`` or an empty cell
means missing. A data file is read as a stream of rows and parsed one
block of rows at a time, so its cell strings are never all alive at
once. Matrix files are square numeric grids with an optional header row
(detected when any first-row cell fails to parse as a number), read
whole. Each reader checks the widths of the rows it holds before it
parses their cells, and errors number the file's non-blank rows from 1,
the header being row 1.
"""

from __future__ import annotations

import csv
import gc
import math
from collections.abc import Iterator, Sequence
from itertools import chain, compress, islice
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


def _rows(path) -> Iterator[list[str]]:
    """Rows of a CSV file as ``csv.reader`` gives them, cells as written
    (not stripped), blank lines dropped, read as they are asked for.

    A line with no cells or with one cell that is only whitespace is
    blank; a line of delimiters like ",," is still a row. An unreadable
    file, a byte that is not UTF-8 or a ``csv`` error raises when the
    stream reaches it. The file is closed when the stream ends, raises or
    is closed.
    """
    try:
        # utf-8-sig drops the byte-order mark spreadsheet exports put
        # before the first header name.
        with open(path, newline="", encoding="utf-8-sig") as handle:
            reader = csv.reader(handle)
            for row in reader:
                if row[1:] or row and row[0].strip():
                    yield row
    except OSError as exc:
        raise FileError(f"cannot read {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise FileError(f"{path} is not valid UTF-8: {exc}") from exc
    except csv.Error as exc:  # a cell past csv.field_size_limit(), for one
        raise ParseError(f"{path}, line {reader.line_num}: {exc}") from None


def read_cells(path) -> list[list[str]]:
    """Every row of a CSV file, cells as written (not stripped), blank
    lines dropped: the whole of ``_rows(path)``.

    For a caller that reads a file more than once, as ``compare`` does to
    sniff its kind. ``read_csv_data`` and ``read_checked_matrix`` take the
    list as ``cells``; they strip only the header and the cells float()
    rejects.
    """
    return list(_rows(path))


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

    The file is read as a stream and parsed ``_BLOCK_ROWS`` rows at a
    time, so peak memory is about the parsed floats plus one block of
    cell strings. ``cells``, rows a caller has already read from ``path``,
    go through the same blocks.

    Cyclic garbage collection is paused for the call and resumed, if it
    was enabled, once the stream is read: the row lists ``csv.reader``
    makes hold only strings and form no cycles, yet every collection
    would scan them. The switch is process-wide, so other threads run
    without cyclic collection meanwhile; reference counting still frees
    their objects.
    """
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        rows = _rows(path) if cells is None else iter(cells)
        names, cols, bad_rows = _parse_selected_columns(path, rows, columns, drop_na)
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


# Body rows of a data file parsed at a time. A block's cell strings are
# freed before the next block is read; larger blocks are no faster.
_BLOCK_ROWS = 4096


def _parse_selected_columns(
    path, rows: Iterator[list[str]], columns: Sequence[str] | None, drop_na: bool
) -> tuple[list[str], list[list[float]], set[int]]:
    """Names, parsed values and bad row indices of the selected columns of
    a data file's ``rows``, the header first.

    The body is parsed ``_BLOCK_ROWS`` rows at a time, only the selected
    columns when ``columns`` is given. Without ``drop_na`` a bad row is an
    error instead. Errors keep the order of a whole-file read, and none is
    raised before the last row is read: an error of the stream itself
    (raised where it is met), then the first row of the wrong width, then
    a ``columns`` name that cannot be selected, then the first bad cell in
    row-major order. A block is not parsed once a row of the wrong width
    is met, so no short row is cut by the transpose.
    """
    first_row = next(rows, None)
    if first_row is None:
        raise ParseError(f"{path} is empty")
    header = [name.strip() for name in first_row]
    selection_error = None
    try:
        wanted = range(len(header)) if columns is None else _column_indices(header, columns)
    except (EmptySelection, BadArguments) as exc:
        selection_error, wanted = exc, []
    parsed = {j: ([], []) for j in wanted}  # values and bad row indices
    # Columns whose every cell so far is bad. Their values (all 0.0) and bad
    # indices (all rows so far) are written only once a block holds a
    # number, so a text column that auto-selection drops never holds them.
    all_bad = set(wanted)
    first_bad_text = {}  # the stripped text of a column's first bad cell
    width_error = None
    n = 0
    while block := list(islice(rows, _BLOCK_ROWS)):
        if width_error is None:
            try:
                _check_widths(block, len(header), n + 2)
            except ParseError as exc:
                width_error = exc
        if width_error is None and parsed:
            by_column = list(zip(*block))
            for j, (values, bad) in parsed.items():
                block_values, block_bad = _parse_column(by_column[j])
                if block_bad:
                    first_bad_text.setdefault(j, by_column[j][block_bad[0]].strip())
                if j in all_bad:
                    if len(block_bad) == len(block):
                        continue
                    all_bad.remove(j)
                    values.extend([0.0] * n)
                    bad.extend(range(n))
                values.extend(block_values)
                bad.extend([i + n for i in block_bad])
        n += len(block)
    if width_error is not None:
        raise width_error
    if selection_error is not None:
        raise selection_error
    if columns is None:
        # Every cell bad drops a column, unless it has no cells: no rows.
        selected = [j for j in parsed if j not in all_bad or not n]
    else:
        selected = wanted
    if not selected:
        raise EmptySelection("no numeric columns to select")
    for j in all_bad.intersection(selected):
        parsed[j] = ([0.0] * n, list(range(n)))

    bad_rows = set()
    for j in selected:
        bad_rows.update(parsed[j][1])
    if bad_rows and not drop_na:
        # The first bad cell in row-major order, columns in selection order.
        i = min(bad_rows)
        j = next(j for j in selected if i in parsed[j][1])
        raise ParseError(
            f"row {i + 2}, column {header[j]}: cannot use cell {first_bad_text[j]!r}")
    return [header[j] for j in selected], [parsed[j][0] for j in selected], bad_rows


def _column_indices(header: list[str], columns: Sequence[str]) -> list[int]:
    """Header indices of the ``columns`` names, each of which the header
    must hold once and ``columns`` name once."""
    missing = [name for name in columns if name not in header]
    if missing:
        raise EmptySelection(f"column(s) not in header: {', '.join(sorted(missing))}")
    repeated = {name for name in columns if columns.count(name) > 1}
    if repeated:
        raise BadArguments(
            f"column(s) selected more than once: {', '.join(sorted(repeated))}")
    ambiguous = {name for name in columns if header.count(name) > 1}
    if ambiguous:
        raise BadArguments(f"column(s) named more than once in the header: "
                           f"{', '.join(sorted(ambiguous))}")
    return [header.index(name) for name in columns]


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
