"""CSV ingestion for raw data: the readers of ``compute`` and ``compare``.

Data files are RFC-4180-style with a header row; ``NA`` or an empty cell
means missing. A data file is read as a stream of rows and parsed one
block of rows at a time, so its cell strings are never all alive at
once. A large one with no quote and no lone carriage return is cut at a
newline past its middle byte, and its halves are parsed side by side,
the second in a forked process; it gives what the serial read gives, and
a half that meets an error leaves the file to the serial read. A
``compare`` input is held whole only if it is short enough to be a
square matrix grid. The row stream, the cell parser, the matrix reader
and the rules on error order and row numbers are ``io``'s.
"""

from __future__ import annotations

import gc
import os
import re
from collections.abc import Iterator, Sequence
from itertools import chain, compress, islice

from .corestats import DataMatrix
from .errors import BadArguments, EmptySelection, McorError, NotSquare, ParseError, TooFewRows
from .io import CheckedMatrix, _checked_matrix, _parse_column, _rows, read_checked_matrix


def read_csv_data(
    path,
    columns: Sequence[str] | None = None,
    drop_na: bool = False,
) -> DataMatrix:
    """Load a header-plus-rows CSV into a DataMatrix.

    With ``columns`` unset, every column holding at least one numeric cell
    is selected (every column of a file with no rows); a ``columns`` name
    the header holds twice is an error. ``drop_na=True`` removes rows with a
    missing or unparseable cell in any selected column (listwise deletion);
    ``drop_na=False`` makes such a cell a hard error naming its row and
    column, numbered by ``io``'s row rule.

    The file is read as a stream and parsed ``_BLOCK_ROWS`` rows at a
    time, so peak memory is about the parsed floats plus one block of
    cell strings. A file of ``_SPLIT_BYTES`` or more is parsed in two
    halves side by side, the second in a forked process, when
    ``_split_point`` allows; the DataMatrix, or the error, is the one a
    serial read gives.
    """
    return _data_matrix(path, None, columns, drop_na)


def _data_matrix(path, rows: Iterator[list[str]] | None, columns: Sequence[str] | None,
                 drop_na: bool) -> DataMatrix:
    """``read_csv_data`` of ``path``. ``rows``, when given, is the ``_rows``
    stream of ``path``, perhaps started, and is read serially to its end;
    otherwise the file is read from its start, in halves side by side
    where ``_parse_halves`` can, else serially.

    Cyclic garbage collection is paused for the call and resumed, if it
    was enabled, once the stream is read: the row lists ``csv.reader``
    makes hold only strings and form no cycles, yet every collection
    would scan them. A forked child parsing the second half inherits the
    pause. The switch is process-wide, so other threads run without
    cyclic collection meanwhile; reference counting still frees their
    objects.
    """
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        parsed = _parse_halves(path, columns, drop_na) if rows is None else None
        if parsed is None:
            parsed = _parse_selected_columns(path, rows or _rows(path), columns, drop_na)
        names, cols, bad_rows = parsed
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
# freed before the next block is read. In-process read_csv_data of the
# 20 000 x 11 tall-csv input (best of 21 alternating runs, 2-CPU host)
# took 28.6, 28.8, 29.0, 29.3, 30.6 and 31.9 ms split, and 38.0, 37.8,
# 38.4, 38.6, 38.7 and 41.1 ms serially, at 256, 512, 1024, 2048, 4096
# and 8192 rows.
_BLOCK_ROWS = 512

# Bytes of a data file read at a time by _split_point's scan.
_SCAN_BYTES = 1 << 16

# A data file is split from this size up. The split costs a fork (about
# 1.7 ms), a scan of the file's bytes and a marshal round trip of the
# second half's floats, and takes about half the parse off this process.
# Timed on a 2-CPU host (in-process read_csv_data, medians of 31 or 41
# alternating serial and split runs), it broke even at about 390 KB on 11
# columns of 9-digit numbers (the tall-csv shape), at 300-400 KB on 40
# columns of two-digit integers and at 120 KB on 3 such columns; from
# 500 KB it won in each shape, at 0.92 of the serial time or less.
_SPLIT_BYTES = 500_000


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
    row-major order.
    """
    header = _header(path, rows)
    selection_error = None
    try:
        wanted = range(len(header)) if columns is None else _column_indices(header, columns)
    except (EmptySelection, BadArguments) as exc:
        selection_error, wanted = exc, []
    parsed, first_bad_text, n, width_error = _parse_body(rows, len(header), wanted)
    if width_error is not None:
        raise width_error
    if selection_error is not None:
        raise selection_error
    return _select(header, columns, parsed, first_bad_text, n, drop_na)


def _header(path, rows: Iterator[list[str]]) -> list[str]:
    """The stripped names of a data file's first row, taken from ``rows``."""
    first_row = next(rows, None)
    if first_row is None:
        raise ParseError(f"{path} is empty")
    return [name.strip() for name in first_row]


def _parse_body(rows: Iterator[list[str]], width: int, wanted: Sequence[int]
                ) -> tuple[dict, dict[int, str], int, ParseError | None]:
    """The body of a data file, the ``rows`` after its header, parsed
    ``_BLOCK_ROWS`` rows at a time: for each ``wanted`` column its values
    and bad row indices (see ``_extend``), the stripped text of its first
    bad cell, the row count and the first row not ``width`` cells wide, as
    a ParseError numbered as if ``rows`` began at row 2, or None.

    Every row is read, but none is parsed once a row of the wrong width is
    met, so no short row is cut by the transpose.
    """
    parsed = dict.fromkeys(wanted)
    first_bad_text = {}
    width_error = None
    n = 0
    while block := list(islice(rows, _BLOCK_ROWS)):
        if width_error is None:
            try:
                _check_widths(block, width, n + 2)
            except ParseError as exc:
                width_error = exc
        if width_error is None and parsed:
            by_column = list(zip(*block))
            for j in parsed:
                values, bad = _parse_column(by_column[j])
                if bad:
                    first_bad_text.setdefault(j, by_column[j][bad[0]].strip())
                _extend(parsed, j, n, values, bad)
        n += len(block)
    return parsed, first_bad_text, n, width_error


def _extend(parsed: dict, j: int, n: int, values: Sequence[float], bad: Sequence[int]) -> None:
    """Append ``values`` and ``bad``, column ``j``'s values and bad indices
    in the rows after the first ``n``, to ``parsed[j]``, its values and bad
    indices in those ``n`` rows.

    ``parsed[j]`` is None while every cell of the column is bad. Its values
    (all 0.0) and bad indices (all rows so far) are written only once a
    later row holds a number, so a text column that auto-selection drops
    never holds them.
    """
    held = parsed[j]
    if held is None:
        if len(bad) == len(values):
            return
        held = parsed[j] = ([0.0] * n, list(range(n)))
    held[0].extend(values)
    held[1].extend([i + n for i in bad])


def _select(header: list[str], columns: Sequence[str] | None, parsed: dict,
            first_bad_text: dict[int, str], n: int, drop_na: bool
            ) -> tuple[list[str], list[list[float]], set[int]]:
    """Names, values and bad row indices of the selected columns of a data
    file's parsed body of ``n`` rows (see ``_parse_body``), once no row
    had the wrong width and ``columns`` could be selected. Without
    ``drop_na`` the first bad cell in row-major order is an error."""
    if columns is None:
        # Every cell bad drops a column, unless it has no cells: no rows.
        selected = [j for j, held in parsed.items() if held is not None or not n]
    else:
        selected = list(parsed)
    if not selected:
        raise EmptySelection("no numeric columns to select")
    for j in selected:
        if parsed[j] is None:
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


def _split_point(path) -> tuple[int, int] | None:
    """Where a data file is cut for ``_parse_halves``: the offset just past
    the first newline at or after its middle byte, and the number of lines
    before it. None, for a serial read, when the file is smaller than
    ``_SPLIT_BYTES``, when ``parallel.chunk_map`` would not fork, when no
    newline follows the middle, or when the file holds a '"' (a quoted
    field may span lines) or a '\\r' that no '\\n' follows; a file that
    cannot be read is left to the serial read to report.

    The file is scanned as bytes, ``_SCAN_BYTES`` at a time.
    """
    try:
        size = os.path.getsize(path)
        if size < _SPLIT_BYTES:
            return None
        from .parallel import workers  # not loaded by import mcor.cli
        if workers(2) < 2:
            return None
        with open(path, "rb") as handle:
            handle.seek(size // 2)
            line = handle.readline()
            if not line.endswith(b"\n"):
                return None
            offset = size // 2 + len(line)
            handle.seek(0)
            lines = start = 0
            while chunk := handle.read(_SCAN_BYTES):
                if chunk.endswith(b"\r"):
                    chunk += handle.read(1)
                if b'"' in chunk or b"\r" in chunk and re.search(b"\r(?!\n)", chunk):
                    return None
                lines += chunk.count(b"\n", 0, max(0, offset - start))
                start += len(chunk)
    except OSError:
        return None
    return offset, lines


def _parse_halves(path, columns: Sequence[str] | None, drop_na: bool
                  ) -> tuple[list[str], list[list[float]], set[int]] | None:
    """``_parse_selected_columns`` of the whole file at ``path``, its two
    halves, cut at ``_split_point``, parsed side by side by
    ``parallel.chunk_map``: the header and the first half here, the rest in
    a forked child. Each half is a ``_rows`` byte range through
    ``_parse_body``; the child's rows are numbered after this half's, and
    a column is numeric if either half holds a number in it. The halves
    are joined into what a serial read of the body gives, to the bit.

    None when the file is not to be split, or when the header or either
    half meets an error, which the serial read then raises in its place.
    """
    split = _split_point(path)
    if split is None:
        return None
    offset, lines = split
    head = _rows(path, 0, lines)
    try:
        header = _header(path, head)
        wanted = range(len(header)) if columns is None else _column_indices(header, columns)
    except McorError:
        return None

    def part(k):
        try:
            *body, width_error = _parse_body(_rows(path, offset) if k else head,
                                             len(header), wanted)
        except McorError:  # an error of the stream
            return None
        return None if width_error else body

    from .parallel import chunk_map  # not loaded by import mcor.cli
    first, second = chunk_map(part, 2)
    if first is None or second is None:
        return None
    parsed, first_bad_text, n = first
    later, later_text, later_n = second
    for j, held in later.items():
        _extend(parsed, j, n, *(held or ([0.0] * later_n, range(later_n))))
    for j, text in later_text.items():
        first_bad_text.setdefault(j, text)
    return _select(header, columns, parsed, first_bad_text, n + later_n, drop_na)


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


def read_compare_input(path, as_kind: str | None, columns: Sequence[str] | None,
                       drop_na: bool) -> CheckedMatrix | DataMatrix:
    """One ``compare`` input, a matrix if ``as_kind`` says so or, unset, if
    it is a square numeric grid with a diagonal of 1 within 1e-9; else data.
    A square grid has at most a header row plus as many rows as its first
    data row has cells: a longer file is data, streamed past that bound."""
    if as_kind == "data":
        return read_csv_data(path, columns, drop_na)
    if as_kind == "matrix":
        return read_checked_matrix(path)
    rows = _rows(path)
    held = list(islice(rows, 2))
    bound = 1 + max(map(len, held), default=0)
    held += islice(rows, bound + 1 - len(held))
    if len(held) <= bound:  # the whole file
        try:
            checked = _checked_matrix(path, held)
        except (ParseError, NotSquare):
            pass
        else:
            if checked.unit_diagonal:
                return checked
    return _data_matrix(path, chain(held, rows), columns, drop_na)
