"""CSV ingestion: data files, matrix files, kind sniffing."""

import csv
import gc
import math
import random
import re
import sys
import tracemalloc

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import mcor.io as mcor_io
from mcor import mcor_from_matrix
from mcor.cli import main
from mcor.errors import (
    BadArguments,
    EmptySelection,
    FileError,
    McorError,
    NotACorrelationMatrix,
    NotSquare,
    NotSymmetric,
    ParseError,
    TooFewRows,
)
from mcor.io import (
    _parse_column,
    bundled_fixture,
    read_cells,
    read_checked_matrix,
    read_csv_data,
    read_matrix,
)
from oracles import _parse_number
from support import assert_as_checked


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


class TestReadCsvData:
    def test_plain_numeric(self, tmp_path):
        path = write(tmp_path, "d.csv", "a,b,c\n1,2,3\n4,5,6\n7,8,9\n1.5,0.25,3e-1\n")
        data = read_csv_data(path)
        assert (data.n_obs, data.n_vars) == (4, 3)
        assert data.var_names == ("a", "b", "c")
        assert data.values[3] == (1.5, 0.25, 0.3)

    def test_scientific_notation(self, tmp_path):
        path = write(tmp_path, "d.csv", "a,b\n1e-1,2\n2E-1,3\n")
        assert read_csv_data(path).values[0] == (0.1, 2.0)

    def test_column_selection(self, tmp_path):
        path = write(tmp_path, "d.csv", "a,b,c\n1,2,3\n4,5,6\n")
        data = read_csv_data(path, columns=("c", "a"))
        assert data.var_names == ("c", "a")
        assert data.values == ((3.0, 1.0), (6.0, 4.0))

    def test_missing_requested_column(self, tmp_path):
        path = write(tmp_path, "d.csv", "a,b\n1,2\n3,4\n")
        with pytest.raises(EmptySelection, match="nope"):
            read_csv_data(path, columns=("a", "nope"))

    def test_column_selected_twice(self, tmp_path):
        path = write(tmp_path, "d.csv", "a,b,c\n1,2,3\n3,4,0\n")
        with pytest.raises(BadArguments) as info:
            read_csv_data(path, columns=("c", "a", "c", "a", "b"))
        assert str(info.value) == "column(s) selected more than once: a, c"
        # A missing name is reported before a repeated one.
        with pytest.raises(EmptySelection, match="column\\(s\\) not in header: zz$"):
            read_csv_data(path, columns=("a", "a", "zz"))

    def test_repeated_header_names_stay_legal(self, tmp_path):
        # Unless --columns names one: which of its columns is meant is unknown.
        path = write(tmp_path, "d.csv", "a,a,b,c,c\n1,2,3,4,5\n3,4,0,1,1\n")
        assert read_csv_data(path).var_names == ("a", "a", "b", "c", "c")
        assert read_csv_data(path, columns=("b",)).values == ((3.0,), (0.0,))
        with pytest.raises(BadArguments) as info:
            read_csv_data(path, columns=("c", "b", "a"))
        assert str(info.value) == "column(s) named more than once in the header: a, c"
        # A name selected twice is reported before a name the header holds twice.
        with pytest.raises(BadArguments, match="selected more than once: a$"):
            read_csv_data(path, columns=("a", "a"))

    @pytest.mark.parametrize("drop_na", [False, True])
    @pytest.mark.parametrize("columns", [None, ("a", "b"), ("b",)])
    def test_header_without_rows(self, tmp_path, columns, drop_na):
        path = write(tmp_path, "d.csv", "a,b\n")
        with pytest.raises(TooFewRows, match="^need at least 2 observations, got 0$"):
            read_csv_data(path, columns=columns, drop_na=drop_na)

    def test_na_dropped_listwise(self, tmp_path):
        path = write(tmp_path, "d.csv", "a,b\n1,2\n NA ,3\n4,\n5,6\n")
        data = read_csv_data(path, drop_na=True)
        assert data.values == ((1.0, 2.0), (5.0, 6.0))

    def test_na_is_hard_error_by_default(self, tmp_path):
        path = write(tmp_path, "d.csv", "a,b\n1,2\n3,NA\n5,6\n")
        with pytest.raises(ParseError, match=r"row 3, column b"):
            read_csv_data(path)

    def test_text_column_excluded_automatically(self, tmp_path):
        path = write(tmp_path, "d.csv", "site,a,b\nx1,1,2\nx2,3,4\n")
        data = read_csv_data(path)
        assert data.var_names == ("a", "b")

    def test_no_numeric_columns(self, tmp_path):
        path = write(tmp_path, "d.csv", "site,tag\nx,u\ny,v\n")
        with pytest.raises(EmptySelection):
            read_csv_data(path)

    def test_too_few_rows_after_deletion(self, tmp_path):
        path = write(tmp_path, "d.csv", "a,b\n1,2\nNA,4\nNA,6\n")
        with pytest.raises(TooFewRows):
            read_csv_data(path, drop_na=True)

    def test_ragged_row(self, tmp_path):
        path = write(tmp_path, "d.csv", "a,b\n1,2\n3\n")
        with pytest.raises(ParseError, match="row 3"):
            read_csv_data(path)

    def test_nan_token_is_not_numeric(self, tmp_path):
        path = write(tmp_path, "d.csv", "a,b\n1,2\nnan,4\n5,6\n")
        with pytest.raises(ParseError):
            read_csv_data(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileError):
            read_csv_data(tmp_path / "absent.csv")

    def test_quoted_cells(self, tmp_path):
        path = write(tmp_path, "d.csv", 'a,b\n"1.5","2"\n"3","4"\n')
        assert read_csv_data(path).values == ((1.5, 2.0), (3.0, 4.0))


    def test_first_bad_cell_in_row_major_order(self, tmp_path):
        # Bad cells in column a at row 7 and column b at row 4 (the header
        # is row 1): parsed column by column, the error still names row 4.
        lines = ["a,b,c"] + [f"{i},{i * i},{i % 3}" for i in range(1, 9)]
        lines[6] = "x,36,0"
        lines[3] = "3,NA,0"
        path = write(tmp_path, "d.csv", "\n".join(lines) + "\n")
        with pytest.raises(ParseError, match=r"^row 4, column b: cannot use cell 'NA'$"):
            read_csv_data(path)
        data = read_csv_data(path, drop_na=True)
        assert data.n_obs == 6
        assert data.column(0) == [1.0, 2.0, 4.0, 5.0, 7.0, 8.0]

    def test_same_row_reports_first_selected_column(self, tmp_path):
        path = write(tmp_path, "d.csv", "a,b\n1,2\n3,4\nx,y\n")
        with pytest.raises(ParseError, match="row 4, column b: cannot use cell 'y'"):
            read_csv_data(path, columns=("b", "a"))

    def test_utf8_bom_is_not_part_of_the_header(self, tmp_path):
        path = tmp_path / "excel.csv"
        path.write_bytes("\ufeffa,b\n1,2\n3,5\n4,4\n".encode("utf-8"))
        data = read_csv_data(path, columns=("a",))
        assert data.var_names == ("a",)
        assert data.columns == ((1.0, 3.0, 4.0),)
        assert read_csv_data(path).var_names == ("a", "b")

    def test_bom_before_a_headerless_matrix(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_bytes("\ufeff1,0.5\n0.5,1\n".encode("utf-8"))
        assert read_matrix(path).lower == ((1.0,), (0.5, 1.0))


class TestBlankLinesAndStripping:
    def test_whitespace_only_line_is_dropped(self, tmp_path):
        path = write(tmp_path, "d.csv", "a,b\n1,2\n \t \n\n3,5\n4,4\n")
        assert read_cells(path) == [["a", "b"], ["1", "2"], ["3", "5"], ["4", "4"]]
        assert read_csv_data(path).n_obs == 3

    def test_lines_of_delimiters_are_rows(self, tmp_path):
        path = write(tmp_path, "d.csv", "a,b\n1,2\n,\n3,5\n,,\n")
        assert read_cells(path) == [["a", "b"], ["1", "2"], ["", ""], ["3", "5"], ["", "", ""]]

    def test_line_of_one_delimiter_is_a_row_of_missing_cells(self, tmp_path):
        path = write(tmp_path, "d.csv", "a,b\n1,2\n,\n3,5\n4,4\n")
        with pytest.raises(ParseError, match=r"^row 3, column a: cannot use cell ''$"):
            read_csv_data(path)
        assert read_csv_data(path, drop_na=True).columns == ((1.0, 3.0, 4.0), (2.0, 5.0, 4.0))

    def test_cells_are_stripped_of_what_float_keeps(self, tmp_path):
        # float() rejects "\x1c1.5"; str.strip drops the \x1c.
        assert _parse_column(["\x1c1.5"]) == ([1.5], [])
        path = write(tmp_path, "d.csv", "a,b\n\x1c1.5,2\x1f\n3,4\n")
        assert read_csv_data(path).columns == ((1.5, 3.0), (2.0, 4.0))

    def test_cells_come_as_written(self, tmp_path):
        path = write(tmp_path, "d.csv", " a ,b\n\x1c1.5, 2\n")
        assert read_cells(path) == [[" a ", "b"], ["\x1c1.5", " 2"]]

    def test_padded_header_name_is_selected_by_its_name(self, tmp_path, capsys):
        path = write(tmp_path, "d.csv", " a ,b,\tc\u3000\n1,2,3\n2,3,5\n4,3,4\n")
        data = read_csv_data(path, columns=("a",))
        assert (data.var_names, data.columns) == (("a",), ((1.0, 2.0, 4.0),))
        assert read_csv_data(path).var_names == ("a", "b", "c")
        # One selected column is too few for a coefficient, but it is found.
        assert main(["compute", str(path), "--columns", "a"]) == 1
        assert capsys.readouterr().err == (
            "error: DIMENSION_TOO_SMALL: need at least 2 variables, got 1\n")
        assert main(["compute", str(path), "--columns", "c,a"]) == 0

    def test_bad_cell_is_quoted_stripped(self, tmp_path, capsys):
        path = write(tmp_path, "d.csv", "a,b\n1,2\n x ,3\n4,3\n")
        with pytest.raises(ParseError, match=r"^row 3, column a: cannot use cell 'x'$"):
            read_csv_data(path)
        assert main(["compute", str(path)]) == 1
        assert capsys.readouterr().err == (
            "error: PARSE_ERROR: row 3, column a: cannot use cell 'x'\n")
        matrix = write(tmp_path, "m.csv", "1,0.2\n0.2,\x1c oops \n")
        with pytest.raises(ParseError, match=r"^row 2, column 2: cannot parse 'oops'$"):
            read_matrix(matrix)

    @pytest.mark.parametrize("cell", ["\x1cnan", " inf ", "\x1f-inf", "\u00a0NaN\x1d"])
    def test_stripped_non_finite_cells_are_missing(self, tmp_path, cell):
        path = write(tmp_path, "d.csv", f"a,b\n1,2\n{cell},3\n4,3\n5,1\n")
        with pytest.raises(ParseError, match=r"^row 3, column a: cannot use cell "):
            read_csv_data(path)
        assert read_csv_data(path, drop_na=True).columns == ((1.0, 4.0, 5.0), (2.0, 3.0, 1.0))


class TestTextColumnCost:
    """A column whose cells cannot start a number costs one float() call."""

    @staticmethod
    def id_csv(tmp_path, n=1000):
        # One id is missing: an empty cell starts no number either.
        lines = ["id,x,y"] + [f"{'' if i == n // 2 else f'id{i}'},{i},{(i * 7) % 13}"
                              for i in range(n)]
        return write(tmp_path, "d.csv", "\n".join(lines) + "\n")

    def test_one_float_call_for_a_text_column(self, tmp_path, monkeypatch):
        calls = []

        def counting(text):
            calls.append(text)
            return float(text)

        path = self.id_csv(tmp_path)
        # map(float, ...) in mcor.io looks the name up in the module's globals.
        monkeypatch.setattr(mcor_io, "float", counting, raising=False)
        data = read_csv_data(path)
        assert data.var_names == ("x", "y")
        assert len(calls) == 1 + 2 * 1000

    def test_selected_text_column_errors_keep_their_bytes(self, tmp_path, capsys):
        path = str(self.id_csv(tmp_path))
        assert main(["compute", path, "--columns", "id"]) == 1
        assert capsys.readouterr().err == (
            "error: PARSE_ERROR: row 2, column id: cannot use cell 'id0'\n")
        assert main(["compute", path, "--columns", "id", "--drop-na"]) == 1
        assert capsys.readouterr().err == (
            "error: TOO_FEW_ROWS: 0 usable rows after deletion, need at least 2\n")


class TestGarbageCollectionState:
    """read_csv_data pauses cyclic collection while the cells are alive and
    leaves it as it found it, when it raises too."""

    @pytest.mark.parametrize("enabled", [True, False])
    @pytest.mark.parametrize("text, drop_na, error", [
        ("a,b\n1,2\n3,5\n", False, None),
        ("a,b\n1,2\nx,5\n", False, ParseError),
        ("a,b\n1,2\nNA,5\n", True, TooFewRows),
    ])
    def test_state_is_left_as_found(self, tmp_path, monkeypatch, enabled, text, drop_na, error):
        path = write(tmp_path, "d.csv", text)
        seen = []
        real = mcor_io._parse_selected_columns

        def recording(*args):
            seen.append(gc.isenabled())
            return real(*args)

        monkeypatch.setattr(mcor_io, "_parse_selected_columns", recording)
        was = gc.isenabled()
        try:
            (gc.enable if enabled else gc.disable)()
            if error is None:
                read_csv_data(path, drop_na=drop_na)
            else:
                with pytest.raises(error):
                    read_csv_data(path, drop_na=drop_na)
            assert gc.isenabled() is enabled
        finally:
            (gc.enable if was else gc.disable)()
        assert seen == [False]


# 5000 rows put the damage past the first block of rows and the first
# 8 KB chunk the text decoder reads.
MANY_ROWS = b"1,2\n" * 5000


class TestBlockStream:
    """read_csv_data parses the file a block of rows at a time, yet raises
    what a read of the whole file raised, and closes the file."""

    @pytest.mark.parametrize("data, columns, message", [
        (b"a,b\n1,2\nx,3\n" + MANY_ROWS + b"4\n5,6\n", None,
         "row 5004: expected 2 cells, found 1"),
        (b"a,b\n1,2\n3\n" + MANY_ROWS + b"6,\xff\n", None,
         "{path} is not valid UTF-8: 'utf-8' codec can't decode byte 0xff in position 3628: "
         "invalid start byte"),
        (b"a,b\n1,x\n2\n" + MANY_ROWS + b"5," + b"9" * 140_000 + b"\n6,7\n", None,
         "{path}, line 5004: field larger than field limit (131072)"),
        (b"a,b\n1,2\n" + MANY_ROWS + b"\xc3\x28,5\n", ("a", "zz"),
         "{path} is not valid UTF-8: 'utf-8' codec can't decode byte 0xc3 in position 3624: "
         "invalid continuation byte"),
        (b"a,b\n1,2\n" + MANY_ROWS + b"3\n4,5\n", ("a", "a"),
         "row 5003: expected 2 cells, found 1"),
        (b"a,b\n1,2\n3,x\n" + MANY_ROWS + b"4,y\n", None,
         "row 3, column b: cannot use cell 'x'"),
        (b"a,b\n1,x\n2,y\n" + MANY_ROWS, None, "row 2, column b: cannot use cell 'x'"),
    ], ids=["short-row-after-bad-cell", "bad-utf8-after-short-row", "field-limit-late",
            "missing-name-bad-utf8", "repeated-name-short-row", "bad-cells-in-two-blocks",
            "text-blocks-then-numbers"])
    @pytest.mark.parametrize("block_rows", [1, 4096])
    def test_errors_keep_their_whole_file_precedence(self, tmp_path, monkeypatch, data, columns,
                                                     message, block_rows):
        assert csv.field_size_limit() == 131072
        path = tmp_path / "d.csv"
        path.write_bytes(data)
        handles = []

        def recording_open(*args, **kwargs):
            handles.append(open(*args, **kwargs))
            return handles[-1]

        # open() in mcor.io looks the name up in the module's globals.
        monkeypatch.setattr(mcor_io, "open", recording_open, raising=False)
        monkeypatch.setattr(mcor_io, "_BLOCK_ROWS", block_rows)
        with pytest.raises(McorError) as caught:
            read_csv_data(path, columns=columns)
        assert str(caught.value) == message.format(path=path)
        assert len(handles) == 1 and handles[0].closed

    def test_peak_memory_is_a_block_above_what_is_kept(self, tmp_path):
        # Reading every cell before parsing peaked at 4x the DataMatrix; a
        # block at a time peaks at about 2x.
        data, kept, peak = traced(read_csv_data, write_tall(tmp_path), drop_na=True)
        assert data.n_vars == 10 and 19_000 < data.n_obs < 20_000
        assert peak <= 2.5 * kept

    def test_a_dropped_text_column_holds_nothing_per_row(self, tmp_path):
        # Auto-selection parses the text id too, but keeps no value or bad
        # index for its cells once it has dropped it: its peak is that of
        # naming the ten numeric columns, well within a pointer per row.
        path = write_tall(tmp_path)
        named = [f"x{j}" for j in range(10)]
        by_name, _, named_peak = traced(read_csv_data, path, columns=named, drop_na=True)
        auto, _, auto_peak = traced(read_csv_data, path, drop_na=True)
        assert auto == by_name
        assert auto_peak - named_peak < 8 * 20_000


def write_tall(tmp_path):
    """A text id and ten 9-digit columns of 20 000 rows, about 1% of rows
    missing a value."""
    rng = random.Random(0)
    lines = ["id," + ",".join(f"x{j}" for j in range(10))]
    for i in range(20_000):
        cells = [f"{rng.gauss(0.0, 1.0):.9g}" for _ in range(10)]
        if rng.random() < 0.01:
            cells[rng.randrange(10)] = "NA"
        lines.append(f"r{i}," + ",".join(cells))
    return write(tmp_path, "tall.csv", "\n".join(lines) + "\n")


def traced(f, *args, **kwargs):
    """``f(*args, **kwargs)``, with the memory it left allocated and the
    peak it reached, both over what was allocated before, as
    ``tracemalloc`` counts them."""
    was_tracing = tracemalloc.is_tracing()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        result = f(*args, **kwargs)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        if not was_tracing:
            tracemalloc.stop()
    return result, kept - before, peak - before


class TestUncheckedCore:
    """read_csv_data builds its DataMatrix without from_columns' checks; it
    must still be the one from_columns builds."""

    @pytest.mark.parametrize("name", ["tb_area1.csv", "tb_area2.csv"])
    def test_bundled_fixtures_read_as_data(self, name):
        data = read_csv_data(bundled_fixture(name))
        assert (data.n_obs, data.n_vars) == (6, 6)
        assert_as_checked(data)

    def test_deleted_rows_and_selected_columns(self, tmp_path):
        path = write(tmp_path, "d.csv", "id,a,b,c\nr1,1,2,3\nr2,NA,3,4\nr3,2,\x1c5,6\nr4,3,1,7\n")
        data = read_csv_data(path, columns=("c", "a"), drop_na=True)
        assert data.columns == ((3.0, 6.0, 7.0), (1.0, 2.0, 3.0))
        assert_as_checked(data)


class TestParseColumn:
    @pytest.mark.parametrize("cells", [
        ("1", "2.5", "-3e2"),
        ("NA", "1", "", "x", "2", "nan", "inf", "-inf", "3", "NA"),
        ("a", "b", "c"),
        ("1_000", " 4 ", "0x10", "1e400", "5"),
        (),
        # A first cell float() rejects screens the column by its cells'
        # first characters: whitespace and any script's digits can start
        # a number, "" cannot.
        ("x", " 4 "),
        ("x", "\u0663"),
        ("", "1"),
        ("id1", ""),
    ])
    def test_matches_parse_number_cell_by_cell(self, cells):
        values, bad = _parse_column(cells)
        expected = [_parse_number(c.strip()) for c in cells]
        assert bad == [i for i, v in enumerate(expected) if v is None]
        assert values == [0.0 if v is None else v for v in expected]


class TestReadMatrix:
    def test_fixture_area1(self):
        m = read_matrix(bundled_fixture("tb_area1.csv"))
        assert m.dim == 6
        assert m.lower[1][0] == -0.13
        assert m.lower[4][1] == 0.1

    def test_fixture_area2(self):
        m = read_matrix(bundled_fixture("tb_area2.csv"))
        assert m.dim == 6
        assert m.lower[5][0] == 0.58
        assert m.lower[3][1] == -0.3

    def test_optional_header(self, tmp_path):
        bare = write(tmp_path, "m1.csv", "1,0.5\n0.5,1\n")
        headed = write(tmp_path, "m2.csv", "c1,c2\n1,0.5\n0.5,1\n")
        assert read_matrix(bare).lower == read_matrix(headed).lower

    @pytest.mark.parametrize("text, message", [
        ("a,b\n1,x\n", "row 2, column 2: cannot parse 'x'"),
        ("a,b\n1,0.5\n0.5\n", "row 3: expected 2 cells, found 1"),
        # Widths are checked before cells.
        ("1,0.5\n0.5\nx,1\n", "row 2: expected 2 cells, found 1"),
    ])
    def test_rows_are_numbered_with_the_header_as_row_1(self, tmp_path, text, message):
        with pytest.raises(ParseError) as info:
            read_matrix(write(tmp_path, "m.csv", text))
        assert str(info.value) == message

    def test_not_square(self, tmp_path):
        path = write(tmp_path, "m.csv", "1,0.5,0.2\n0.5,1,0.1\n")
        with pytest.raises(NotSquare):
            read_matrix(path)

    def test_not_symmetric_names_worst_pair(self, tmp_path):
        path = write(tmp_path, "m.csv", "1,0.5,0.2\n0.4,1,0.1\n0.2,0.1,1\n")
        with pytest.raises(NotSymmetric, match=r"\(1,2\)"):
            read_matrix(path)

    def test_asymmetry_is_reported_before_an_overflowing_average(self, tmp_path):
        path = write(tmp_path, "m.csv", "1,1e308\n1.5e308,1\n")
        with pytest.raises(NotSymmetric, match=r"\(1,2\) = 1e\+308"):
            read_matrix(path)

    def test_average_of_entries_near_the_float_maximum(self, tmp_path):
        path = write(tmp_path, "m.csv", "1,1.5e308\n1.5e308,1\n")
        assert read_matrix(path).lower[1][0] == 1.5e308
        path = write(tmp_path, "m2.csv", "1,1e308\n1.5e308,1\n")
        assert read_checked_matrix(path).matrix.lower[1][0] == 1.25e308

    def test_worst_pair_is_ranked_by_halved_gaps(self, tmp_path):
        path = write(tmp_path, "m.csv", "1,1.5e308,1.7e308\n-1.5e308,1,0\n-1.7e308,0,1\n")
        checked = read_checked_matrix(path)
        assert checked.worst_pair == (0, 2, 1.7e308, -1.7e308)
        assert checked.max_asymmetry == math.inf

    @given(st.floats(allow_nan=False, allow_infinity=False),
           st.floats(allow_nan=False, allow_infinity=False))
    @settings(max_examples=200, deadline=None)
    def test_average_is_the_rounded_mean(self, tmp_path_factory, a, b):
        assume(math.isfinite(a + b))
        assume(all(x == 0.0 or abs(0.5 * x) >= sys.float_info.min for x in (a, b)))
        path = tmp_path_factory.mktemp("avg") / "m.csv"
        path.write_text(f"1,{a!r}\n{b!r},1\n", encoding="utf-8")
        assert read_checked_matrix(path).matrix.lower[1][0] == 0.5 * (a + b)

    def test_symmetric_verdict_at_the_tolerance(self, tmp_path):
        # Entries 0 and g differ by exactly g.
        past = math.nextafter(1e-9, 1.0)
        for gap, verdict in ((1e-9, True), (past, False)):
            path = write(tmp_path, "m.csv", f"1,{gap!r}\n0,1\n")
            checked = read_checked_matrix(path)
            assert checked.max_asymmetry == gap
            assert checked.symmetric is verdict
        with pytest.raises(NotSymmetric, match=r"differ by 1\.000e-09"):
            checked.symmetric_matrix()

    def test_unit_diagonal_verdict_at_the_tolerance(self, tmp_path, monkeypatch):
        # |x - 1| is exact for x near 1, a multiple of 2**-53, so no file's
        # diagonal lands on 1e-9: the measure the record reads returns it.
        checked = read_checked_matrix(write(tmp_path, "m.csv", "1,0\n0,1\n"))
        assert checked.unit_diagonal is True
        for deviation, verdict in ((1e-9, True), (math.nextafter(1e-9, 1.0), False)):
            monkeypatch.setattr(mcor_io, "_entry_excesses", lambda _, e=deviation: [(0, 0, e)])
            assert checked.max_diagonal_deviation == deviation
            assert checked.unit_diagonal is verdict
        monkeypatch.undo()
        # The nearest diagonals a file can hold fall either side of it.
        below, above = 1.0 + 4503599 * 2.0**-52, 1.0 + 4503600 * 2.0**-52
        for x, verdict in ((below, True), (above, False), (2.0 - below, True)):
            path = write(tmp_path, "m.csv", f"{x!r},0\n0,1\n")
            assert read_checked_matrix(path).unit_diagonal is verdict

    def test_off_diagonal_verdict_is_the_matrix_rule(self, tmp_path):
        # The nearest entries a file can hold either side of 1 + 1e-9, and
        # their negatives: validate's verdict is matrix's accept or reject.
        below, above = 1.0 + 4503599 * 2.0**-52, 1.0 + 4503600 * 2.0**-52
        for x, verdict in ((below, True), (above, False), (-below, True), (-above, False)):
            path = write(tmp_path, "m.csv", f"1,{x!r}\n{x!r},1\n")
            checked = read_checked_matrix(path)
            assert checked.max_off_diagonal_excess == abs(x) - 1.0
            assert checked.off_diagonal_in_range is verdict
            if verdict:
                mcor_from_matrix(checked.symmetric_matrix())
            else:
                with pytest.raises(NotACorrelationMatrix, match="outside"):
                    mcor_from_matrix(checked.symmetric_matrix())
        inside = read_checked_matrix(write(tmp_path, "m.csv", "1,-1\n-1,1\n"))
        assert (inside.max_off_diagonal_excess, inside.off_diagonal_in_range) == (0.0, True)

    def test_tiny_asymmetry_averaged(self, tmp_path):
        path = write(tmp_path, "m.csv", "1,0.5000000001\n0.4999999999,1\n")
        m = read_matrix(path)
        assert m.lower[1][0] == pytest.approx(0.5, abs=1e-15)

    def test_bad_token(self, tmp_path):
        path = write(tmp_path, "m.csv", "1,x\n0.5,1\n")
        # non-numeric first row reads as a header, leaving one row: not square
        with pytest.raises((ParseError, NotSquare)):
            read_matrix(path)
        path2 = write(tmp_path, "m2.csv", "1,0.2\n0.2,oops\n")
        with pytest.raises(ParseError, match="oops"):
            read_matrix(path2)


class TestSniffKind:
    """``compare`` reads a file as a matrix when it is a square numeric grid
    with a unit diagonal, else as data; its text names the kind it chose."""

    @staticmethod
    def kinds(capsys, path_a, path_b=bundled_fixture("tb_area2.csv")):
        assert main(["compare", str(path_a), str(path_b)]) == 0
        return re.findall(r"^  [AB] \((\w+)\): ", capsys.readouterr().out, re.M)

    def test_matrix_grid(self, tmp_path, capsys):
        path = write(tmp_path, "m.csv", "1,0.3\n0.3,1\n")
        assert self.kinds(capsys, path)[0] == "matrix"

    def test_matrix_with_header(self, tmp_path, capsys):
        path = write(tmp_path, "m.csv", "u,v\n1,0.3\n0.3,1\n")
        assert self.kinds(capsys, path)[0] == "matrix"

    def test_data_file(self, tmp_path, capsys):
        path = write(tmp_path, "d.csv", "a,b\n1,2\n3,4\n5,6\n")
        assert self.kinds(capsys, path)[0] == "data"

    def test_square_without_unit_diagonal_is_data(self, tmp_path, capsys):
        path = write(tmp_path, "d.csv", "a,b\n1,2\n3,4\n")
        assert self.kinds(capsys, path)[0] == "data"

    def test_fixtures_detected_as_matrices(self, capsys):
        assert self.kinds(capsys, bundled_fixture("tb_area1.csv")) == ["matrix", "matrix"]
