"""Hypothesis properties: the CLI contract on hostile input files, the
invariances of the coefficient, and the numeric functions on finite
doubles over the whole float range."""

import io
import json
import math
import re
import sys
from contextlib import redirect_stderr, redirect_stdout
from unittest import mock
from fractions import Fraction
from math import fsum
from statistics import fmean

import pytest
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

from mcor import (
    DataMatrix,
    eigenvalues_symmetric,
    john_sphericity,
    make_symmetric,
    mcor,
    mcor_from_matrix,
    mcor_from_spectrum,
    pearson_r,
    rescaled_sphericity,
    sample_sd,
)
from mcor.cli import main
from mcor.errors import McorError, ParseError
from mcor.datafile import _split_point, read_csv_data
from mcor.io import _parse_column, bundled_fixture, read_checked_matrix, read_matrix
from oracles import (_parse_number, always_scaled_sample_sd, whole_file_checked_matrix,
                     whole_file_compare, whole_file_csv_data)
from support import assert_as_checked, assert_no_child_left

EPS = sys.float_info.epsilon

# Cells that reach every branch of the number parser and the CSV reader:
# non-finite and out-of-range tokens, subnormals, missing cells, quoting
# (with an embedded delimiter, quote and line break), text, a space and
# a no-break space.
HOSTILE_CELLS = [
    "nan", "NaN", "-nan", "inf", "-Infinity", "1e400", "-1e400", "5e-324",
    "2.2250738585072014e-308", "1e-310", "1e308", "NA", "", " ", "x", "1,5",
    '"0.5"', '"1,5"', '"a""b"', '"', '"1\n2"', "0x10", "1_0", "\u00a0",
]
NUMBERS = st.sampled_from(["0", "1", "-1", "0.25", "-0.5", "0.3", "1.0000000005", "2", "7.5"])
LINE_ENDINGS = ["\n", "\r\n", "\r"]
BOM = b"\xef\xbb\xbf"
NOT_UTF8 = [b"\xff", b"\xc3\x28", b"\xe2\x82", b"\xed\xa0\x80"]
ONE_IN_FOUR = st.sampled_from([False, False, False, True])


@st.composite
def hostile_csv(draw) -> bytes:
    """A CSV file as bytes: a square grid (unit diagonal, so some read as
    correlation matrices and some as data) or an empty or header-only
    file, then damaged by hostile cells, ragged rows, line endings, a
    byte-order mark (or, for an empty file, a cut-off one) and bytes that
    are not UTF-8."""
    d = draw(st.integers(2, 4))
    layout = draw(st.sampled_from(["grid", "grid", "grid", "empty", "header-only"]))
    header = [f"c{j}" for j in range(d)]
    rows = []
    if layout == "grid":
        upper = draw(st.lists(NUMBERS, min_size=d * d, max_size=d * d))
        rows = [["1" if i == j else upper[min(i, j) * d + max(i, j)] for j in range(d)]
                for i in range(d)]
        rows += draw(st.lists(st.lists(NUMBERS, min_size=d, max_size=d), max_size=3))
        for i, j, cell in draw(st.lists(
                st.tuples(st.integers(0, len(rows) - 1), st.integers(0, d - 1),
                          st.sampled_from(HOSTILE_CELLS)), max_size=2)):
            rows[i][j] = cell
        if draw(ONE_IN_FOUR):
            i = draw(st.integers(0, len(rows) - 1))
            rows[i] = rows[i][:-1] if draw(st.booleans()) else rows[i] + ["0"]
    if layout == "header-only" or (layout == "grid" and draw(st.booleans())):
        rows.insert(0, header)
    if layout == "grid" and draw(st.booleans()):
        rows.insert(draw(st.integers(0, len(rows))), [])  # a blank line
    newline = draw(st.sampled_from(LINE_ENDINGS))
    text = newline.join(",".join(row) for row in rows)
    if rows and draw(st.booleans()):
        text += newline
    data = text.encode("utf-8")
    if draw(st.booleans()):
        data = BOM + data
    elif not data and draw(ONE_IN_FOUR):
        data = BOM[:draw(st.integers(1, 2))]  # the whole file a cut-off mark
    if draw(ONE_IN_FOUR):
        at = draw(st.integers(0, len(data)))
        data = data[:at] + draw(st.sampled_from(NOT_UTF8)) + data[at:]
    return data


def _no_constant(token):
    raise ValueError(f"JSON holds {token}")


def cli_outcome(argv):
    """Exit code, stdout and stderr of one CLI run; an escaping exception
    fails the test."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def check_contract(argv):
    """Run the CLI once and check its output contract."""
    code, out, err = cli_outcome(argv)
    assert code in (0, 1, 2)
    if code:
        assert out == ""
        assert re.fullmatch(r"error: [A-Z_]+: [^\n]*\n", err), err
        assert err[:-1].isprintable(), err
    else:
        assert err == ""
        if "json" in argv:
            json.loads(out, parse_constant=_no_constant)


@settings(max_examples=60, deadline=None)
@given(hostile_csv(), hostile_csv())
@example(b'"1\n2",0\n0,1\n0,0', b"")  # a line break in a header name
def test_hostile_files_keep_the_cli_contract(tmp_path_factory, first, second):
    folder = tmp_path_factory.mktemp("hostile")
    path_a, path_b = folder / "a.csv", folder / "b.csv"
    path_a.write_bytes(first)
    path_b.write_bytes(second)
    a, b = str(path_a), str(path_b)
    for output in ("text", "json"):
        for argv in (["compute", a], ["compute", a, "--drop-na"], ["matrix", a],
                     ["validate", a], ["compare", a, b], ["compare", a, b, "--as", "data"]):
            check_contract([*argv, "--output", output])


# Cell texts near the edges of float()'s grammar: decimal digits of other
# scripts, signs and points alone, underscores, the separators str.strip
# drops and float() keeps, missing-value and non-finite tokens, and any text.
CELL_CORES = st.sampled_from([
    "0", "7", "-2.5", "+.5", "1e3", "\u0663", "\uff11", "\u0663.\u0665", "+", "-", ".",
    "1_000", "_1", "1_", "\x1c1.5", "", "NA", "x", "id1", "e5", "0x10", "inf", "-inf",
    "nan", "1e400", "5e-324",
])
PADDING = st.sampled_from(["", " ", "\t", "\n", "\x1c", "\x1f", "\u00a0", "\u3000"])
CELL_TEXTS = st.one_of(st.builds(lambda a, core, b: a + core + b, PADDING, CELL_CORES, PADDING),
                       st.text(max_size=4))


def fails_float(text: str) -> bool:
    try:
        float(text)
    except ValueError:
        return True
    return False


# Half the columns start with a cell float() rejects, the case in which
# _parse_column screens the column by its cells' first characters.
@settings(max_examples=300, deadline=None)
@given(st.booleans(), st.data())
def test_parse_column_matches_the_per_cell_rule(first_fails, data):
    head = CELL_TEXTS.filter(fails_float) if first_fails else CELL_TEXTS
    cells = [data.draw(head)] + data.draw(st.lists(CELL_TEXTS, max_size=6))
    expected = [_parse_number(c.strip()) for c in cells]
    values, bad = _parse_column(cells)
    assert bad == [i for i, v in enumerate(expected) if v is None]
    assert values == [0.0 if v is None else v for v in expected]


# Whitespace float() ignores, and the separators \x1c-\x1f it keeps but
# str.strip drops; a cell or header name is read as if it were stripped.
PADS = st.lists(st.sampled_from([" ", "\t", "\u00a0", "\u3000", "\x1c", "\x1d", "\x1e", "\x1f"]),
                max_size=2).map("".join)
DATA_CELLS = st.sampled_from(["0", "1", "-2.5", "3e1", "0.25", "7", "\u0663", "NA", "", "x",
                              "nan", "inf", "-inf", "1e400"])


@st.composite
def padded_data_csv(draw):
    """A small data CSV as text, plain and with every cell and header name
    padded, and the names of a column selection."""
    d = draw(st.integers(1, 3))
    header = [f"c{j}" for j in range(d)]
    body = draw(st.lists(st.lists(DATA_CELLS, min_size=d, max_size=d), max_size=5))
    rows = [header] + body
    padded = [[draw(PADS) + cell + draw(PADS) for cell in row] for row in rows]
    chosen = tuple(draw(st.lists(st.sampled_from(header), min_size=1, max_size=d, unique=True)))

    def text(grid):
        return "".join(",".join(row) + "\n" for row in grid)

    return text(rows), text(padded), chosen


def outcome(call, *args, **kwargs):
    """A call's result, or the type and message of the McorError it raised."""
    try:
        return call(*args, **kwargs)
    except McorError as exc:
        return type(exc), str(exc)


@settings(max_examples=100, deadline=None)
@given(padded_data_csv())
def test_padding_cells_and_names_changes_nothing(tmp_path_factory, csv_texts):
    plain, padded, chosen = csv_texts
    path = tmp_path_factory.mktemp("padded") / "d.csv"
    seen = []
    for text in (plain, padded):
        path.write_text(text, encoding="utf-8")
        p = str(path)
        seen.append([
            *(outcome(read_csv_data, path, columns, drop_na)
              for columns in (None, chosen) for drop_na in (False, True)),
            outcome(read_matrix, path),
            *(cli_outcome(argv) for argv in (["compute", p], ["compute", p, "--drop-na"],
                                              ["matrix", p])),
        ])
    assert seen[1] == seen[0]
    for result in seen[1][:4]:
        if isinstance(result, DataMatrix):
            assert_as_checked(result)


# Selections from a hostile_csv header: names it may hold, one it never
# holds, a name given twice and no name at all.
HOSTILE_SELECTIONS = st.one_of(
    st.none(), st.lists(st.sampled_from(["c0", "c1", "c2", "c3", "c9"]), max_size=3).map(tuple))


# Blocks of 1-3 rows make every file span blocks: a short row, a bad cell
# and a byte that is not UTF-8 each land in some block after the first.
@settings(max_examples=150, deadline=None)
@given(hostile_csv(), st.integers(1, 3), HOSTILE_SELECTIONS, st.booleans())
def test_block_reader_matches_the_whole_file_reader(tmp_path_factory, data, block_rows,
                                                     columns, drop_na):
    path = tmp_path_factory.mktemp("blocks") / "d.csv"
    path.write_bytes(data)
    expected = repr(outcome(whole_file_csv_data, path, columns, drop_na))
    with mock.patch("mcor.datafile._BLOCK_ROWS", block_rows):
        assert repr(outcome(read_csv_data, path, columns, drop_na)) == expected


# The split read forced onto every file (no size gate, 2 CPUs) against the
# serial read: the same DataMatrix to the bit (its repr shows every float
# exactly) or the same error, from the library and on the CLI's error line.
# A file the serial read accepts is split whenever _split_point cuts it.
@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(hostile_csv(), st.integers(1, 3), HOSTILE_SELECTIONS, st.booleans())
def test_split_read_matches_the_serial_read(tmp_path_factory, cpus, forks, data, block_rows,
                                            columns, drop_na):
    cpus(2)
    path = tmp_path_factory.mktemp("split") / "d.csv"
    path.write_bytes(data)
    argv = ["compute", str(path), *(["--drop-na"] if drop_na else [])]
    if columns:
        argv += ["--columns", ",".join(columns)]
    seen = []
    for split_bytes in (sys.maxsize, 0):
        forks.clear()
        with mock.patch("mcor.datafile._BLOCK_ROWS", block_rows), \
                mock.patch("mcor.datafile._SPLIT_BYTES", split_bytes):
            read = outcome(read_csv_data, path, columns, drop_na)
            seen.append((repr(read), cli_outcome(argv)))
            cut = _split_point(path)
    assert seen[1] == seen[0]
    if isinstance(read, DataMatrix) and cut is not None:
        assert len(forks) == 2  # the library read and the CLI's
    assert_no_child_left()


# The matrix reader keeps the values of at most as many rows as a square
# grid has, yet raises what holding every row first raised.
@settings(max_examples=150, deadline=None)
@given(hostile_csv())
def test_matrix_reader_matches_the_whole_file_reader(tmp_path_factory, data):
    path = tmp_path_factory.mktemp("matrix") / "m.csv"
    path.write_bytes(data)
    assert repr(outcome(read_checked_matrix, path)) == repr(
        outcome(whole_file_checked_matrix, path))


# compare streams each input and holds a file whole only while it is short
# enough to be a square grid; it must print what reading both files whole
# first printed, or the same one error line. B is sometimes missing, and
# sometimes a fixture that reads cleanly, so that A's kind shows.
@settings(max_examples=150, deadline=None)
@given(hostile_csv(),
       st.one_of(st.none(), st.just(bundled_fixture("tb_area2.csv").read_bytes()),
                 hostile_csv()),
       st.sampled_from([[], ["--as", "matrix"], ["--as", "data"]]), HOSTILE_SELECTIONS,
       st.booleans())
def test_compare_matches_the_whole_file_compare(tmp_path_factory, first, second, kind,
                                                columns, drop_na):
    folder = tmp_path_factory.mktemp("compare")
    path_a, path_b = folder / "a.csv", folder / "b.csv"
    path_a.write_bytes(first)
    if second is not None:
        path_b.write_bytes(second)
    argv = ["compare", str(path_a), str(path_b), *kind, *(["--drop-na"] if drop_na else [])]
    if columns:
        argv += ["--columns", ",".join(columns)]
    with mock.patch("mcor.cli._run_compare", whole_file_compare):
        expected = cli_outcome(argv)
    assert cli_outcome(argv) == expected


@st.composite
def broken_headed_grid(draw):
    """A k x k numeric grid under k names as CSV text, with one cell dropped
    from a data row after the first or one cell replaced by ``x``; whether
    a cell was dropped, and the file's number for the broken row."""
    k = draw(st.integers(2, 4))
    rows = [[f"c{j}" for j in range(k)]] + [
        [repr(draw(st.floats(-1e6, 1e6))) for _ in range(k)] for _ in range(k)]
    short = draw(st.booleans())
    i = draw(st.integers(2 if short else 1, k))
    if short:
        del rows[i][draw(st.integers(0, k - 1))]
    else:
        rows[i][draw(st.integers(0, k - 1))] = "x"
    return "".join(",".join(row) + "\n" for row in rows), short, i + 1


@settings(max_examples=100, deadline=None)
@given(broken_headed_grid())
def test_data_and_matrix_readers_number_rows_alike(tmp_path_factory, case):
    text, short, number = case
    path = tmp_path_factory.mktemp("rows") / "m.csv"
    path.write_text(text, encoding="utf-8")
    messages = []
    for read in (read_csv_data, read_matrix):
        with pytest.raises(ParseError) as info:
            read(path)
        messages.append(str(info.value))
    assert [re.match(r"row (\d+)[:,]", m).group(1) for m in messages] == [str(number)] * 2
    if short:
        assert messages[0] == messages[1]


# Invariance tolerances. The solver is backward stable: its eigenvalues are
# exact for R + E with ||E||_2 <= c d eps ||R||_2 (Golub & Van Loan §8.3),
# and ||R||_2 <= d for a correlation matrix, so by Weyl each eigenvalue is
# within c d^2 eps of the exact spectrum of the computed R. mcor = sd(l) /
# sqrt(d) moves by at most max|dl| / sqrt(d - 1) <= max|dl|. Two solves of
# matrices with one spectrum (a permutation or a sign flip of the columns
# permutes or negates computed entries exactly) therefore differ by at most
# 2 c d^2 eps; c = 10 also covers the rounding of sample_sd.
def solve_tol(d: int) -> float:
    return 20 * d * d * EPS


# A shift by s is not exact: each cell of x + s is rounded (error <= u |x + s|,
# u = eps / 2), and centring rounds the mean and each difference, so every
# centred value is within 4u max|x + s| of its exact value, and likewise
# 4u max|x| unshifted. r = <a/|a|, b/|b|> of centred columns a, b moves by at
# most 2|e_a| / |a| + 2|e_b| / |b| when they move by e_a, e_b, with
# |e| <= sqrt(n) * (per-value error). The exact coefficient is the RMS of the
# off-diagonal entries, which moves by at most max|dr|.
def shift_tol(columns, shift: float) -> float:
    n = len(columns[0])
    spread = min(math.sqrt(fsum((v - fmean(col)) ** 2 for v in col)) for col in columns)
    biggest = max(abs(v) for col in columns for v in col)
    per_value = 2 * EPS * (biggest + abs(shift)) + 2 * EPS * biggest
    return solve_tol(len(columns)) + 4 * math.sqrt(n) * per_value / spread + 3 * EPS


# Hundredths in [-100, 100]: varied but clear of underflow and overflow.
CENTI = st.integers(-10_000, 10_000).map(lambda k: k / 100.0)


@st.composite
def data_columns(draw, min_d=2, max_d=5):
    d = draw(st.integers(min_d, max_d))
    n = draw(st.integers(3, 12))
    columns = draw(st.lists(st.lists(CENTI, min_size=n, max_size=n), min_size=d, max_size=d))
    assume(all(len(set(col)) > 1 for col in columns))
    return columns


def coefficient(columns) -> float:
    return mcor(DataMatrix.from_columns(columns)).mcor


@settings(max_examples=50, deadline=None)
@given(st.data())
def test_column_permutation_invariance(data):
    columns = data.draw(data_columns())
    order = data.draw(st.permutations(range(len(columns))))
    permuted = [columns[j] for j in order]
    assert abs(coefficient(permuted) - coefficient(columns)) <= solve_tol(len(columns))


@settings(max_examples=50, deadline=None)
@given(st.data())
def test_sign_flip_invariance(data):
    columns = data.draw(data_columns())
    flips = data.draw(st.lists(st.booleans(), min_size=len(columns), max_size=len(columns)))
    flipped = [[-v for v in col] if flip else col for col, flip in zip(columns, flips)]
    assert abs(coefficient(flipped) - coefficient(columns)) <= solve_tol(len(columns))


@settings(max_examples=50, deadline=None)
@given(data_columns(), st.floats(-1e6, 1e6, allow_subnormal=False))
def test_shift_invariance(columns, shift):
    shifted = [[v + shift for v in col] for col in columns]
    assume(all(len(set(col)) > 1 for col in shifted))
    assert abs(coefficient(shifted) - coefficient(columns)) <= shift_tol(columns, shift)


@settings(max_examples=50, deadline=None)
@given(data_columns(min_d=2, max_d=2))
def test_two_columns_give_abs_pearson_r(columns):
    # Eigenvalues 1 +- r, whose sd over sqrt(2) is |r|.
    assert abs(coefficient(columns) - abs(pearson_r(*columns))) <= solve_tol(2)


# Finite doubles over the whole range, subnormals included.
FULL_RANGE = st.floats(allow_nan=False, allow_infinity=False)


def full_range_lists(min_size, max_size):
    return st.lists(FULL_RANGE, min_size=min_size, max_size=max_size)


DIAGONAL = {i * (i + 3) // 2 for i in range(4)}  # positions of (i, i) in a lower triangle


def symmetric_matrices(entries=FULL_RANGE, min_dim=1, unit_diagonal=False):
    """d x d matrices, min_dim <= d <= 4, from a lower triangle of ``entries``."""
    def build(d):
        return st.lists(entries, min_size=d * (d + 1) // 2, max_size=d * (d + 1) // 2).map(
            lambda tri: make_symmetric(d, [1.0 if unit_diagonal and k in DIAGONAL else v
                                           for k, v in enumerate(tri)]))
    return st.integers(min_dim, 4).flatmap(build)


PAIRS = st.integers(2, 5).flatmap(lambda n: st.tuples(full_range_lists(n, n),
                                                       full_range_lists(n, n)))
DATA = st.tuples(st.integers(2, 3), st.integers(2, 5)).flatmap(
    lambda dn: st.lists(full_range_lists(dn[1], dn[1]), min_size=dn[0], max_size=dn[0]))

# Each exported numeric function with inputs that reach its checks and its
# arithmetic: correlation-like matrices mix entries in [-1, 1] with any double.
NUMERIC_CALLS = {
    "sample_sd": (full_range_lists(2, 6), sample_sd),
    "mcor_from_spectrum": (full_range_lists(2, 5), mcor_from_spectrum),
    "john_sphericity": (full_range_lists(2, 5), john_sphericity),
    "rescaled_sphericity": (full_range_lists(2, 5), rescaled_sphericity),
    "eigenvalues_symmetric": (symmetric_matrices(), eigenvalues_symmetric),
    "pearson_r": (PAIRS, lambda xy: pearson_r(*xy)),
    "mcor": (DATA, lambda columns: mcor(DataMatrix.from_columns(columns))),
    "mcor_from_matrix": (
        symmetric_matrices(st.one_of(st.floats(-1.0, 1.0), FULL_RANGE), 2, unit_diagonal=True),
        mcor_from_matrix),
}


def floats_in(result):
    """Every float in a result: a float, or a record or tuple holding some."""
    if isinstance(result, float):
        yield result
    elif isinstance(result, tuple):
        for item in result:
            yield from floats_in(item)


@pytest.mark.parametrize("name", NUMERIC_CALLS)
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_full_range_input_gives_finite_floats_or_an_mcor_error(name, data):
    strategy, call = NUMERIC_CALLS[name]
    argument = data.draw(strategy)
    try:
        result = call(argument)
    except McorError:
        return
    assert all(map(math.isfinite, floats_in(result))), result


def no_farther_from_exact(xs, new: float, old: float) -> bool:
    """Whether ``new`` is at most as far as ``old`` from the exact sample sd
    of ``xs``: sqrt(q), q the exact variance, lies on new's side of their
    midpoint (or on it)."""
    if new == old:
        return True
    exact = [Fraction(v) for v in xs]
    mean = sum(exact) / len(exact)
    q = sum((v - mean) ** 2 for v in exact) / (len(exact) - 1)
    mid = (Fraction(new) + Fraction(old)) / 2
    return q <= mid * mid if new < old else q >= mid * mid


U53 = Fraction(1, 2**53)  # the unit roundoff u


def sd_error_bound_in_ulps(xs, r: float) -> Fraction:
    """B such that r = sample_sd(xs) lies within B * ulp(r) of the exact
    sample sd sigma of a list that is not constant.

    With m values of exact mean mu and S = sum((x - mu)**2), so that
    sigma**2 = S / (m - 1), sample_sd centres a copy scaled by a power of
    two, or none (exact but for bits below 2**-1074), and rounds:
    - the mean twice, fsum and the division by m, so it is mu + e with
      |e| <= E = (2u + u**2)|mu|;
    - then the differences x - (mu + e), whose exact squares sum to
      S + m*e**2, since the x - mu sum to 0;
    - on the way to r**2 seven times, each a factor in [1 - u, 1 + u]: a
      difference (twice, as it is squared), the square, fsum, the division
      by m - 1 and the square root (twice).
    So (1 - u)**3.5 sigma <= r <= (1 + u)**3.5 sigma sqrt(1 + t), where
    t = m E**2 / S. With (1 + u)**3.5 and (1 - u)**-3.5 both below 1 + 4u
    and sqrt(1 + t) <= 1 + t/2:
    - r - sigma <= sigma (4u + t/2 + 2ut) and sigma - r <= 3.5u sigma;
    - sigma <= (1 + 4u) r < (1 + 4u) ulp(r) / u, as r < 2**(k+1) with
      ulp(r) = 2**(k-52).
    Hence |r - sigma| <= (1 + 4u)(4 + (1/(2u) + 2) t) ulps. A result at or
    below the smallest normal double may round once more as it is
    unscaled, by at most half an ulp. What underflow costs elsewhere, in a
    subnormal mean, square or scaled value, is below 2**-500 relative, well
    inside the u/2 slack of (1 + u)**3.5 <= 1 + 4u. The bound is about
    4 + 2u m mu**2 / S ulps: near 4 where the mean is no larger than the
    spread, and large only where centring on a rounded mean costs bits.
    """
    exact = [Fraction(v) for v in xs]
    m = len(exact)
    mu = sum(exact) / m
    big_s = sum((v - mu) ** 2 for v in exact)
    t = m * ((2 * U53 + U53**2) * abs(mu)) ** 2 / big_s
    subnormal = Fraction(1, 2) if r <= sys.float_info.min else 0
    return (1 + 4 * U53) * (4 + (1 / (2 * U53) + 2) * t) + subnormal


def within_ulps_of_exact(xs, r: float, bound: Fraction) -> bool:
    """Whether |r - sigma| <= bound * ulp(r), sigma the exact sample sd of
    ``xs``, decided on squares in exact arithmetic."""
    exact = [Fraction(v) for v in xs]
    mu = sum(exact) / len(exact)
    q = sum((v - mu) ** 2 for v in exact) / (len(exact) - 1)  # sigma**2
    reach = bound * Fraction(math.ulp(r))
    lo, hi = Fraction(r) - reach, Fraction(r) + reach
    return hi >= 0 and q <= hi * hi and (lo <= 0 or lo * lo <= q)


# The second list was found by --hypothesis-seed=50: the subnormal breaks an
# fsum rounding tie, so the mean comes out 1 ulp high and sample_sd lands
# 1 ulp below the correctly rounded sd, within the bound.
@settings(max_examples=300, deadline=None)
@given(full_range_lists(2, 8))
@example([0.0, -1.8399939228124924e16, -4.111003532977332e16, -2.2250738585e-313])
@example([128.0, 6.00397317127964e+16, 6.6505156834175384e+16, 6.6505156834175384e+16,
          2.2250738585e-313, -3.176707029517461e+16])
def test_sample_sd_is_within_its_ulp_bound_of_exact(xs):
    assume(min(xs) != max(xs))  # a constant list has no relative bound
    try:
        r = sample_sd(xs)
    except McorError:  # past the float range
        return
    assert within_ulps_of_exact(xs, r, sd_error_bound_in_ulps(xs, r))


def test_the_ulp_bound_rejects_a_result_5_ulps_off():
    # Seed 50's list: r is 1 ulp below the correctly rounded sd (0.67 ulp
    # below the exact one), and the bound there is just over 4 ulps.
    xs = [128.0, 6.00397317127964e+16, 6.6505156834175384e+16, 6.6505156834175384e+16,
          2.2250738585e-313, -3.176707029517461e+16]
    r = sample_sd(xs)
    assert r == 4.271866469884699e16 and math.nextafter(r, math.inf) == 4.2718664698847e16
    bound = sd_error_bound_in_ulps(xs, r)
    assert 4 < bound < 4 + 2**-40
    assert within_ulps_of_exact(xs, r, Fraction(1))
    assert not within_ulps_of_exact(xs, r + 5 * math.ulp(r), bound)
    assert not within_ulps_of_exact(xs, r - 5 * math.ulp(r), bound)


def test_sample_sd_rounds_correctly_where_always_scaling_does_not():
    xs = [0.0, -1.8399939228124924e16, -4.111003532977332e16, -2.2250738585e-313]
    assert sample_sd(xs) == 1.952121495914532e16
    assert always_scaled_sample_sd(xs) == 1.9521214959145316e16
    assert no_farther_from_exact(xs, 1.952121495914532e16, 1.9521214959145316e16)
    assert not no_farther_from_exact(xs, 1.9521214959145316e16, 1.952121495914532e16)
