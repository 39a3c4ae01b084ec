"""Independent verification routes used by the tests.

No numeric route here touches the package's eigensolver (only
``whole_file_compare``, an oracle of how files are read, does):
eigenvalues come from bisection on the characteristic polynomial
det(M - x*I), whose coefficients are computed by cofactor expansion
(memoized on the active column subset, expanding along the first
remaining row). A second route, the off-diagonal root-mean-square
identity, checks the coefficient value without any eigensolver at all.
A third, for a given spectrum, computes the coefficient in exact
rational arithmetic (``fractions``) followed by one high-precision
``decimal`` square root, so it carries no float rounding.

``always_scaled_sample_sd`` is an earlier ``sample_sd`` formula, kept as a
reference: it scales every list by a power of two before centring, where
the package scales only when a sum would overflow. ``full_square_norm_sq``
is one sum over all d*d scaled squares of the full matrix, which
``full_square`` rebuilds from the lower triangle the package holds, and
``trace`` sums its diagonal in ``fractions``: the two sides of the
eigensolver's Frobenius and trace identities.

``_parse_number`` is the per-cell number rule (finite float() results
only) that the package's column parser ``io._parse_column`` must match on
each cell as ``str.strip`` leaves it. ``whole_file_csv_data`` is the
earlier data-file reader, which held every cell of the file before it
checked a width or parsed a column; the package's block reader must build
the same DataMatrix or raise the same error. ``whole_file_checked_matrix``
is the earlier matrix-file reader, which held every row before it checked
one; the package's reader, which keeps the values of at most as many rows
as a square grid has, must raise the same error. ``whole_file_compare`` is
the earlier ``compare``, which read both files whole before it judged
either; ``compare``, which streams each input, must print what it prints.

``ScalarSplitMix64`` is the seeded generator written one word at a time,
straight from the description in the package's ``rng`` docstring, so the
package's block-mixed stream can be checked against it. ``unmix64`` runs
its output finalizer backwards, so a test can pick the seed whose stream
starts with a given word.
"""

from __future__ import annotations

import csv
import math
from decimal import Context
from fractions import Fraction
from io import StringIO
from itertools import compress
from math import fsum
from unittest import mock

from mcor import cli
from mcor.cli import _run_compare
from mcor.corestats import DataMatrix
from mcor.errors import (BadArguments, EmptySelection, FileError, NotSquare, ParseError,
                         TooFewRows)
from mcor.io import _checked_matrix, _parse_column
from mcor.multiway import mcor, mcor_from_matrix


def char_poly(rows) -> list[float]:
    """Ascending coefficients of det(M - x*I) via cofactor expansion."""
    d = len(rows)
    memo: dict[tuple[int, ...], list[float]] = {}

    def det(cols: tuple[int, ...]) -> list[float]:
        cached = memo.get(cols)
        if cached is not None:
            return cached
        r = d - len(cols)  # expand along the first row not yet consumed
        if len(cols) == 1:
            c = cols[0]
            poly = [rows[r][c], -1.0] if r == c else [rows[r][c]]
            memo[cols] = poly
            return poly
        out = [0.0] * (len(cols) + 1)
        sign = 1.0
        for k, c in enumerate(cols):
            sub = det(cols[:k] + cols[k + 1 :])
            entry = (rows[r][c], -1.0) if r == c else (rows[r][c],)
            for i, ec in enumerate(entry):
                if ec == 0.0:
                    continue
                factor = sign * ec
                for j, sc in enumerate(sub):
                    out[i + j] += factor * sc
            sign = -sign
        memo[cols] = out
        return out

    return det(tuple(range(d)))


def _poly_eval(coeffs, x: float) -> float:
    acc = 0.0
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def eig_bisect(rows, grid: int = 4096) -> list[float]:
    """All eigenvalues of a symmetric matrix, descending, by sign-change
    bisection on the characteristic polynomial.

    Brackets come from a scan of the Gershgorin interval; the scan is
    refined until d sign changes are found, so the routine requires
    distinct eigenvalues (any multiple root makes it fail loudly).
    """
    d = len(rows)
    poly = char_poly(rows)
    radius = [fsum(abs(v) for j, v in enumerate(row) if j != i) for i, row in enumerate(rows)]
    lo = min(rows[i][i] - radius[i] for i in range(d)) - 1e-9
    hi = max(rows[i][i] + radius[i] for i in range(d)) + 1e-9
    scale = max(1.0, abs(lo), abs(hi))

    points = grid
    for _ in range(6):
        xs = [lo + (hi - lo) * t / points for t in range(points + 1)]
        fs = [_poly_eval(poly, x) for x in xs]
        brackets = [
            (xs[i], xs[i + 1], fs[i], fs[i + 1])
            for i in range(points)
            if fs[i] == 0.0 or fs[i] * fs[i + 1] < 0.0
        ]
        if len(brackets) >= d:
            break
        points *= 4
    if len(brackets) != d:
        raise AssertionError(
            f"bisection oracle found {len(brackets)} sign changes, expected {d} "
            "(multiple or clustered eigenvalues?)"
        )

    roots = []
    for a, b, fa, _fb in brackets:
        if fa == 0.0:
            roots.append(a)
            continue
        for _ in range(200):
            mid = 0.5 * (a + b)
            fm = _poly_eval(poly, mid)
            if fm == 0.0 or (b - a) <= 1e-15 * scale:
                a = b = mid
                break
            if fa * fm < 0.0:
                b = mid
            else:
                a, fa = mid, fm
        roots.append(0.5 * (a + b))
    return sorted(roots, reverse=True)


def oracle_mcor(rows) -> float:
    """Coefficient from the bisection spectrum (sample sd over sqrt(d))."""
    lam = eig_bisect(rows)
    d = len(lam)
    mean = fsum(lam) / d
    sd = math.sqrt(fsum((v - mean) ** 2 for v in lam) / (d - 1))
    return sd / math.sqrt(d)


def rms_mcor(lower) -> float:
    """Eigensolver-free identity: for a unit-diagonal d x d matrix the
    coefficient equals the RMS of the d(d-1)/2 off-diagonal entries, here
    read from its lower triangle (row i holds entries (i, 0) ... (i, i))."""
    offs = [v for row in lower for v in row[:-1]]
    return math.sqrt(fsum(v * v for v in offs) / len(offs))


def full_square(lower) -> list[list[float]]:
    """The d x d matrix whose lower triangle is ``lower``: entry (i, j) is
    ``lower[max(i, j)][min(i, j)]``."""
    d = len(lower)
    return [[lower[max(i, j)][min(i, j)] for j in range(d)] for i in range(d)]


def full_square_norm_sq(lower) -> float:
    """Sum of squares of all d*d entries of ``full_square(lower)``: one fsum
    of the squares of the entries scaled by the power of two that brings the
    largest |entry| into [0.5, 1), unscaled at the end; OverflowError if the
    result is past the float range."""
    entries = [v for row in full_square(lower) for v in row]
    shift = math.frexp(max(map(abs, entries)))[1]
    scaled = [math.ldexp(v, -shift) for v in entries]
    return math.ldexp(fsum(v * v for v in scaled), 2 * shift)


def trace(lower) -> float:
    """Sum of the diagonal entries of the matrix whose lower triangle is
    ``lower``, exact in ``fractions`` and rounded once to float."""
    return float(sum(Fraction(row[-1]) for row in lower))


def exact_spectrum_mcor(values) -> float:
    """Coefficient of a spectrum, sample sd over sqrt(d), without float
    arithmetic.

    Each float is taken at its exact binary value; the mean and the
    d - 1 variance are exact fractions, and variance / d and its square
    root are carried to 40 significant digits before the one rounding to
    float.
    """
    lam = [Fraction(v) for v in values]
    d = len(lam)
    mean = sum(lam) / d
    q = sum((v - mean) ** 2 for v in lam) / (d - 1) / d
    ctx = Context(prec=40)
    return float(ctx.divide(q.numerator, q.denominator).sqrt(ctx))


def always_scaled_sample_sd(xs) -> float:
    """Sample sd (m - 1 denominator) of ``xs`` scaled by the power of two
    that brings the largest |value| into [0.5, 1), unscaled at the end;
    OverflowError if the result is past the float range."""
    shift = math.frexp(max(map(abs, xs)))[1]
    scaled = [math.ldexp(v, -shift) for v in xs]
    mean = fsum(scaled) / len(scaled)
    centered = [v - mean for v in scaled]
    return math.ldexp(math.sqrt(fsum(c * c for c in centered) / (len(xs) - 1)), shift)


def _parse_number(token: str) -> float | None:
    try:
        value = float(token)
    except ValueError:
        return None
    return value if math.isfinite(value) else None


def _whole_file_cells(path) -> list[list[str]]:
    """The non-blank rows of the file at ``path``, its bytes decoded at
    once: a byte that is not UTF-8 is placed by its offset in the file, a
    leading byte-order mark counted, and the mark is dropped after."""
    try:
        with open(path, "rb") as handle:
            data = handle.read()
    except OSError as exc:
        raise FileError(f"cannot read {path}: {exc}") from exc
    try:
        text = data.decode("utf-8").removeprefix("\ufeff")
    except UnicodeDecodeError as exc:
        raise FileError(f"{path} is not valid UTF-8: {exc}") from exc
    reader = csv.reader(StringIO(text, newline=""))
    try:
        return [row for row in reader if row[1:] or row and row[0].strip()]
    except csv.Error as exc:
        raise ParseError(f"{path}, line {reader.line_num}: {exc}") from None


def whole_file_csv_data(path, columns=None, drop_na: bool = False, cells=None) -> DataMatrix:
    """The data-file reader that reads every cell first: all decode and
    ``csv`` errors, then every row's width, then ``columns``, then the
    first bad cell in row-major order. ``cells`` are the file's rows, if
    they have been read already."""
    cells = _whole_file_cells(path) if cells is None else cells
    if not cells:
        raise ParseError(f"{path} is empty")
    header = [name.strip() for name in cells[0]]
    body = cells[1:]
    for number, row in enumerate(body, 2):
        if len(row) != len(header):
            raise ParseError(f"row {number}: expected {len(header)} cells, found {len(row)}")
    by_column = list(zip(*body)) if body else [()] * len(header)
    if columns is not None:
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
        selected = [header.index(name) for name in columns]
        parsed = {j: _parse_column(by_column[j]) for j in selected}
    else:
        parsed = {j: column for j, column in enumerate(map(_parse_column, by_column))
                  if len(column[1]) < len(body) or not body}
        selected = list(parsed)
    if not selected:
        raise EmptySelection("no numeric columns to select")
    bad_rows = set()
    for j in selected:
        bad_rows.update(parsed[j][1])
    if bad_rows and not drop_na:
        i = min(bad_rows)
        j = next(j for j in selected if i in parsed[j][1])
        raise ParseError(
            f"row {i + 2}, column {header[j]}: cannot use cell {body[i][j].strip()!r}")
    keep = [i not in bad_rows for i in range(len(body))]
    frozen = tuple(tuple(compress(parsed[j][0], keep)) for j in selected)
    n = len(frozen[0])
    if bad_rows and n < 2:
        raise TooFewRows(f"{n} usable rows after deletion, need at least 2")
    return DataMatrix._from_finite(frozen, tuple(header[j] for j in selected))


def whole_file_checked_matrix(path, rows=None):
    """The matrix-file reader that held every row first: all decode and
    ``csv`` errors, then every row's width, then the first bad cell in row
    order, then a grid that is not square; then the package's
    ``_checked_matrix`` of those rows. ``rows`` are the file's rows, if
    they have been read already."""
    rows = _whole_file_cells(path) if rows is None else rows
    if not rows:
        raise ParseError(f"{path} is empty")
    first = 2 if _parse_column(rows[0])[1] else 1
    grid = rows[first - 1:]
    if not grid:
        raise ParseError(f"{path} has a header but no rows")
    width = len(grid[0])
    for number, row in enumerate(grid, first):
        if len(row) != width:
            raise ParseError(f"row {number}: expected {width} cells, found {len(row)}")
    for number, row in enumerate(grid, first):
        bad = _parse_column(row)[1]
        if bad:
            raise ParseError(f"row {number}, column {bad[0] + 1}: "
                             f"cannot parse {row[bad[0]].strip()!r}")
    if len(grid) != width:
        raise NotSquare(f"{len(grid)} rows x {width} columns")
    return _checked_matrix(path, rows)


def whole_file_compare(args):
    """``cli._run_compare`` reading both files whole before it judges
    either: the decode and ``csv`` errors of A, then of B, come first.
    Each input is then classified from its cells, A first: unless ``--as``
    sets the kind, a square numeric grid with a unit diagonal is a matrix
    and anything else, a grid that fails to parse included, is data. It
    checks how files are read and classified, so its reports come from
    the package's own ``mcor`` and ``mcor_from_matrix``."""
    cells = {path: _whole_file_cells(path) for path in (args.path_a, args.path_b)}

    def compare_input(path, args):
        if args.as_kind != "data":
            try:
                checked = whole_file_checked_matrix(path, cells[path])
            except (ParseError, NotSquare):
                if args.as_kind == "matrix":
                    raise
            else:
                if args.as_kind == "matrix" or checked.unit_diagonal:
                    return "matrix", mcor_from_matrix(checked.symmetric_matrix())
        return "data", mcor(whole_file_csv_data(path, args.columns, args.drop_na, cells[path]))

    with mock.patch.object(cli, "_compare_input", compare_input):
        return _run_compare(args)


class ScalarSplitMix64:
    """SplitMix64 with uniform and polar-normal variates, one word at a time.

    The state advances by 0x9E3779B97F4A7C15 modulo 2**64; an output word
    is the new state through two xor-shift-multiply rounds (multipliers
    0xBF58476D1CE4E5B9 and 0x94D049BB133111EB, shifts 30/27/31). A uniform
    is (top 53 bits + 0.5) * 2**-53. A normal is Marsaglia's polar method
    on consecutive uniforms, returning v1 * factor and keeping v2 * factor
    for the next call.
    """

    def __init__(self, seed: int):
        self.state = seed % 2**64
        self.spare = None

    def next_u64(self) -> int:
        self.state = (self.state + 0x9E3779B97F4A7C15) % 2**64
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) % 2**64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) % 2**64
        return z ^ (z >> 31)

    def uniform(self) -> float:
        return ((self.next_u64() >> 11) + 0.5) * 2.0**-53

    def uniforms(self, count: int) -> list[float]:
        return [self.uniform() for _ in range(count)]

    def normal(self) -> float:
        if self.spare is not None:
            value, self.spare = self.spare, None
            return value
        while True:
            v1 = 2.0 * self.uniform() - 1.0
            v2 = 2.0 * self.uniform() - 1.0
            s = v1 * v1 + v2 * v2
            if 0.0 < s < 1.0:
                factor = math.sqrt(-2.0 * math.log(s) / s)
                self.spare = v2 * factor
                return v1 * factor


def _unxorshift(z: int, shift: int) -> int:
    """x from z = x ^ (x >> shift), for 64-bit x: z ^ (z >> shift) ^
    (z >> 2*shift) ^ ... telescopes back to x."""
    x = z
    for k in range(shift, 64, shift):
        x ^= z >> k
    return x


def unmix64(word: int) -> int:
    """The state that the SplitMix64 output finalizer maps to ``word``: its
    three xor-shifts and two multiplications undone in reverse order."""
    z = _unxorshift(word, 31)
    z = _unxorshift(z * pow(0x94D049BB133111EB, -1, 2**64) % 2**64, 27)
    return _unxorshift(z * pow(0xBF58476D1CE4E5B9, -1, 2**64) % 2**64, 30)
