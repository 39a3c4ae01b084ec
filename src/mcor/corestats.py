"""Pearson correlation, sample correlation matrices, sample standard deviation.

All moments are two-pass (means first, then centered sums) with exact
summation via math.fsum; n is small in this domain and robustness beats
speed. Constant columns are a hard error: a correlation is undefined for
them and failing loudly beats emitting a misleading number.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from math import fsum
from operator import mul
from typing import NamedTuple

from .errors import (
    BadArguments,
    LengthMismatch,
    NonFiniteEntry,
    TooFewRows,
    TooFewValues,
    ZeroVariance,
)
from .linalg import (CLAMP_EPS, SymmetricMatrix, _all_finite, _clamp, _first_non_finite, _scaled,
                     _unscale, make_symmetric)


class DataMatrix(NamedTuple):
    """n observations by d variables of finite real measurements, stored
    by column: ``columns[j]`` holds the n values of variable j."""

    n_obs: int
    n_vars: int
    columns: tuple[tuple[float, ...], ...]
    var_names: tuple[str, ...]

    @classmethod
    def from_columns(
        cls,
        columns: Sequence[Sequence[float]],
        var_names: Sequence[str] | None = None,
    ) -> "DataMatrix":
        """Validate columns into a DataMatrix (d >= 1, n >= 2, equal
        lengths, finite). Every producer of a DataMatrix goes through here,
        except the ones whose values are finite floats by construction."""
        # Shape first, so that a short or ragged input is named as such even
        # when it also holds a non-finite value.
        _shape(columns)
        if not all(map(_all_finite, columns)):
            # Name the first offender in row-major order, as a reader of rows would.
            i, j = _first_non_finite(zip(*columns))
            raise NonFiniteEntry(f"row {i + 1}, column {j + 1} is not finite")
        if var_names is None:
            var_names = [f"v{j + 1}" for j in range(len(columns))]
        return cls._from_finite(tuple(tuple(map(float, col)) for col in columns),
                                tuple(str(name) for name in var_names))

    @classmethod
    def _from_finite(
        cls,
        columns: tuple[tuple[float, ...], ...],
        var_names: tuple[str, ...],
    ) -> "DataMatrix":
        """A DataMatrix of columns that are tuples of finite floats and one
        name per column. Only the shape is checked: the values are taken
        as they are, neither checked nor copied."""
        n = _shape(columns)
        if len(var_names) != len(columns):
            raise LengthMismatch(
                f"got {len(var_names)} variable names for {len(columns)} columns"
            )
        return cls(n_obs=n, n_vars=len(columns), columns=columns, var_names=var_names)

    @property
    def values(self) -> tuple[tuple[float, ...], ...]:
        """Row view: n tuples of d values, rebuilt on each access."""
        return tuple(zip(*self.columns))

    def column(self, j: int) -> list[float]:
        return list(self.columns[j])


def _shape(columns: Sequence[Sequence[float]]) -> int:
    """n of d >= 1 columns holding n >= 2 values each."""
    if len(columns) < 1:
        raise BadArguments("rows must have at least one column")
    n = len(columns[0])
    if n < 2:
        raise TooFewRows(f"need at least 2 observations, got {n}")
    for j, col in enumerate(columns):
        if len(col) != n:
            raise LengthMismatch(
                f"column {j + 1} has {len(col)} values, expected {n}"
            )
    return n


def make_data_matrix(
    rows: Sequence[Sequence[float]],
    var_names: Sequence[str] | None = None,
) -> DataMatrix:
    """Validate raw rows into a DataMatrix (n >= 2, rectangular, finite)."""
    n = len(rows)
    if n < 2:
        raise TooFewRows(f"need at least 2 observations, got {n}")
    d = len(rows[0])
    for i, row in enumerate(rows):
        if len(row) != d:
            raise LengthMismatch(f"row {i + 1} has {len(row)} cells, expected {d}")
    return DataMatrix.from_columns(list(zip(*rows)), var_names)


def _centered(xs: Sequence[float]) -> tuple[list[float], float, int]:
    """Centred values, their sum of squares, and the shift: ``xs`` times
    2**-shift is what was centred.

    ``xs`` is centred as it is (shift 0) unless a sum overflows or the sum
    of squares leaves [2**-500, 2**500]; then the copy from ``_scaled``,
    largest |value| in [0.5, 1), is centred instead. The scaling loses no
    bit above 2**-1074 and a correlation does not depend on it. A scaled
    non-constant series varies by at least 2**-54 about its mean, so its
    sum of squares lies in [2**-108, 4n]. Either way the product of two
    sums, the square of a correlation's denominator, is a normal double.
    """
    values, shift = xs, 0
    while True:
        try:
            mean = fsum(values) / len(values)
            centered = [x - mean for x in values]
            sum_sq = fsum(map(mul, centered, centered))
        except OverflowError:  # fsum's partial sums passed the float maximum
            sum_sq = math.inf
        # A scaled copy (a new list) cannot overflow and is kept as it comes.
        if values is not xs or 2.0**-500 <= sum_sq <= 2.0**500:
            return centered, sum_sq, shift
        values, shift = _scaled(xs)


# Forking pays when the products it takes off this process outweigh its
# cost: about 1.7 ms, plus a page copy for each value that both processes
# read (a read writes the value's reference count), about half a
# product's time. With two workers each process computes about half of
# the n * pairs products and reads about all n * d values, so the saving
# grows with n * (pairs - d). At d = 3 that is 0: the parent keeps one
# pair of three and waits for the child's two. Timed on a 2-CPU host
# (medians of 21 alternating runs), forking lost at every d from 4 to 20
# with n * (pairs - d) = 50 000 and won at every one with 100 000; at
# d = 3 it lost at every n up to 300 000.
_FORK_SAVING = 100_000


def correlation_matrix(data: DataMatrix) -> SymmetricMatrix:
    """d x d sample correlation matrix with an exactly-unit diagonal.

    Only the lower triangle is computed, and kept; raises ZeroVariance
    naming the first constant column found. When ``n * (pairs - d)``
    reaches ``_FORK_SAVING``, the dot products run in
    ``parallel.chunk_map``: each is the same exact ``fsum`` of the same
    rounded products, so the matrix is the same to the bit.
    """
    d = data.n_vars
    for col, name in zip(data.columns, data.var_names):
        if col.count(col[0]) == len(col):
            raise ZeroVariance(f"column {name}")
    moments = [_centered(col) for col in data.columns]
    pairs = [(i, j) for i in range(d) for j in range(i)]

    def dot(k: int) -> float:
        i, j = pairs[k]
        return fsum(map(mul, moments[i][0], moments[j][0]))

    if data.n_obs * (len(pairs) - d) < _FORK_SAVING:
        dots = map(dot, range(len(pairs)))
    else:
        from .parallel import chunk_map  # not loaded by import mcor.cli
        dots = iter(chunk_map(dot, len(pairs)))
    tri = []
    for i in range(d):
        sxx = moments[i][1]
        for j in range(i):
            # One sqrt of the product loses less than a product of two sqrts
            # and keeps exactly-linear integer data at exactly +-1. _centered
            # keeps the product a normal double, and Cauchy-Schwarz bounds
            # the numerator by its root, so r is finite.
            r = next(dots) / math.sqrt(sxx * moments[j][1])
            tri.append(_clamp(r, -1.0, 1.0, "correlation", CLAMP_EPS))
        tri.append(1.0)
    return make_symmetric(d, tri)


def pearson_r(x: Sequence[float], y: Sequence[float]) -> float:
    """Pearson correlation of two equal-length series: entry (2, 1) of the
    correlation matrix of columns ``x`` and ``y``, with its checks, errors
    and CLAMP_EPS clamp onto [-1, 1]."""
    return correlation_matrix(DataMatrix.from_columns((x, y), ("x", "y"))).lower[1][0]


def sample_sd(xs: Sequence[float]) -> float:
    """Sample standard deviation with the m-1 denominator.

    The centred sum of squares comes from ``_centered``, which scales the
    values by a power of two only when a sum would overflow or the sum of
    squares leave [2**-500, 2**500]; the scaling is undone on the result,
    and a result beyond the float range raises NonFiniteEntry.
    """
    m = len(xs)
    if m < 2:
        raise TooFewValues(f"standard deviation needs at least 2 values, got {m}")
    if not _all_finite(xs):
        raise NonFiniteEntry("value list contains a non-finite entry")
    return _sd(xs)


def _sd(xs: Sequence[float]) -> float:
    """``sample_sd`` of at least two finite values, which are not checked."""
    _, sum_sq, shift = _centered(xs)
    return _unscale(math.sqrt(sum_sq / (len(xs) - 1)), shift, "standard deviation")
