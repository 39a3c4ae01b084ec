"""Pearson correlation, sample correlation matrices, sample standard deviation.

All moments are two-pass (means first, then centered sums) with exact
summation via math.fsum: accuracy is kept over speed at every n, and
tall inputs get their speed from running the products in forked
processes instead. Constant columns are a hard error: a correlation is
undefined for them and failing loudly beats emitting a misleading
number.
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


def _deviations(values: Sequence[float]) -> list[float]:
    """``values`` minus their mean, ``fsum(values) / n``; no values when
    that sum overflows, so that their sum of squares, 0, sends the caller
    to ``_scaled``'s copy."""
    try:
        mean = fsum(values) / len(values)
    except OverflowError:  # fsum's partial sums passed the float maximum
        return []
    return [x - mean for x in values]


def _dot(xs: Sequence[float], ys: Sequence[float]) -> float:
    """Exactly rounded sum of the rounded products ``x * y``; inf when a
    partial sum passes the float maximum or products of both signs
    overflow (fsum raises OverflowError and ValueError for those)."""
    try:
        return fsum(map(mul, xs, ys))
    except (OverflowError, ValueError):
        return math.inf


def _ordinary(sum_sq: float) -> bool:
    """Whether a sum of squared deviations of unscaled values is kept:
    within [2**-500, 2**500]. Outside, NaN and inf included, the copy
    from ``_scaled``, largest |value| in [0.5, 1), is centred instead.
    The scaling loses no bit above 2**-1074 and a correlation does not
    depend on it. A scaled non-constant series varies by at least 2**-54
    about its mean, so its sum of squares lies in [2**-108, 4n]. Either
    way the product of two sums, the square of a correlation's
    denominator, is a normal double.
    """
    return 2.0**-500 <= sum_sq <= 2.0**500


# Forking pays when the products it takes off this process outweigh its
# cost: about 1.7 ms, plus, for centred lists, a page copy for each value
# that both processes read (a read writes the value's reference count),
# about half a product's time. The timings below were taken with lists;
# the packed columns read past the gate copy no page, but a product of
# two of them takes about a quarter longer (1.39 against 1.12 ms for
# 20 000 values, best of 7). With two workers this process computes the
# first tasks // 2 of the d (d + 1) / 2 tasks and waits for the child's
# other ones, and each process reads about all n * d values, so the saving
# grows with n * (2 * (tasks // 2) - d): 3n at d = 3 (3 tasks against 3),
# 44n at d = 10, and 0 at d = 2 (1 task against 2), which never forks.
# Timed on a 2-CPU host (medians of 21 alternating serial and forked
# runs), forking lost at every d from 4 to 20 with 50 000 (1.04-1.18
# times the serial time, no wins) and tied at d = 3; it won at every d
# from 3 to 20 with 80 000 (0.92-0.99) and with 100 000 (0.88-0.91, 20
# or 21 wins of 21). At d = 2 it lost up to 100 000 rows.
_FORK_SAVING = 100_000


def correlation_matrix(data: DataMatrix) -> SymmetricMatrix:
    """d x d sample correlation matrix with an exactly-unit diagonal.

    Only the lower triangle is computed, and kept; raises ZeroVariance
    naming the first constant column found. Each column is centred here;
    its sum of squares and its products with the columns before it are
    the tasks (i, j <= i) of one map, in row-major order, each an exact
    ``fsum`` of rounded products. When ``n * (2 * (tasks // 2) - d)``
    reaches ``_FORK_SAVING`` the map runs in ``parallel.chunk_map``, and the
    matrix is the same to the bit. There each centred column is an
    ``array('d')``, filled from one column's list of deviations at a time:
    8 bytes a value instead of a list's reference and float object, about
    32, and a forked child reads packed doubles, writing no reference
    count into pages it shares with this process. Below the gate the
    columns stay lists, which the products read faster.

    A column whose sum of squares ``_ordinary`` rejects is centred again
    from its ``_scaled`` copy, and its row and column of tasks are
    recomputed here. Tasks between two other columns are kept: by
    Cauchy-Schwarz each is at most the root of two sums of squares in
    range, so it is finite, and no product or partial sum overflowed.
    """
    d = data.n_vars
    for col, name in zip(data.columns, data.var_names):
        if col.count(col[0]) == len(col):
            raise ZeroVariance(f"column {name}")
    tasks = [(i, j) for i in range(d) for j in range(i + 1)]

    def product(k: int) -> float:
        i, j = tasks[k]
        return _dot(centred[i], centred[j])

    if data.n_obs * (2 * (len(tasks) // 2) - d) < _FORK_SAVING:
        centred = list(map(_deviations, data.columns))
        products = list(map(product, range(len(tasks))))
    else:
        from array import array  # neither is loaded by import mcor.cli
        from .parallel import chunk_map
        centred = [array("d", _deviations(col)) for col in data.columns]
        products = chunk_map(product, len(tasks))
    diagonal = [i * (i + 3) // 2 for i in range(d)]  # task (i, i)
    scaled = {i for i in range(d) if not _ordinary(products[diagonal[i]])}
    for i in scaled:
        centred[i] = _deviations(_scaled(data.columns[i])[0])
    for k, (i, j) in enumerate(tasks):
        if i in scaled or j in scaled:
            products[k] = product(k)
    tri = []
    for k, (i, j) in enumerate(tasks):
        if i == j:
            tri.append(1.0)
            continue
        # One sqrt of the product loses less than a product of two sqrts
        # and keeps exactly-linear integer data at exactly +-1. _ordinary
        # keeps the product a normal double, and Cauchy-Schwarz bounds the
        # numerator by its root, so r is finite.
        r = products[k] / math.sqrt(products[diagonal[i]] * products[diagonal[j]])
        tri.append(_clamp(r, -1.0, 1.0, "correlation", CLAMP_EPS))
    return make_symmetric(d, tri)


def pearson_r(x: Sequence[float], y: Sequence[float]) -> float:
    """Pearson correlation of two equal-length series: entry (2, 1) of the
    correlation matrix of columns ``x`` and ``y``, with its checks, errors
    and CLAMP_EPS clamp onto [-1, 1]."""
    return correlation_matrix(DataMatrix.from_columns((x, y), ("x", "y"))).lower[1][0]


def sample_sd(xs: Sequence[float]) -> float:
    """Sample standard deviation with the m-1 denominator.

    The values are scaled by ``_scaled`` only when their sum overflows or
    their centred sum of squares leaves [2**-500, 2**500], as in
    ``correlation_matrix``; the scaling is undone on the result, and a
    result beyond the float range raises NonFiniteEntry.
    """
    m = len(xs)
    if m < 2:
        raise TooFewValues(f"standard deviation needs at least 2 values, got {m}")
    if not _all_finite(xs):
        raise NonFiniteEntry("value list contains a non-finite entry")
    return _sd(xs)


def _sd(xs: Sequence[float]) -> float:
    """``sample_sd`` of at least two finite values, which are not checked."""
    centred, shift = _deviations(xs), 0
    sum_sq = _dot(centred, centred)
    if not _ordinary(sum_sq):
        values, shift = _scaled(xs)
        centred = _deviations(values)
        sum_sq = _dot(centred, centred)
    return _unscale(math.sqrt(sum_sq / (len(xs) - 1)), shift, "standard deviation")
