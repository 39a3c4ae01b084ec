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
    NumericInconsistency,
    TooFewRows,
    TooFewValues,
    ZeroVariance,
)
from .linalg import (CLAMP_EPS, SymmetricMatrix, _all_finite, _clamp, _scaled, _unscale,
                     make_symmetric)


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
        lengths, finite); every producer of a DataMatrix goes through here."""
        d = len(columns)
        if d < 1:
            raise BadArguments("rows must have at least one column")
        n = len(columns[0])
        if n < 2:
            raise TooFewRows(f"need at least 2 observations, got {n}")
        for j, col in enumerate(columns):
            if len(col) != n:
                raise LengthMismatch(
                    f"column {j + 1} has {len(col)} values, expected {n}"
                )
        if not all(map(_all_finite, columns)):
            # Name the first offender in row-major order, as a reader of rows would.
            i, j = min(
                (i, j)
                for j, col in enumerate(columns)
                for i, v in enumerate(col)
                if not _all_finite((v,))
            )
            raise NonFiniteEntry(f"row {i + 1}, column {j + 1} is not finite")
        if var_names is None:
            names = tuple(f"v{j + 1}" for j in range(d))
        else:
            if len(var_names) != d:
                raise LengthMismatch(
                    f"got {len(var_names)} variable names for {d} columns"
                )
            names = tuple(str(name) for name in var_names)
        frozen = tuple(tuple(map(float, col)) for col in columns)
        return cls(n_obs=n, n_vars=d, columns=frozen, var_names=names)

    @property
    def values(self) -> tuple[tuple[float, ...], ...]:
        """Row view: n tuples of d values, rebuilt on each access."""
        return tuple(zip(*self.columns))

    def column(self, j: int) -> list[float]:
        return list(self.columns[j])


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


def _corr_from_centered(cx, cy, sxx: float, syy: float) -> float:
    # One sqrt of the product loses less than a product of two sqrts and
    # keeps exactly-linear integer data at exactly +-1. _centered keeps
    # the product a normal double.
    r = fsum(map(mul, cx, cy)) / math.sqrt(sxx * syy)
    if not math.isfinite(r):
        raise NumericInconsistency(f"correlation evaluated to {r!r}")
    return _clamp(r, -1.0, 1.0, "correlation", CLAMP_EPS)


def correlation_matrix(data: DataMatrix) -> SymmetricMatrix:
    """d x d sample correlation matrix with an exactly-unit diagonal.

    One triangle is computed and mirrored; raises ZeroVariance naming the
    first constant column found.
    """
    d = data.n_vars
    for col, name in zip(data.columns, data.var_names):
        if col.count(col[0]) == len(col):
            raise ZeroVariance(f"column {name}")
    moments = [_centered(col) for col in data.columns]
    tri = []
    for i in range(d):
        cx, sxx, _ = moments[i]
        for j in range(i):
            cy, syy, _ = moments[j]
            tri.append(_corr_from_centered(cx, cy, sxx, syy))
        tri.append(1.0)
    return make_symmetric(d, tri)


def pearson_r(x: Sequence[float], y: Sequence[float]) -> float:
    """Pearson correlation of two equal-length series: entry (2, 1) of the
    correlation matrix of columns ``x`` and ``y``, with its checks, errors
    and CLAMP_EPS clamp onto [-1, 1]."""
    return correlation_matrix(DataMatrix.from_columns((x, y), ("x", "y"))).rows[1][0]


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
