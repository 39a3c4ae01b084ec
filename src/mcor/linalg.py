"""Dense symmetric matrices and their eigenvalues.

Matrices are built from one triangle and mirrored, so symmetry holds
exactly by construction. Eigenvalues come from Householder reduction to
tridiagonal form followed by implicit QL; eigenvectors are never needed
and are not accumulated.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from itertools import chain
from math import fsum
from operator import itemgetter, mul
from typing import NamedTuple

from .errors import (BadArguments, LengthMismatch, NoConvergence, NonFiniteEntry,
                     NumericInconsistency)

MAX_SWEEPS = 100  # QL iterations allowed for any one eigenvalue
# Results may poke past their bounds by roundoff only; larger overshoot means a
# solver bug and must not be masked by clamping.
CLAMP_EPS = 1e-12


class SymmetricMatrix(NamedTuple):
    """d x d real matrix with ``rows[i][j] == rows[j][i]`` exactly."""

    dim: int
    rows: tuple[tuple[float, ...], ...]

    def trace(self) -> float:
        return _sum([self.rows[i][i] for i in range(self.dim)], "trace")


class EigenSpectrum(NamedTuple):
    """Eigenvalues sorted in non-increasing order, plus solver metadata."""

    values: tuple[float, ...]
    sweeps_used: int
    off_diag_residual: float


def make_symmetric(dim: int, lower_triangle: Sequence[float]) -> SymmetricMatrix:
    """Build a symmetric matrix from its row-major lower triangle.

    ``lower_triangle`` lists the entries (0,0), (1,0), (1,1), (2,0),
    (2,1), (2,2), ... and must contain exactly dim*(dim+1)/2 finite
    values. The upper triangle is mirrored from the lower one.
    """
    if dim < 1:
        raise BadArguments(f"dim must be >= 1, got {dim}")
    expected = dim * (dim + 1) // 2
    if len(lower_triangle) != expected:
        raise LengthMismatch(
            f"lower triangle of a {dim}x{dim} matrix needs {expected} entries, "
            f"got {len(lower_triangle)}"
        )
    if not _all_finite(lower_triangle):
        i, j = next((i, j) for i in range(dim) for j in range(i + 1)
                    if not _all_finite((lower_triangle[i * (i + 1) // 2 + j],)))
        raise NonFiniteEntry(f"matrix entry at row {i + 1}, column {j + 1} is not finite")
    rows = [list(map(float, lower_triangle[i * (i + 1) // 2:(i + 1) * (i + 2) // 2]))
            for i in range(dim)]
    for i, row in enumerate(rows):
        row.extend(map(itemgetter(i), rows[i + 1:]))
    return SymmetricMatrix(dim=dim, rows=tuple(map(tuple, rows)))


def frobenius_norm_sq(m: SymmetricMatrix) -> float:
    """Sum of squares of all d*d entries; NonFiniteEntry past the float range."""
    scaled, shift = _scaled([v for row in m.rows for v in row])
    return _unscale(fsum(v * v for v in scaled), 2 * shift, "sum of squares")


def _all_finite(values: Sequence[float]) -> bool:
    """Whether every value is a finite float; an int past the float range is
    not. One pass at C speed: catching the overflow costs nothing per value."""
    try:
        return all(map(math.isfinite, values))
    except OverflowError:  # int too large to convert to float
        return False


def _scaled(values: Sequence[float]) -> tuple[list[float], int]:
    """``values`` times 2**-shift, exact but for bits below 2**-1074, and the
    shift that brings the largest |value| into [0.5, 1), where no sum or
    square overflows (Blue, ACM TOMS 4(1), 1978); ``_unscale`` undoes it."""
    shift = math.frexp(max(map(abs, values)))[1]
    return [math.ldexp(v, -shift) for v in values], shift


def _sum(values: Sequence[float], what: str) -> float:
    """Exactly rounded sum of finite ``values``. Only when fsum's partial
    sums overflow is the sum taken in integer multiples of 2**-1074, of
    which every finite double is a whole number, and rounded once by the
    correctly rounded int division; a sum past the float range raises
    NonFiniteEntry."""
    try:
        return fsum(values)
    except OverflowError:
        unit = 1 << 1074  # 1 / unit is the smallest subnormal double
        total = 0
        for v in values:
            num, den = v.as_integer_ratio()
            total += num * (unit // den)
        try:
            return total / unit
        except OverflowError:
            raise NonFiniteEntry(f"{what} exceeds the float range") from None


def _unscale(value: float, shift: int, what: str) -> float:
    """``value * 2**shift``, exact; NonFiniteEntry if it overflows."""
    try:
        return math.ldexp(value, shift)
    except OverflowError:
        raise NonFiniteEntry(f"{what} {value!r} * 2**{shift} exceeds the float range") from None


def _clamp(value: float, lo: float, hi: float, what: str, slack: float) -> float:
    """``value`` clamped onto [lo, hi]; NumericInconsistency if it is NaN or
    lies more than ``slack`` outside, further than roundoff can carry it."""
    if not (lo - value <= slack and value - hi <= slack):  # false for NaN too
        if math.isnan(value):
            raise NumericInconsistency(f"{what} = {value!r} is not a number")
        side = f"fell below {lo:g}" if value < lo else f"rose above {hi:g}"
        raise NumericInconsistency(f"{what} = {value!r} {side} beyond roundoff")
    return min(max(value, lo), hi)


def _tridiagonal(a: list[list[float]]) -> tuple[list[float], list[float]]:
    """Diagonal and sub-diagonal (``sub[i]`` is entry (i+1, i), ``sub[-1]``
    is 0) of a tridiagonal matrix similar to the one whose lower triangle
    ``a`` holds, by Householder reflections that map row i's entries left
    of the diagonal onto its sub-diagonal entry, for i = d-1 down to 1
    (Handbook ``tred1``). Row i is divided by its 1-norm first, so no
    square underflows; rows 0..i-1 of ``a`` get a rank-2 update, and no
    reflection is kept.
    """
    d = len(a)
    sub = [0.0] * d
    for i in range(d - 1, 0, -1):
        x = a[i][:i]
        scale = fsum(map(abs, x))
        if scale == 0.0:
            continue
        # With u = x / scale - g * e_(i-1) and h = |u|^2 / 2, I - u u^T / h
        # maps x / scale to g * e_(i-1).
        u = [v / scale for v in x]
        h = fsum(map(mul, u, u))
        f = u[-1]
        g = -math.sqrt(h) if f >= 0.0 else math.sqrt(h)
        sub[i - 1] = scale * g
        h -= f * g
        u[-1] = f - g
        # p = A u / h; entry (j, k) of A is a[max(j, k)][min(j, k)].
        p = [fsum(chain(map(mul, a[j], u), map(mul, map(itemgetter(j), a[j + 1:i]), u[j + 1:])))
             / h for j in range(i)]
        k = fsum(map(mul, p, u)) / (h + h)
        q = [pj - k * uj for pj, uj in zip(p, u)]
        for j in range(i):
            f, g = u[j], q[j]
            a[j] = [v - (f * qk + g * uk) for v, qk, uk in zip(a[j], q, u)]
    return [a[i][i] for i in range(d)], sub


def _ql(diag: list[float], sub: list[float]) -> int:
    """Overwrite ``diag`` with the eigenvalues of the tridiagonal matrix
    (diag, sub) by implicit QL with Wilkinson shifts (Handbook ``tql1``).

    Returns the most iterations one eigenvalue took, or ``MAX_SWEEPS + 1``
    (read at call time) when one is still not split off after that many.
    An entry of ``sub`` counts as zero once adding it leaves the largest
    |diag[l]| + |sub[l]| so far unchanged. That max starts at eps times the
    largest of all, so a tiny leading block cannot keep QL iterating on an
    entry far below the solve's d * eps * max|entry| accuracy.
    """
    d = len(diag)
    most = 0
    norm = 2.0**-52 * max(abs(x) + abs(e) for x, e in zip(diag, sub))
    for l in range(d):
        norm = max(norm, abs(diag[l]) + abs(sub[l]))
        its = 0
        while True:
            m = l
            while m < d - 1 and norm + abs(sub[m]) != norm:
                m += 1
            if m == l:
                break
            if its == MAX_SWEEPS:
                return MAX_SWEEPS + 1
            its += 1
            g = (diag[l + 1] - diag[l]) / (2.0 * sub[l])
            g = diag[m] - diag[l] + sub[l] / (g + math.copysign(math.hypot(g, 1.0), g))
            s, c, p = 1.0, 1.0, 0.0
            for i in range(m - 1, l - 1, -1):
                f = s * sub[i]
                b = c * sub[i]
                r = sub[i + 1] = math.hypot(f, g)
                if r == 0.0:  # underflow: split at i + 1 and iterate again
                    diag[i + 1] -= p
                    sub[m] = 0.0
                    break
                s, c = f / r, g / r
                g = diag[i + 1] - p
                r = (diag[i] - g) * s + 2.0 * c * b
                p = s * r
                diag[i + 1] = g + p
                g = c * r - b
            else:
                diag[l] -= p
                sub[l] = g
                sub[m] = 0.0
        most = max(most, its)
    return most


def eigenvalues_symmetric(m: SymmetricMatrix) -> EigenSpectrum:
    """All eigenvalues of ``m`` from its lower triangle: Householder
    reduction to tridiagonal form, then implicit QL (Wilkinson & Reinsch
    1971; Golub & Van Loan §8.3), with an absolute error of about
    d * eps * max|entry|.

    ``MAX_SWEEPS`` caps the QL iterations for any one eigenvalue; past it
    NoConvergence is raised. ``sweeps_used`` is the most any eigenvalue
    took (0 for a diagonal matrix), ``off_diag_residual`` is
    sqrt(2 * sum(e**2)) over the final sub-diagonal e. The solve runs on a
    copy scaled by the power of two that brings the largest |entry| into
    [0.5, 1); the scaling is exact and is undone on the results, and an
    eigenvalue beyond the float range raises NonFiniteEntry.
    """
    flat, shift = _scaled([v for i, row in enumerate(m.rows) for v in row[: i + 1]])
    a = [flat[i * (i + 1) // 2:(i + 1) * (i + 2) // 2] for i in range(m.dim)]
    diag, sub = _tridiagonal(a)
    sweeps = _ql(diag, sub)
    residual = _unscale(math.sqrt(2.0 * fsum(v * v for v in sub)), shift, "residual")
    if sweeps > MAX_SWEEPS:
        raise NoConvergence(f"an eigenvalue is not split off after {MAX_SWEEPS} QL iterations"
                            f" (off-diagonal residual {residual:.3e})", residual=residual)
    return EigenSpectrum(
        values=tuple(_unscale(v, shift, "eigenvalue") for v in sorted(diag, reverse=True)),
        sweeps_used=sweeps,
        off_diag_residual=residual,
    )
