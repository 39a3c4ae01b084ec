"""Dense symmetric matrices and a cyclic Jacobi eigensolver.

Matrices are built from one triangle and mirrored, so symmetry holds
exactly by construction. The solver applies plane rotations in row-cyclic
order until the off-diagonal Frobenius norm falls below a relative
tolerance. Correlation matrices are well scaled (Frobenius norm at most
d), so a fixed relative tolerance is enough; eigenvectors are never
needed and are not accumulated.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass
from math import fsum

from .errors import BadArguments, LengthMismatch, NoConvergence, NonFiniteEntry

DEFAULT_MAX_SWEEPS = 100
REL_TOL = 1e-12


@dataclass(frozen=True)
class SymmetricMatrix:
    """d x d real matrix with ``rows[i][j] == rows[j][i]`` exactly."""

    dim: int
    rows: tuple[tuple[float, ...], ...]

    def trace(self) -> float:
        return fsum(self.rows[i][i] for i in range(self.dim))


@dataclass(frozen=True)
class EigenSpectrum:
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
    for v in lower_triangle:
        if not math.isfinite(v):
            raise NonFiniteEntry(f"matrix entry {v!r} is not finite")
    grid = [[0.0] * dim for _ in range(dim)]
    pos = 0
    for i in range(dim):
        for j in range(i + 1):
            value = float(lower_triangle[pos])
            grid[i][j] = value
            grid[j][i] = value
            pos += 1
    return SymmetricMatrix(dim=dim, rows=tuple(tuple(row) for row in grid))


def frobenius_norm_sq(m: SymmetricMatrix) -> float:
    """Sum of squares of all d*d entries."""
    return fsum(v * v for row in m.rows for v in row)


def _off_diag_norm(a: list[list[float]], d: int) -> float:
    total = 0.0
    for i in range(d):
        row = a[i]
        for j in range(i + 1, d):
            total += row[j] * row[j]
    return math.sqrt(2.0 * total)


def _rotate(a: list[list[float]], d: int, p: int, q: int) -> None:
    # Annihilate a[p][q] with the classic stable rotation; the guard keeps
    # tan(theta) finite when a[p][q] is many orders below the diagonal gap.
    apq = a[p][q]
    diff = a[q][q] - a[p][p]
    if abs(apq) < abs(diff) * 1e-36:
        t = apq / diff
    elif diff == 0.0:
        t = 1.0
    else:
        theta = diff / (2.0 * apq)
        t = 1.0 / (abs(theta) + math.sqrt(theta * theta + 1.0))
        if theta < 0.0:
            t = -t
    c = 1.0 / math.sqrt(t * t + 1.0)
    s = t * c
    tau = s / (1.0 + c)
    a[p][p] -= t * apq
    a[q][q] += t * apq
    a[p][q] = 0.0
    a[q][p] = 0.0
    for i in range(d):
        if i == p or i == q:
            continue
        aip = a[i][p]
        aiq = a[i][q]
        a[i][p] = aip - s * (aiq + tau * aip)
        a[p][i] = a[i][p]
        a[i][q] = aiq + s * (aip - tau * aiq)
        a[q][i] = a[i][q]


def _unscale(value: float, shift: int, what: str) -> float:
    """``value * 2**shift``, exact; NonFiniteEntry if it overflows."""
    try:
        return math.ldexp(value, shift)
    except OverflowError:
        raise NonFiniteEntry(f"{what} {value!r} * 2**{shift} exceeds the float range") from None


def eigenvalues_symmetric(
    m: SymmetricMatrix, max_sweeps: int = DEFAULT_MAX_SWEEPS
) -> EigenSpectrum:
    """All eigenvalues of ``m`` by cyclic Jacobi rotations.

    Stops once the off-diagonal Frobenius norm is within REL_TOL times
    the Frobenius norm of the input; raises NoConvergence if that does not
    happen within ``max_sweeps`` full sweeps. A matrix that is already
    diagonal is returned after zero sweeps. The rotations run on a copy
    scaled by the power of two that brings the largest |entry| into
    [0.5, 1), so no square overflows or underflows to zero; the scaling is
    exact and is undone on the results, and an eigenvalue beyond the
    float range raises NonFiniteEntry.
    """
    d = m.dim
    shift = math.frexp(max(abs(v) for row in m.rows for v in row))[1]
    a = [[math.ldexp(v, -shift) for v in row] for row in m.rows]
    threshold = REL_TOL * math.sqrt(fsum(v * v for row in a for v in row))
    # Rotations are skipped for entries too small to matter for the
    # residual target (each contributes < threshold/d^2 to the norm).
    skip = threshold / (d * d)
    off = _off_diag_norm(a, d)
    sweeps = 0
    while off > threshold:
        if sweeps >= max_sweeps:
            off = _unscale(off, shift, "residual")
            raise NoConvergence(
                f"off-diagonal residual {off:.3e} still above "
                f"{math.ldexp(threshold, shift):.3e} after {max_sweeps} sweeps",
                residual=off,
            )
        sweeps += 1
        for p in range(d - 1):
            for q in range(p + 1, d):
                if abs(a[p][q]) > skip:
                    _rotate(a, d, p, q)
        off = _off_diag_norm(a, d)
    values = sorted((a[i][i] for i in range(d)), reverse=True)
    return EigenSpectrum(
        values=tuple(_unscale(v, shift, "eigenvalue") for v in values),
        sweeps_used=sweeps,
        off_diag_residual=_unscale(off, shift, "residual"),
    )
