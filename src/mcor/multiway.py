"""The multi-way correlation coefficient and its companion quantities.

For d >= 2 variables, the coefficient is the sample standard deviation of
the eigenvalues of the empirical correlation matrix, divided by sqrt(d).
A correlation spectrum sums to d, so its mean is 1: the statistic measures
eigenvalue dispersion. It is 0 exactly when all eigenvalues are 1 (the
identity matrix, mutually uncorrelated variables), 1 exactly when a single
eigenvalue is d and the rest vanish (rank one, perfect linear dependence),
and for d == 2 it equals |Pearson r| of the two columns.

John's sphericity ratio sum(l_i^2)/(sum l_i)^2 ranges over [1/d, 1] on
correlation spectra; its rescaling (sum(l_i^2) - d)/(d(d-1)) onto [0, 1]
is algebraically identical to the squared coefficient.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from math import fsum
from typing import NamedTuple

from .corestats import DataMatrix, _sd, correlation_matrix
from .errors import (
    BadArguments,
    DegenerateSpectrum,
    DimensionTooSmall,
    NonFiniteEntry,
    NotACorrelationMatrix,
    NotACorrelationSpectrum,
)
from .linalg import (CLAMP_EPS, EigenSpectrum, SymmetricMatrix, _all_finite, _clamp, _scaled,
                     _sum, eigenvalues_symmetric)

# Eigenvalue sums may drift from d by solver roundoff; anything past this
# relative slack is not a correlation spectrum at all.
TRACE_RTOL = 1e-6
NEAR_SINGULAR_EIG = 1e-10
PSD_EIG_FLOOR = -1e-8
MATRIX_ENTRY_TOL = 1e-9
# Matrix-file entries may each be off by t = MATRIX_ENTRY_TOL: |entries| <= 1 + t give
# sum(l^2) = ||R||_F^2 <= d^2 (1 + t)^2, the diagonal sum(l^2) >= d(1 - t)^2 and sum(l) >=
# d(1 - t). So the rescaled sphericity (sum(l^2) - d) / (d(d-1)) lies in [-2t/(d-1),
# 1 + d(2t + t^2)/(d-1)] and mcor^2 = (sum(l^2) - sum(l)^2/d) / (d(d-1)) <= 1 + 6t + t^2.
# d = 2 is the worst case: 4t bounds each overshoot, CLAMP_EPS the t^2 terms and roundoff.
MATRIX_CLAMP_EPS = 4 * MATRIX_ENTRY_TOL + CLAMP_EPS
# A given spectrum within the trace check, |sum(l) - d| <= rd with r = TRACE_RTOL, has sum(l^2)
# >= sum(l)^2/d >= d(1 - r)^2: its rescaled sphericity is >= -2r/(d-1). If it is PSD, sum(l^2)
# <= sum(l)^2 <= d^2(1 + r)^2 bounds that by 1 + d(2r + r^2)/(d-1) <= 1 + 4r + 2r^2 (d = 2),
# and mcor by sum(l)/d <= 1 + r. mcor(data) keeps CLAMP_EPS, so solver faults still surface.
SPECTRUM_CLAMP_EPS = 4 * TRACE_RTOL + 2 * TRACE_RTOL**2 + CLAMP_EPS

WARN_NEAR_SINGULAR = "near-singular correlation matrix"
WARN_NOT_PSD = "not PSD within tolerance"


class McorReport(NamedTuple):
    """Coefficient value with its full provenance."""

    d: int
    mcor: float
    eigenvalues: tuple[float, ...]
    sphericity: float
    rescaled_sphericity: float
    min_eigenvalue: float
    warnings: tuple[str, ...]


def _spectrum_size(values: Sequence[float]) -> int:
    d = len(values)
    if d < 2:
        raise DimensionTooSmall(f"need at least 2 eigenvalues, got {d}")
    if not _all_finite(values):
        raise NonFiniteEntry("eigenvalue list contains a non-finite value")
    return d


def _validated_spectrum(values: Sequence[float]) -> int:
    d = _spectrum_size(values)
    total = _sum(values, "eigenvalue sum")
    if abs(total - d) > TRACE_RTOL * d:
        raise NotACorrelationSpectrum(
            f"eigenvalues sum to {total!r}, expected {d} for a correlation spectrum",
            total=total,
        )
    return d


# The private cores below take a spectrum that _validated_spectrum or _spectrum_size has
# already checked, so a report checks its spectrum once.
def _mcor(values: Sequence[float], d: int, slack: float) -> float:
    return _clamp(_sd(values) / math.sqrt(d), 0.0, 1.0, "mcor", slack)


def mcor_from_spectrum(values: Sequence[float]) -> float:
    """Coefficient from a correlation spectrum: sample sd of the
    eigenvalues over sqrt(d), clamped to [0, 1] within SPECTRUM_CLAMP_EPS."""
    return _mcor(values, _validated_spectrum(values), SPECTRUM_CLAMP_EPS)


def john_sphericity(values: Sequence[float]) -> float:
    """Dispersion ratio sum(l^2) / (sum l)^2 of any eigenvalue list, on a copy
    scaled by the power of two that brings the largest |value| into [0.5, 1):
    the ratio does not depend on scale, and no square overflows there."""
    _spectrum_size(values)
    return _john_sphericity(values)


def _john_sphericity(values: Sequence[float]) -> float:
    scaled, _ = _scaled(values)
    total = fsum(scaled)
    square = total * total
    # The scaled squares sum to >= 0.25: a square that underflows leaves no finite ratio.
    ratio = fsum(v * v for v in scaled) / square if square else math.inf
    if ratio == math.inf:
        raise DegenerateSpectrum("eigenvalues sum to zero, or too near it for a finite ratio")
    return ratio


def _rescaled_sphericity(values: Sequence[float], d: int, slack: float) -> float:
    try:
        s2 = fsum(v * v for v in values)
    except OverflowError:  # past the float maximum: far above 1, as the clamp reports
        s2 = math.inf
    return _clamp((s2 - d) / (d * (d - 1)), 0.0, 1.0, "rescaled sphericity", slack)


def rescaled_sphericity(values: Sequence[float]) -> float:
    """Sphericity mapped onto [0, 1]: (sum(l^2) - d) / (d(d-1)).

    Equals the squared coefficient for the same spectrum; clamped to [0, 1]
    within SPECTRUM_CLAMP_EPS.
    """
    return _rescaled_sphericity(values, _validated_spectrum(values), SPECTRUM_CLAMP_EPS)


def independence_bound(d: int, k: int) -> float:
    """Upper bound on the coefficient when k of the d variables are
    independent of each other and of the rest.

    sqrt((d-k)(d-k-1) / (d(d-1))); zero once fewer than two coupled
    variables remain.
    """
    if d < 2:
        raise BadArguments(f"d must be >= 2, got {d}")
    if k < 0 or k > d:
        raise BadArguments(f"k must lie in [0, {d}], got {k}")
    rest = d - k
    if rest <= 1:
        return 0.0
    return math.sqrt(rest * (rest - 1) / (d * (d - 1)))


def _report(spectrum: EigenSpectrum, extra_warnings: Sequence[str], slack: float) -> McorReport:
    values = spectrum.values
    d = _validated_spectrum(values)
    min_eig = values[-1]
    warnings = list(extra_warnings)
    if min_eig < NEAR_SINGULAR_EIG:
        warnings.append(WARN_NEAR_SINGULAR)
    if min_eig < PSD_EIG_FLOOR:
        warnings.append(WARN_NOT_PSD)
    return McorReport(
        d=d,
        mcor=_mcor(values, d, slack),
        eigenvalues=values,
        sphericity=_john_sphericity(values),
        rescaled_sphericity=_rescaled_sphericity(values, d, slack),
        min_eigenvalue=min_eig,
        warnings=tuple(warnings),
    )


def mcor(data: DataMatrix) -> McorReport:
    """Coefficient of a raw data matrix: correlation matrix, then its
    spectrum (NoConvergence past linalg.DEFAULT_MAX_SWEEPS QL iterations
    on one eigenvalue), then the dispersion statistic."""
    if data.n_vars < 2:
        raise DimensionTooSmall(f"need at least 2 variables, got {data.n_vars}")
    return _report(eigenvalues_symmetric(correlation_matrix(data)), (), CLAMP_EPS)


def mcor_from_matrix(matrix: SymmetricMatrix) -> McorReport:
    """Coefficient of a precomputed correlation matrix.

    The diagonal must be 1 and off-diagonals within [-1, 1], both up to
    1e-9; deviations inside that tolerance are reported as warnings
    (hand-rounded matrices are common), beyond it they are errors. mcor and
    the rescaled sphericity are clamped to [0, 1] within MATRIX_CLAMP_EPS.
    """
    d = matrix.dim
    if d < 2:
        raise DimensionTooSmall(f"need at least a 2x2 matrix, got {d}x{d}")
    warnings = []
    for i in range(d):
        dev = abs(matrix.rows[i][i] - 1.0)
        if dev > MATRIX_ENTRY_TOL:
            raise NotACorrelationMatrix(
                f"diagonal entry ({i + 1},{i + 1}) = {matrix.rows[i][i]!r}, expected 1"
            )
        if dev > 0.0:
            warnings.append(f"diagonal entry ({i + 1},{i + 1}) off unit by {dev:.3e}")
    for i in range(d):
        for j in range(i + 1, d):
            over = abs(matrix.rows[i][j]) - 1.0
            if over > MATRIX_ENTRY_TOL:
                raise NotACorrelationMatrix(
                    f"off-diagonal entry ({i + 1},{j + 1}) = {matrix.rows[i][j]!r} "
                    "is outside [-1, 1]"
                )
            if over > 0.0:
                warnings.append(
                    f"off-diagonal entry ({i + 1},{j + 1}) exceeds unit magnitude "
                    f"by {over:.3e}"
                )
    return _report(eigenvalues_symmetric(matrix), warnings, MATRIX_CLAMP_EPS)
