"""Output checks: every operation the benchmark times is checked here.

An operation fails on a nonzero exit, any stderr output, unparseable JSON,
eigenvalues that do not sum to d, or a coefficient further than COEF_TOL
from the benchmark's own reference.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from math import fsum

COEF_TOL = 1e-9
# The CLI prints 12 significant digits, so a sum of d printed eigenvalues
# may drift from d by about d * 5e-13 * max(eigenvalue).
EIG_SUM_TOL = 1e-9


@dataclass(frozen=True)
class Expected:
    """What a correct run reports: ``key`` names the coefficient field of
    the JSON result; ``d`` is None when the result has no spectrum."""

    key: str
    reference: float
    d: int | None


def check_result(result, expected: Expected) -> str | None:
    """Failure reason for a JSON ``result`` object, or None if correct."""
    if not isinstance(result, dict):
        return f"result is not an object: {result!r:.200}"
    coefficient = result.get(expected.key)
    if not isinstance(coefficient, float) or not math.isfinite(coefficient):
        return f"{expected.key} {coefficient!r:.200} is not a finite float"
    gap = abs(coefficient - expected.reference)
    if not gap <= COEF_TOL:
        return f"{expected.key} {coefficient!r} is {gap:.3e} from reference {expected.reference!r}"
    if expected.d is not None:
        eigenvalues = result.get("eigenvalues")
        if not isinstance(eigenvalues, list) or len(eigenvalues) != expected.d:
            return f"expected a list of {expected.d} eigenvalues"
        try:
            total = fsum(eigenvalues)
        except TypeError:
            return "eigenvalues are not numbers"
        if not abs(total - expected.d) <= EIG_SUM_TOL * expected.d:
            return f"eigenvalues sum to {total!r}, expected {expected.d}"
    return None


def check_cli(returncode: int, stdout: str, stderr: str, expected: Expected) -> str | None:
    """Failure reason for one ``--output json`` run, or None."""
    if returncode != 0:
        return f"exit code {returncode}"
    if stderr:
        return f"stderr: {stderr[:200]!r}"
    try:
        result = json.loads(stdout)["result"]
    except (ValueError, KeyError, TypeError) as exc:
        return f"unparseable JSON: {exc!r}"
    return check_result(result, expected)
