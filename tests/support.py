"""Shared deterministic input generators and checks for the test suite."""

from __future__ import annotations

import os

import pytest

from mcor import DataMatrix, SplitMix64, correlation_matrix, make_data_matrix
from mcor.linalg import SymmetricMatrix, make_symmetric


def rand_rows(rng: SplitMix64, n: int, d: int, lo: float = 0.0, hi: float = 1.0):
    span = hi - lo
    return [tuple(lo + span * u for u in rng.uniforms(d)) for _ in range(n)]


def rand_data(rng: SplitMix64, n: int, d: int):
    return make_data_matrix(rand_rows(rng, n, d))


def assert_as_checked(data: DataMatrix) -> None:
    """``data``, built by the unchecked ``DataMatrix._from_finite``, is what
    the checked ``DataMatrix.from_columns`` builds from its columns and
    names, and every column is a tuple of exact floats."""
    assert data == DataMatrix.from_columns(data.columns, data.var_names)
    assert type(data.columns) is tuple and type(data.var_names) is tuple
    assert all(type(col) is tuple for col in data.columns)
    assert all(type(v) is float for col in data.columns for v in col)


def assert_no_child_left() -> None:
    """This process has no child, running or unreaped."""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def rand_correlation(rng: SplitMix64, d: int, n: int | None = None) -> SymmetricMatrix:
    return correlation_matrix(rand_data(rng, n or max(8, d + 2), d))


def rand_symmetric(rng: SplitMix64, d: int, scale: float = 2.0) -> SymmetricMatrix:
    tri = [scale * (2.0 * u - 1.0) for u in rng.uniforms(d * (d + 1) // 2)]
    return make_symmetric(d, tri)


def block_with_identity(k: int, inner: SymmetricMatrix) -> SymmetricMatrix:
    """I_k directly summed with ``inner``: the first k variables are
    uncorrelated with everything."""
    d = k + inner.dim
    tri = []
    for i in range(d):
        for j in range(i + 1):
            if i < k or j < k:
                tri.append(1.0 if i == j else 0.0)
            else:
                tri.append(inner.rows[i - k][j - k])
    return make_symmetric(d, tri)
