"""The contract of the six result record types: immutable, compared and
hashed by value, and shown as ``Name(field=value, ...)`` in field order."""

import pytest

from mcor import (
    EigenSpectrum,
    Scenario,
    make_data_matrix,
    make_symmetric,
    mcor_from_matrix,
    monte_carlo,
)
from mcor.io import read_checked_matrix


def checked_matrix(tmp_path):
    path = tmp_path / "r.csv"
    path.write_text("1,0.5\n0.5,1\n", encoding="utf-8")
    return read_checked_matrix(str(path))


# Name, field names in order, and a builder returning a fresh instance.
RECORDS = [
    ("DataMatrix", ("n_obs", "n_vars", "columns", "var_names"),
     lambda _: make_data_matrix([(1.0, 2.0), (3.0, 5.0)], ("a", "b"))),
    ("SymmetricMatrix", ("dim", "lower"), lambda _: make_symmetric(2, [1.0, 0.5, 1.0])),
    ("EigenSpectrum", ("values", "sweeps_used", "off_diag_residual"),
     lambda _: EigenSpectrum(values=(1.5, 0.5), sweeps_used=1, off_diag_residual=0.0)),
    ("CheckedMatrix", ("matrix", "max_asymmetry", "worst_pair"),
     checked_matrix),
    ("McorReport", ("d", "mcor", "eigenvalues", "sphericity", "rescaled_sphericity",
                    "min_eigenvalue", "warnings"),
     lambda _: mcor_from_matrix(make_symmetric(2, [1.0, 0.5, 1.0]))),
    ("MonteCarloSummary", ("scenario", "n_obs", "replicates", "seed", "mcor_mean", "mcor_sd",
                           "mcor_min", "mcor_max"),
     lambda _: monte_carlo(Scenario.INDEPENDENT, 20, 2, 1)),
]


@pytest.mark.parametrize("name, fields, build", RECORDS, ids=[r[0] for r in RECORDS])
class TestRecordContract:
    def test_fields_cannot_be_assigned(self, tmp_path, name, fields, build):
        record = build(tmp_path)
        for field in fields:
            with pytest.raises(AttributeError):
                setattr(record, field, getattr(record, field))

    def test_equal_fields_compare_and_hash_equal(self, tmp_path, name, fields, build):
        a, b = build(tmp_path), build(tmp_path)
        assert a is not b
        assert a == b
        assert hash(a) == hash(b)

    def test_repr_names_each_field_in_order(self, tmp_path, name, fields, build):
        record = build(tmp_path)
        assert type(record).__name__ == name
        shown = ", ".join(f"{field}={getattr(record, field)!r}" for field in fields)
        assert repr(record) == f"{name}({shown})"


def test_data_matrix_repr():
    data = make_data_matrix([(1.0, 2.0), (3.0, 5.0)], ("a", "b"))
    assert repr(data) == (
        "DataMatrix(n_obs=2, n_vars=2, columns=((1.0, 3.0), (2.0, 5.0)), var_names=('a', 'b'))")


def test_eigen_spectrum_repr():
    spectrum = EigenSpectrum(values=(1.5, 0.5), sweeps_used=1, off_diag_residual=0.0)
    assert repr(spectrum) == "EigenSpectrum(values=(1.5, 0.5), sweeps_used=1, off_diag_residual=0.0)"
