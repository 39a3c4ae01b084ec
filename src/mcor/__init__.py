"""Multi-way correlation: one number for the linear inter-dependence of
d >= 2 variables, built on sample correlation matrices and an in-repo
symmetric eigensolver."""

from . import errors
from .corestats import (
    DataMatrix,
    correlation_matrix,
    make_data_matrix,
    pearson_r,
    sample_sd,
)
from .linalg import (
    EigenSpectrum,
    SymmetricMatrix,
    eigenvalues_symmetric,
    make_symmetric,
)
from .multiway import (
    McorReport,
    independence_bound,
    john_sphericity,
    mcor,
    mcor_from_matrix,
    mcor_from_spectrum,
    rescaled_sphericity,
)

__version__ = "0.1.0"

__all__ = [
    "DataMatrix",
    "EigenSpectrum",
    "McorReport",
    "MonteCarloSummary",
    "Scenario",
    "SplitMix64",
    "SymmetricMatrix",
    "correlation_matrix",
    "derive_seed",
    "eigenvalues_symmetric",
    "errors",
    "generate",
    "independence_bound",
    "john_sphericity",
    "make_data_matrix",
    "make_symmetric",
    "mcor",
    "mcor_from_matrix",
    "mcor_from_spectrum",
    "monte_carlo",
    "pearson_r",
    "population_mcor",
    "rescaled_sphericity",
    "sample_sd",
]


def __getattr__(name):
    """The seven names of ``__all__`` not bound above, taken on first access,
    as PEP 562 allows: ``SplitMix64`` from ``rng``, the rest from ``simulate``
    (which imports ``derive_seed`` from ``rng``). A command that does not
    simulate never loads either module."""
    if name not in __all__:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from . import rng, simulate
    return getattr(rng if name == "SplitMix64" else simulate, name)
