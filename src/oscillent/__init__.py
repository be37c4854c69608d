"""Interatomic entanglement of two harmonically coupled massive oscillators.

Three independent computation routes for the reduced-state purity of a
trapped or free pair of masses bound by a quadratic potential:

* closed forms for Gaussian states (:mod:`oscillent.gaussian`), including
  covariance matrices, the two-mode squeezed standard form, logarithmic
  negativity, and a classical statistical twin;
* exact generating-function extraction for number states, the spreading
  free packet, and finite superpositions (:mod:`oscillent.exact`);
* a truncated double-oscillator-basis approximation with convergence
  tracking and entanglement entropy (:mod:`oscillent.fock`);

plus a brute-force grid/Schmidt oracle (:mod:`oscillent.grid`) that checks
all of them, and a CLI (``oscillent``) for sweeps and figure data.
"""

import importlib

from .errors import (DomainError, NumericalConsistencyError, OscillentError,
                     ResourceCapError, UnsupportedStateError)
from .system import (Coherent, NumberState, OscillatorSystem, StateSpec,
                     Superposition, UnboundGaussian)

__version__ = "0.1.0"

# the routes' names, each module imported on the first access to one of its
# names (PEP 562), so a command imports only the routes it runs
_LAZY = {
    "exact": ("build_M", "build_M_from_A", "purity_number", "purity_number_unbound",
              "purity_superposition"),
    "fock": ("BasisParams", "coefficient_table", "convergence_run", "default_basis",
             "entropy_truncated", "purity_truncated", "reduced_density_truncated"),
    "gaussian": ("CovariancePack", "classical_covariance", "covariance_coherent",
                 "position_covariance", "purity_coherent", "purity_unbound_gaussian",
                 "sample_classical_covariance"),
    "grid": ("DensityGrid", "GridSpec", "SchmidtResult", "density_grid", "eval_wavefunction",
             "schmidt_analyze"),
}
_HOME = {name: module for module, names in _LAZY.items() for name in names}


def __getattr__(name):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_HOME[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(_HOME))


__all__ = [
    "OscillatorSystem", "Coherent", "NumberState", "Superposition",
    "UnboundGaussian", "StateSpec",
    "purity_coherent", "purity_unbound_gaussian", "CovariancePack",
    "covariance_coherent", "classical_covariance", "sample_classical_covariance",
    "position_covariance",
    "build_M", "build_M_from_A",
    "purity_number", "purity_number_unbound", "purity_superposition",
    "BasisParams", "default_basis", "coefficient_table",
    "reduced_density_truncated", "purity_truncated", "entropy_truncated",
    "convergence_run",
    "GridSpec", "SchmidtResult", "DensityGrid", "eval_wavefunction",
    "schmidt_analyze", "density_grid",
    "OscillentError", "DomainError", "UnsupportedStateError",
    "ResourceCapError", "NumericalConsistencyError",
    "__version__",
]
