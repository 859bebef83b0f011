"""Local observables on injective PEPS via patch contraction.

Library layout:

- ``network``: labelled-network contraction with deterministic planning.
- ``lattice`` / ``peps``: geometry, the PEPS state, the site-map SVD behind
  every injectivity verdict, blocking, disentangling.
- ``observables``: operators on small supports and their norms.
- ``generators``: product, perturbed-product and AKLT test families.
- ``oracle``: exact expectation values, disentangling traces, and the one
  double-layer network builder.
- ``patch``: the patch estimator, radius selection, and the sampler, which
  reads the patch's reduced density matrix.
- ``transfer``: transfer operators, spectra, correlation functions.
- ``parent``: 1D parent-Hamiltonian terms and gap scans.
- ``fileio`` / ``cli``: file formats, result documents, command line.
"""

__version__ = "0.1.0"

from .errors import (
    ArgumentError,
    DegenerateFitError,
    ModelError,
    NotInjectiveError,
    NumericalError,
    PepskitError,
    SizeBudgetError,
)

__all__ = [
    "__version__",
    "ArgumentError",
    "DegenerateFitError",
    "ModelError",
    "NotInjectiveError",
    "NumericalError",
    "PepskitError",
    "SizeBudgetError",
]
