"""Local observables on injective PEPS via patch contraction.

Library layout:

- ``network``: labelled-network contraction with deterministic planning,
  refused at plan time beyond a size or a work budget; each network
  structure (the labels up to renaming, and the shapes) is planned and
  compiled once per process; traces inside a node are the builders' job.
- ``lattice`` / ``peps``: chain and grid geometry, the PEPS state (a
  lattice plus one array per site), and both network layers over a region
  with its entangled pairs closed: the single layer |w> (state vector, a
  block of sites as one array) and the double layer, one fused ket (x) bra
  node per site, whose open support legs give the reduced density matrix
  rho_X (patch, oracle network path; the strip transfer operator takes its
  norm network), with one pair-weight rule.
- ``observables``: operators on small supports and their norms, the check
  that fits one to a state, and the read of tr(O rho_X) / tr rho_X off any
  reduced density matrix.
- ``generators``: product, perturbed-product and AKLT test families.
- ``patch``: ``patch_rdm``, one contraction of the patch's rho_X, which the
  estimator reads as tr(O rho_X) / tr rho_X at a fixed radius or up an
  adaptive ladder of radii; the paper's error bound.
- ``oracle``: exact expectation values, cross-checking rho_X reduced from
  the complex ket amplitudes of the lattice's two halves across a cut
  (the state-vector path) against ``patch_rdm`` at covering radius (the
  whole lattice).
- ``transfer``: transfer operators, spectra, correlation functions.
- ``parent``: 1D parent-Hamiltonian terms and gap scans; the SVD of each
  blocked chain window decides its injectivity, the package's one verdict.
- ``fileio`` / ``cli``: file formats (binary state files whose index is
  checked whole and whose site arrays are read on first use, so an
  estimate reads only its patch), result documents, command line.

Every numerical tolerance is a module constant, named once where it is
read: ``observables.HERMITIAN_ATOL`` (a Hermitian observable matrix),
``patch.LADDER_FLOOR`` (the adaptive ladder's machine-level stop),
``oracle.CROSS_CHECK_RTOL`` and ``CROSS_CHECK_ATOL`` (state vector against
network), ``oracle.HERMITIAN_IMAG_RTOL`` and ``HERMITIAN_IMAG_ATOL`` (the
imaginary part of a Hermitian value), ``transfer.UNIQUE_TOP_RTOL`` (a
unique top eigenvalue), ``transfer.FIT_SIGNAL_FLOOR`` (a decay fit's
signal), ``parent.INJECTIVITY_RTOL`` (every injectivity verdict),
``parent.DEGENERACY_TOL`` (a degenerate gap) and ``parent.RESIDUAL_TOL``
(the residual ||H psi|| of a gap scan's state, and an iterative
eigenpair's).
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
