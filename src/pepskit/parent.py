"""Frustration-free parent Hamiltonians for 1D chains and their gap scans.

Each local term projects onto the orthogonal complement of a blocked
window's image, so the chain state is annihilated term by term. Prefix
Hamiltonians treat the dangling right virtual leg as an extra physical leg,
making every prefix state the unique ground state of its own Hamiltonian.
A window gives a term only if its blocked map, from the virtual legs
crossing out of it to its physical legs, is injective. ``_window_term``
reads the map's thin SVD against ``INJECTIVITY_RTOL``; no other code in
the package decides injectivity.

Each Hamiltonian is assembled as a sparse matrix. Up to ``DENSE_CUTOFF`` it
is diagonalised densely with ``np.linalg.eigh``; above, ARPACK's implicitly
restarted Lanczos (``scipy.sparse.linalg.eigsh``; Lehoucq, Sorensen & Yang,
ARPACK Users' Guide, SIAM 1998) finds the two lowest eigenpairs from sparse
products alone. Dense cost grows as dim^3 and overtakes the sparse solve
between dimensions 108 and 125 (the measurements sit at ``DENSE_CUTOFF``).
Dimensions 2 and 3 always go dense: ARPACK's complex driver needs
``dim >= k + 2``. ARPACK can stall on a highly degenerate ground space; up
to ``DENSE_FALLBACK_MAX`` a stall falls back to the dense solver, above it
the stall is a ``NumericalError``.

``scipy.sparse`` and its ``linalg`` are imported where they are called, on
first use, so that importing the CLI for another command does not load them.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from .errors import ArgumentError, NotInjectiveError, NumericalError, SizeBudgetError
from .lattice import LatticeSpec
from .peps import PepsState, block, build_state_vector

__all__ = ["LocalTerm", "GapReport", "parent_terms", "assemble_and_gap", "uniform_gap_scan"]

# A blocked window map is injective when its smallest singular value on the
# virtual space exceeds INJECTIVITY_RTOL times its largest: a physical
# dimension below the virtual one, an all-zero or a NaN map never is.
INJECTIVITY_RTOL = 1e-8
# Dense eigh up to this Hilbert dimension, ARPACK's two lowest above. Median
# ms per solve, one BLAS thread; dense is eigh(h.toarray()), sparse is
# eigsh(k=2, which="SA") from the uniform v0, on prefix Hamiltonians:
#     dim   AKLT, dense / sparse   random d=3 D=2 seed 1, dense / sparse
#      18       0.06 / 1.0             0.07 / 0.95
#      54       0.53 / 1.2             0.56 / 1.2
#     162       9.2  / 2.9             8.8  / 8.1
#     486     200    / 11            211    / 23
#   1,458   6,978    / 24          7,412    / 80
#   4,374    214 s   / 66           217 s   / 342
#   6,561        -   / 123              -   / 602
# Between 54 and 162, on other seed-1 random chains (d, D): 64 (2, 4)
# 1.0 / 3.5; 72 (6, 2) 1.1 / 1.3; 108 (3, 4) 3.0 / 12.1, a small gap (0.03)
# that slows Lanczos; 125 (5, 2) 4.8 / 1.6; 128 (4, 2) 5.2 / 1.6; 128 (2, 2,
# seed 3, degenerate) 5.1 / 6.5. The crossover lies between 108 and 125.
# Dense solves above 486 were timed once.
DENSE_CUTOFF = 120
# ARPACK can fail to converge on a highly degenerate ground space (a random
# d=2 D=2 chain, multiplicity 64 at dim 512; whether it fails depends on the
# state of ARPACK's restart generator). Up to this dimension a dense solve
# takes at most about 4 minutes (dim 4,374 above), so it answers instead.
DENSE_FALLBACK_MAX = 4096
ITERATIVE_CUTOFF = 2**20
# Gap E1 - E0 below which the ground space is degenerate: above rounding of O(1) energies.
DEGENERACY_TOL = 1e-12
# |H v - E v| above which an ARPACK eigenpair is refused: ARPACK aims at machine precision.
RESIDUAL_TOL = 1e-8


@dataclass(frozen=True)
class LocalTerm:
    """Projector onto the complement of a window's blocked image."""

    projector: np.ndarray
    support: tuple[int, ...]


@dataclass(frozen=True)
class GapReport:
    """Lowest two levels of a parent Hamiltonian, or of a prefix scan's last prefix.

    ``ground_fidelity`` is |<ground|psi>|^2, or None when the ground space is
    degenerate (any ground vector could have been returned). ``solvers``
    counts the Hamiltonians each eigensolver answered: "dense", "iterative",
    and "none" for H = 0, which needs no solve.
    """

    chain_length: int
    ground_energy: float
    gap: float
    ground_fidelity: float | None
    uniform_min_gap: float | None = None
    warning: str | None = None
    solvers: dict[str, int] = field(default_factory=dict)


def _window_term(mps: PepsState, start: int, size: int) -> LocalTerm:
    bt = block(mps, [(i,) for i in range(start, start + size)])
    m = bt.reshape(bt.shape[0], -1)
    phys, virt = m.shape
    try:
        u, s, _ = np.linalg.svd(m, full_matrices=False)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"SVD did not converge on site map of shape {m.shape}") from exc
    # phys < virt leaves zero singular values on the virtual space.
    sigma_min = s[-1] if phys >= virt else 0.0
    if not sigma_min > INJECTIVITY_RTOL * s[0]:
        raise NotInjectiveError(
            f"window {start}..{start + size - 1} not injective after blocking "
            f"(sigma_min={sigma_min:.3e}, virtual dim {virt})"
        )
    # Injective means phys >= virt, so u spans the window's whole image.
    proj = np.eye(phys, dtype=np.complex128) - u @ u.conj().T
    proj = 0.5 * (proj + proj.conj().T)
    return LocalTerm(projector=proj, support=tuple(range(start, start + size)))


def parent_terms(mps: PepsState) -> list[LocalTerm]:
    """Local projector terms for a 1D chain, on windows of 2 sites or else 3.

    Windows of 2 sites are tried first; if any of them fails injectivity,
    windows of 3. If a 3-window fails too, its ``NotInjectiveError`` is
    raised.
    """
    if mps.lattice.dimension != 1:
        raise ArgumentError("parent Hamiltonians are built for 1D chains only")
    n = mps.lattice.n_sites
    for size in (2, 3):
        if n < size:
            raise ArgumentError(f"chain of {n} sites has no window of {size}")
        try:
            return [_window_term(mps, i, size) for i in range(n - size + 1)]
        except NotInjectiveError:
            if size == 3:
                raise


def _assemble_sparse(terms: list[LocalTerm], dims: list[int]) -> sp.csr_matrix:
    import scipy.sparse as sp

    total = int(np.prod(dims, dtype=np.int64))
    h = sp.csr_matrix((total, total), dtype=np.complex128)
    for term in terms:
        lo, hi = term.support[0], term.support[-1]
        window = int(np.prod(dims[lo : hi + 1], dtype=np.int64))
        if term.projector.shape != (window, window):
            raise ArgumentError(
                f"term at {lo} has dim {term.projector.shape[0]}, window needs {window}"
            )
        left = sp.identity(int(np.prod(dims[:lo], dtype=np.int64)), format="csr", dtype=np.complex128)
        right = sp.identity(int(np.prod(dims[hi + 1 :], dtype=np.int64)), format="csr", dtype=np.complex128)
        h = h + sp.kron(sp.kron(left, sp.csr_matrix(term.projector), format="csr"), right, format="csr")
    return h


def _two_lowest(h: sp.csr_matrix) -> tuple[np.ndarray, np.ndarray, str]:
    """Two lowest eigenpairs of Hermitian ``h`` and the solver that found them."""
    import scipy.sparse.linalg as spla

    dim = h.shape[0]
    if h.nnz == 0:
        vecs = np.zeros((dim, 2), dtype=np.complex128)
        vecs[0, 0] = vecs[1, 1] = 1.0
        return np.zeros(2), vecs, "none"
    if dim <= DENSE_CUTOFF or dim < 4:
        return _dense_two_lowest(h)
    v0 = np.full(dim, 1.0 / np.sqrt(dim))
    try:
        vals, vecs = spla.eigsh(h, k=2, which="SA", v0=v0)
    except spla.ArpackNoConvergence as exc:
        if dim <= DENSE_FALLBACK_MAX:
            return _dense_two_lowest(h)
        raise NumericalError("iterative eigensolver did not converge") from exc
    order = np.argsort(vals)
    vals, vecs = vals[order], vecs[:, order]
    for i in range(2):
        residual = np.linalg.norm(h @ vecs[:, i] - vals[i] * vecs[:, i])
        if residual > RESIDUAL_TOL:
            raise NumericalError(f"eigenpair {i} residual {residual:.2e} above {RESIDUAL_TOL}")
    return vals, vecs, "iterative"


def _dense_two_lowest(h: sp.csr_matrix) -> tuple[np.ndarray, np.ndarray, str]:
    vals, vecs = np.linalg.eigh(h.toarray())
    return vals[:2], vecs[:, :2], "dense"


def assemble_and_gap(terms: list[LocalTerm], mps: PepsState) -> GapReport:
    """Ground energy, spectral gap, and ground-state fidelity of sum of terms on ``mps``."""
    dims = [mps.tensors[(i,)].shape[0] for i in range(mps.lattice.n_sites)]
    total = int(np.prod(dims, dtype=np.int64))
    if total < 2:
        raise ArgumentError("a one-dimensional Hilbert space has no gap")
    if total > ITERATIVE_CUTOFF:
        raise SizeBudgetError(
            f"Hilbert dimension {total} above diagonalization cutoff {ITERATIVE_CUTOFF}",
            predicted_size=total,
        )
    h = _assemble_sparse(terms, dims)
    vals, vecs, solver = _two_lowest(h)
    gap = float(vals[1] - vals[0])
    degenerate = gap < DEGENERACY_TOL
    if h.nnz == 0:
        fidelity = 1.0  # H = 0: every state is a ground state
    elif degenerate:
        fidelity = None
    else:
        psi = build_state_vector(mps).reshape(-1)
        psi = psi / np.linalg.norm(psi)
        fidelity = min(1.0, float(abs(np.vdot(vecs[:, 0], psi)) ** 2))
    return GapReport(
        chain_length=mps.lattice.n_sites,
        ground_energy=float(vals[0]),
        gap=gap,
        ground_fidelity=fidelity,
        warning="degenerate ground space" if degenerate else None,
        solvers={solver: 1},
    )


def _prefix_chain(mps: PepsState, t: int) -> PepsState:
    """Sites 0..t-1 with the dangling right leg merged into the last physical leg."""
    n = mps.lattice.n_sites
    lattice = LatticeSpec((t,))
    tensors = {}
    for i in range(t):
        a = mps.tensors[(i,)]
        if i == t - 1 and t < n:
            # interior site (phys, left, right) -> end site (phys*right, left)
            a = a.transpose(0, 2, 1).reshape(a.shape[0] * a.shape[2], a.shape[1])
        tensors[(i,)] = a
    return PepsState(lattice=lattice, tensors=tensors)


def uniform_gap_scan(mps: PepsState, max_n: int) -> GapReport:
    """Minimum spectral gap over the family of prefix parent Hamiltonians.

    Scans prefixes of 2..max_n sites; the reported chain fields describe the
    largest prefix and ``uniform_min_gap`` the minimum over the family. The
    scan is numerical evidence for a uniform gap, not a proof.
    """
    if mps.lattice.dimension != 1:
        raise ArgumentError("uniform gap scan applies to 1D chains only")
    if not 2 <= max_n <= mps.lattice.n_sites:
        raise ArgumentError(f"max_n must lie in 2..{mps.lattice.n_sites}, got {max_n}")
    min_gap = None
    warning = None
    report = None
    solvers = Counter(dense=0, iterative=0)
    for t in range(2, max_n + 1):
        prefix = _prefix_chain(mps, t)
        terms = parent_terms(prefix)
        report = assemble_and_gap(terms, prefix)
        min_gap = report.gap if min_gap is None else min(min_gap, report.gap)
        if report.warning and warning is None:
            warning = f"prefix {t}: {report.warning}"
        solvers.update(report.solvers)
    return GapReport(
        chain_length=report.chain_length,
        ground_energy=report.ground_energy,
        gap=report.gap,
        ground_fidelity=report.ground_fidelity,
        uniform_min_gap=min_gap,
        warning=warning,
        solvers=dict(solvers),
    )
