"""Frustration-free parent Hamiltonians for 1D chains and their gap scans.

Each local term projects onto the orthogonal complement of a blocked
window's image, so the chain state is annihilated term by term. Prefix
Hamiltonians treat the dangling right virtual leg as an extra physical leg,
making every prefix state the unique ground state of its own Hamiltonian.
A window gives a term only if its blocked map, from the virtual legs
crossing out of it to its physical legs, is injective. ``_window_term``
reads the map's thin SVD against ``INJECTIVITY_RTOL``; no other code in
the package decides injectivity.

Each Hamiltonian H = sum_i 1 (x) P_i (x) 1 is applied matrix-free, by an
operator that has a ``shape``, a ``dtype`` and a product ``op @ x``: each
term is one matrix product on a (left, window, right) view of the vector,
in real arithmetic when every projector is real (AKLT) and complex
otherwise.

The scan knows the ground vector: psi, the prefix state, normalised. Every
P_i is a projector that annihilates psi, so H >= 0 and H psi = 0, and the
lowest level is E0 = <psi|H|psi> = 0. That premise is checked, not
assumed: ||H psi|| above ``RESIDUAL_TOL`` is a ``NumericalError``. The
next level E1 is the lowest of the rank-one deflated H + s |psi><psi|,
with s = the number of terms >= ||H||. The shift lifts psi's level to s
and leaves H unchanged on the complement of psi, whose lowest level E1 is
at most ||H|| <= s. A degenerate ground space leaves a second zero level
there, so E1 = E0 and the gap E1 - E0 reads as degenerate
(``DEGENERACY_TOL``). A solver thus looks for one eigenvalue, not two
near-equal ones, on which a two-lowest iterative solve can stall. The
hypothesis, a frustration-free parent whose kernel holds the state, is
that of Perez-Garcia, Verstraete, Wolf & Cirac, QIC 7, 401 (2007),
arXiv:quant-ph/0608197.

``ground_fidelity`` is a rigorous lower bound rather than an overlap with a
computed eigenvector. Write psi = a g + b phi, with g the ground vector and
phi in the span of the levels from lambda_1 up. Then ||H psi||^2 >= |b|^2
lambda_1^2, so |<g|psi>|^2 = 1 - |b|^2 >= 1 - ||H psi||^2 / lambda_1^2.
The deflated minimum E1 is at most lambda_1 and E0 >= 0, so the reported
1 - ||H psi||^2 / gap^2 is below that bound (floored at 0).

Up to ``DENSE_CUTOFF`` the deflated operator, applied to the identity, is
diagonalised with ``np.linalg.eigh``. Above, a restarted Lanczos iteration
(Lanczos, J. Res. Natl. Bur. Stand. 45, 255 (1950); Parlett, The Symmetric
Eigenvalue Problem, SIAM 1998, ch. 13) finds its lowest eigenvalue from
operator products alone, starting from a seeded random vector.

- Each cycle grows an orthonormal basis of at most ``LANCZOS_BASIS``
  vectors and the operator's real projection T onto it. Every new vector
  is reorthogonalised against the whole basis by two Gram-Schmidt passes.
- The cycle ends when the basis is full, or early when the norm beta of
  the next direction falls to ``LANCZOS_TOL`` (the Krylov space is
  invariant).
- The lowest Ritz pair is theta, the lowest eigenvalue of T
  (``np.linalg.eigvalsh``), and y, the last right singular vector of the
  positive semi-definite T - theta. No ``np.linalg.eigh`` runs here, so
  counting eigh calls counts the dense solves.
- The pair is accepted when its residual beta |y_m| is at most
  ``LANCZOS_TOL``. The eigenpair's residual is then computed from the
  operator and refused above ``RESIDUAL_TOL``.
- Otherwise the next cycle keeps the lowest half of the Ritz vectors and
  the next direction (thick restart: Wu & Simon, SIAM J. Matrix Anal.
  Appl. 22, 602 (2000)). T restarts as their Ritz values, each coupled to
  that direction by beta times its vector's last coefficient. Restarting
  from the lowest Ritz vector alone took up to twice the operator products
  on random chains.
- After ``LANCZOS_MAX_RESTARTS`` restarts the solve has failed.

The basis is the solve's memory: at ``ITERATIVE_CUTOFF`` (2^20 amplitudes)
it takes 20 x 2^20 x 16 bytes = 320 MiB complex, 160 MiB real, about what
ARPACK's default workspace of 20 vectors held for the same solve.

The uniform vector can be an eigenvector of the deflated operator (a ground
vector orthogonal to psi, as on a singlet chain); a Krylov space started
from it closes at once and holds only that vector's level, hence the
random start. Dense cost grows as dim^3; the iterative solve first wins
between dimensions 54 and 72 (the measurements sit at ``DENSE_CUTOFF``).
Dimensions 2 and 3 always go dense: a Krylov basis gains nothing on a 3 x 3
problem. If the Lanczos solve fails, a solve up to ``DENSE_FALLBACK_MAX``
falls back to the dense solver; above it the failure is a
``NumericalError``.

The module is numpy-only.
"""

from __future__ import annotations

import math
import time
from collections import Counter
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import ArgumentError, NotInjectiveError, NumericalError, SizeBudgetError
from .lattice import LatticeSpec
from .peps import PepsState, block, build_state_vector

__all__ = ["LocalTerm", "GapReport", "parent_terms", "assemble_and_gap", "uniform_gap_scan"]

# A blocked window map is injective when its smallest singular value on the
# virtual space exceeds INJECTIVITY_RTOL times its largest: a physical
# dimension below the virtual one, an all-zero or a NaN map never is.
INJECTIVITY_RTOL = 1e-8
# Dense eigh up to this Hilbert dimension, Lanczos above. Median ms per
# _two_lowest solve of the deflated operator, one BLAS thread, medians of 3
# processes; dense is eigh of the operator applied to the identity,
# iterative is _lanczos_lowest, on prefix Hamiltonians (AKLT real, random
# complex):
#     dim   AKLT, dense / iterative   random d=3 D=2 seed 1, dense / iterative
#      18       0.09 / 0.16               0.09 / 0.14
#      54       0.35 / 0.35               0.45 / 0.51
#     162       2.6  / 0.71               6.5  / 1.6
#     486      31    / 2.3              166    / 6.1
#   1,458     599    / 3.7            3,999    / 13
#   4,374        -   / 8.0                -    / 34
#   6,561        -   / 18                 -    / -
# Between 54 and 162, on other seed-1 random chains (d, D, prefix): 72 (6,
# 2, 2) 1.1 / 0.20; 108 (3, 4, 3) 2.8 / 2.1, a small gap (0.03) that slows
# Lanczos; 125 (5, 2, whole 3-site chain) 3.8 / 1.3; 128 (4, 2, 3) 3.8 /
# 0.62; 128 (2, 2, 6, seed 3, degenerate) 3.9 / 0.53. The crossover lies
# between 54 and 72. The cutoff stays at 120, set at ARPACK's crossover
# (108 to 125), so every dimension keeps its solver. Dense solves of dim
# 1,458 are medians of 3; dense eigh at 4,374 took 214 s with the earlier
# sparse-matrix assembly.
DENSE_CUTOFF = 120
# Should the Lanczos solve fail to converge, a dense solve up to this
# dimension answers instead; it takes at most about 4 minutes (dim 4,374 above).
DENSE_FALLBACK_MAX = 4096
# Vectors in a Lanczos basis: ARPACK's default ncv for one eigenvalue.
LANCZOS_BASIS = 20
# Ritz residual at which a Lanczos eigenpair is accepted; RESIDUAL_TOL then checks it.
LANCZOS_TOL = 1e-10
# Thick restarts before a Lanczos solve has failed: at most 3,020 operator
# products; the benchmark scans need at most 6 restarts.
LANCZOS_MAX_RESTARTS = 300
ITERATIVE_CUTOFF = 2**20
# Gap E1 - E0 below which the ground space is degenerate: above rounding of O(1) energies.
DEGENERACY_TOL = 1e-12
# ||H psi|| above which the state is refused as no ground vector, and |A v - E v|
# above which a Lanczos eigenpair of the deflated A is refused: both should
# sit at machine precision.
RESIDUAL_TOL = 1e-8


@dataclass(frozen=True)
class LocalTerm:
    """Projector onto the complement of a window's blocked image."""

    projector: np.ndarray
    support: tuple[int, ...]


@dataclass(frozen=True)
class GapReport:
    """Lowest two levels of a parent Hamiltonian, or of a prefix scan's last prefix.

    ``ground_fidelity`` is a lower bound on |<ground|psi>|^2, 1 - ||H psi||^2
    / gap^2 floored at 0 (module docstring), or None when the ground space
    is degenerate and has no single ground vector. ``solvers``
    counts the Hamiltonians each eigensolver answered: "dense", "iterative",
    and "none" for H = 0, which needs no solve. ``stage_times`` holds the
    wall seconds of each stage, summed over a scan's prefixes: ``terms``
    (a scan's ``parent_terms`` calls), ``assemble`` (the operator),
    ``state`` (the state vector psi) and ``eigensolve``.
    """

    chain_length: int
    ground_energy: float
    gap: float
    ground_fidelity: float | None
    uniform_min_gap: float | None = None
    warning: str | None = None
    solvers: dict[str, int] = field(default_factory=dict)
    stage_times: dict[str, float] = field(default_factory=dict)


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


@dataclass(frozen=True)
class _Operator:
    """A linear operator given by its product alone: ``shape``, ``dtype`` and ``op @ x``."""

    shape: tuple[int, int]
    dtype: np.dtype
    apply: Callable[[np.ndarray], np.ndarray]

    def __matmul__(self, x: np.ndarray) -> np.ndarray:
        return self.apply(x)


def _assemble_sparse(terms: list[LocalTerm], dims: list[int]) -> _Operator:
    """H = sum of 1 (x) P (x) 1 over ``terms``, applied matrix-free.

    Each term is one matrix product on a (left, window, right) view of the
    vector or block. The operator is real when every projector is.
    """
    total = math.prod(dims)
    real = not any(np.any(term.projector.imag) for term in terms)
    dtype = np.dtype(np.float64 if real else np.complex128)
    factors = []
    for term in terms:
        lo, hi = term.support[0], term.support[-1]
        window = math.prod(dims[lo : hi + 1])
        if term.projector.shape != (window, window):
            raise ArgumentError(
                f"term at {lo} has dim {term.projector.shape[0]}, window needs {window}"
            )
        p = term.projector.real if real else term.projector
        factors.append((math.prod(dims[:lo]), window, np.ascontiguousarray(p, dtype=dtype)))

    def apply(x: np.ndarray) -> np.ndarray:
        y = np.zeros(x.shape, dtype=np.result_type(dtype, x.dtype))
        for left, window, p in factors:
            # (left, window, right x columns): a stack of left products p @ x_l,
            # or one product x @ p^T when nothing lies right of the window.
            xv, yv = x.reshape(left, window, -1), y.reshape(left, window, -1)
            if xv.shape[2] == 1:
                yv[:, :, 0] += xv[:, :, 0] @ p.T
            else:
                yv += p @ xv
        return y

    return _Operator((total, total), dtype, apply)


def _two_lowest(h: _Operator, psi: np.ndarray, shift: float) -> tuple[float, float, float, str]:
    """E0, E1 and the residual ||H psi|| of Hermitian ``h`` with ground vector ``psi``.

    ``psi`` is a unit vector that ``h`` annihilates, and ``shift`` is at
    least ||h||. E1 is the lowest level of h + shift |psi><psi|, found by
    the solver named last.
    """
    h_psi = h @ psi
    residual = float(np.linalg.norm(h_psi))
    if residual > RESIDUAL_TOL:
        raise NumericalError(f"state is not annihilated by its Hamiltonian: ||H psi|| = {residual:.2e}")
    e0 = float(np.vdot(psi, h_psi).real)
    if not np.any(psi.imag):
        psi = np.ascontiguousarray(psi.real)

    def deflated(x: np.ndarray) -> np.ndarray:
        # x is a vector or a block of columns.
        return h @ x + shift * np.multiply.outer(psi, psi.conj() @ x)

    dim = h.shape[0]
    op = _Operator(h.shape, np.result_type(h.dtype, psi.dtype), deflated)
    if dim <= DENSE_CUTOFF or dim < 4:
        return e0, _dense_lowest(op), residual, "dense"
    # A generic start vector: the uniform one can be an eigenvector (module docstring).
    v0 = np.random.default_rng(0).standard_normal(dim)
    lowest = _lanczos_lowest(op, v0)
    if lowest is None:
        if dim <= DENSE_FALLBACK_MAX:
            return e0, _dense_lowest(op), residual, "dense"
        raise NumericalError("iterative eigensolver did not converge")
    e1, v = lowest
    eig_residual = np.linalg.norm(op @ v - e1 * v)
    if eig_residual > RESIDUAL_TOL:
        raise NumericalError(f"eigenpair residual {eig_residual:.2e} above {RESIDUAL_TOL}")
    return e0, e1, residual, "iterative"


def _lanczos_lowest(op: _Operator, v0: np.ndarray) -> tuple[float, np.ndarray] | None:
    """Lowest eigenpair of Hermitian ``op`` by restarted Lanczos from ``v0``.

    None when ``LANCZOS_MAX_RESTARTS`` restarts leave the Ritz residual
    above ``LANCZOS_TOL`` (module docstring).
    """
    dim = op.shape[0]
    size = min(LANCZOS_BASIS, dim)
    keep = size // 2
    basis = np.empty((size, dim), dtype=op.dtype)
    t = np.zeros((size, size))
    basis[0] = v0 / np.linalg.norm(v0)
    start = 1
    for _ in range(LANCZOS_MAX_RESTARTS + 1):
        for m in range(start, size + 1):
            w = op @ basis[m - 1]
            # Full reorthogonalisation: two Gram-Schmidt passes against the
            # whole basis (conjugating w, not the basis, saves a copy).
            coeffs = (basis[:m] @ w.conj()).conj()
            w -= coeffs @ basis[:m]
            w -= (basis[:m] @ w.conj()).conj() @ basis[:m]
            t[m - 1, m - 1] = coeffs[-1].real
            beta = float(np.linalg.norm(w))
            if m == size or beta <= LANCZOS_TOL:
                break
            basis[m] = w / beta
            t[m - 1, m] = t[m, m - 1] = beta
        # Ritz pairs without eigh, which the tracer and tests count as dense
        # solves: theta is t's lowest eigenvalue, and t - theta >= 0, so its
        # SVD is its eigendecomposition, vh's rows from the last up the Ritz
        # vectors from the lowest up.
        theta = float(np.linalg.eigvalsh(t[:m, :m])[0])
        _, s, vh = np.linalg.svd(t[:m, :m] - theta * np.eye(m))
        if beta * abs(vh[-1, -1]) <= LANCZOS_TOL:
            v = vh[-1] @ basis[:m]
            return theta, v / np.linalg.norm(v)
        # Thick restart from the lowest Ritz vectors, each coupled to the
        # residual direction w by beta times its last coefficient.
        y = vh[::-1][:keep]
        basis[:keep] = y @ basis[:m]
        basis[keep] = w / beta
        t[:] = 0.0
        t[:keep, :keep] = np.diag(theta + s[::-1][:keep])
        t[:keep, keep] = t[keep, :keep] = beta * y[:, -1]
        start = keep + 1
    return None


def _dense_lowest(op: _Operator) -> float:
    """Lowest eigenvalue of ``op``, from ``np.linalg.eigh`` of its matrix."""
    vals, _ = np.linalg.eigh(op @ np.eye(op.shape[0], dtype=op.dtype))
    return float(vals[0])


def assemble_and_gap(terms: list[LocalTerm], mps: PepsState) -> GapReport:
    """Ground energy, spectral gap, and ground-state fidelity of sum of terms on ``mps``.

    Each term must be a projector that annihilates the state of ``mps``
    (checked: ``NumericalError`` otherwise), so that the state is a ground
    vector of their sum.
    """
    dims = [mps.tensors[(i,)].shape[0] for i in range(mps.lattice.n_sites)]
    total = math.prod(dims)
    if total < 2:
        raise ArgumentError("a one-dimensional Hilbert space has no gap")
    if total > ITERATIVE_CUTOFF:
        raise SizeBudgetError(
            f"Hilbert dimension {total} above diagonalization cutoff {ITERATIVE_CUTOFF}",
            predicted_size=total,
        )
    t0 = time.perf_counter()
    h = _assemble_sparse(terms, dims)
    t_state = time.perf_counter()
    if not any(np.any(term.projector) for term in terms):
        # H = 0: every state is a ground state, and no solve is needed.
        return GapReport(
            chain_length=mps.lattice.n_sites, ground_energy=0.0, gap=0.0, ground_fidelity=1.0,
            warning="degenerate ground space", solvers={"none": 1},
            stage_times={"assemble": t_state - t0},
        )
    psi = build_state_vector(mps).reshape(-1)
    psi = psi / np.linalg.norm(psi)
    t_solve = time.perf_counter()
    e0, e1, residual, solver = _two_lowest(h, psi, float(len(terms)))
    t_end = time.perf_counter()
    gap = max(0.0, e1 - e0)
    degenerate = gap < DEGENERACY_TOL
    return GapReport(
        chain_length=mps.lattice.n_sites,
        ground_energy=e0,
        gap=gap,
        ground_fidelity=None if degenerate else max(0.0, 1.0 - (residual / gap) ** 2),
        warning="degenerate ground space" if degenerate else None,
        solvers={solver: 1},
        stage_times={"assemble": t_state - t0, "state": t_solve - t_state, "eigensolve": t_end - t_solve},
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
    stage_times = Counter(terms=0.0, assemble=0.0, state=0.0, eigensolve=0.0)
    for t in range(2, max_n + 1):
        prefix = _prefix_chain(mps, t)
        t0 = time.perf_counter()
        terms = parent_terms(prefix)
        stage_times["terms"] += time.perf_counter() - t0
        report = assemble_and_gap(terms, prefix)
        stage_times.update(report.stage_times)
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
        stage_times=dict(stage_times),
    )
