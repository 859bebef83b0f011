"""Transfer operators on the doubled virtual space and their spectra.

The per-site operator maps the doubled left bond to the doubled right bond,
index order ket-before-bra. Correlation functions are evaluated through
operator powers; the gap ratio of the spectrum controls their decay.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ArgumentError, DegenerateFitError, NumericalError
from .network import as_tensor, contract_network
from .peps import PepsState, _doubled_network, _hermitian_operator

__all__ = [
    "TransferOperator",
    "SpectrumReport",
    "site_transfer_operator",
    "strip_transfer_operator",
    "dressed_transfer",
    "spectrum",
    "transfer_correlation",
    "decay_fit",
]

# Strip columns wider than this are out of exact-contraction reach.
STRIP_WIDTH_CUTOFF = 4
# |l1| - |l2| relative to |l1| above which the top eigenvalue is unique: above eigvals' rounding.
UNIQUE_TOP_RTOL = 1e-10
# Connected correlators all below this modulus carry no signal to fit: ~50 ulps of 1.
FIT_SIGNAL_FLOOR = 1e-14


@dataclass(frozen=True)
class TransferOperator:
    matrix: np.ndarray

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    @cached_property
    def _eigenvalues(self) -> np.ndarray:
        # One eigendecomposition per operator: the spectrum and every
        # normalised power share it.
        return np.linalg.eigvals(self.matrix)


@dataclass(frozen=True)
class SpectrumReport:
    lambda1: complex
    lambda2: complex
    ratio: float
    decay_rate: float
    unique_top: bool


def site_transfer_operator(a: np.ndarray) -> TransferOperator:
    """Doubled-space operator of one MPS site's array: sum_i a[i] (x) conj(a[i])."""
    if a.ndim != 3:
        raise ArgumentError(
            "site transfer operator needs an interior MPS site (two virtual legs), "
            f"got rank {a.ndim}"
        )
    return dressed_transfer(a, np.eye(a.shape[0]))


def dressed_transfer(a: np.ndarray, o: np.ndarray) -> TransferOperator:
    """Transfer operator with a single-site operator between ket and bra.

    Sums O_ji a[i] (x) conj(a[j]) over ket index i and bra index j.
    """
    if a.ndim != 3:
        raise ArgumentError(f"dressed transfer needs an MPS site, got rank {a.ndim}")
    o = as_tensor(o)
    if o.shape != (a.shape[0], a.shape[0]):
        raise ArgumentError(f"operator shape {o.shape} does not match physical dim {a.shape[0]}")
    e = np.einsum("ial,ji,jbm->ablm", a, o, a.conj())
    return TransferOperator(matrix=e.reshape(a.shape[1] ** 2, a.shape[2] ** 2))


def strip_transfer_operator(peps: PepsState, column_index: int, width: int) -> TransferOperator:
    """Column-to-column operator of a 2D PEPS strip of ``width`` rows.

    Vertical bonds inside the strip are contracted with their pair weights,
    each ``1/D`` with its own extent ``D``; a vertical bond leaving the strip
    is closed ket-against-bra. The row index merges ket rows 0..width-1 then
    bra rows, ket block major, over the left bonds; the column index does
    the same over the right bonds, so the matrix is square only when the
    two products of bond extents match. The strip is contracted in the
    Hermitian bond basis of ``peps._doubled_network`` and its open bonds
    mapped back to ket and bra indices.
    """
    if peps.lattice.dimension != 2:
        raise ArgumentError("strip transfer operator needs a 2D PEPS")
    n_rows, n_cols = peps.lattice.extents
    if not 0 < column_index < n_cols - 1:
        raise ArgumentError(
            f"column {column_index} must be interior (have neighbours on both sides)"
        )
    if not 1 <= width <= min(STRIP_WIDTH_CUTOFF, n_rows):
        raise ArgumentError(
            f"width {width} outside 1..{min(STRIP_WIDTH_CUTOFF, n_rows)}"
        )
    sites = [(r, column_index) for r in range(width)]
    internal = list(zip(sites, sites[1:]))
    leaving = [(sites[-1], (width, column_index))] if width < n_rows else []
    tensors, labels = _doubled_network(peps, (), patch=sites, closure=leaving)
    left = [((r, column_index - 1), s) for r, s in enumerate(sites)]
    right = [(s, (r, column_index + 1)) for r, s in enumerate(sites)]
    coefficients = contract_network(tensors, labels, output=[("e", e) for e in left + right])
    d_left, d_right = peps.edge_volume(left), peps.edge_volume(right)
    # Ket legs then bra legs, each left then right, to (ket, bra) left by right.
    out = _hermitian_operator(coefficients).reshape(d_left, d_right, d_left, d_right)
    out = out.transpose(0, 2, 1, 3) * float(peps.edge_volume(internal)) ** -1
    return TransferOperator(matrix=out.reshape(d_left * d_left, d_right * d_right))


def spectrum(e: TransferOperator) -> SpectrumReport:
    """Eigenvalues sorted by modulus and the gap ratio |l2/l1|.

    A modulus-degenerate top is reported as ``unique_top=False`` with ratio
    1 rather than as an error: it diagnoses non-injectivity.
    """
    m = e.matrix
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ArgumentError(f"transfer operator matrix must be square, got {m.shape}")
    if not np.all(np.isfinite(m)):
        raise NumericalError("transfer operator contains non-finite entries")
    try:
        evs = e._eigenvalues
    except np.linalg.LinAlgError as exc:
        raise NumericalError("eigendecomposition failed") from exc
    evs = evs[np.argsort(-np.abs(evs), kind="stable")]
    lambda1 = complex(evs[0])
    lambda2 = complex(evs[1]) if len(evs) > 1 else 0j
    if abs(lambda1) == 0:
        ratio = 1.0 if len(evs) > 1 else 0.0
        unique = False
    else:
        ratio = abs(lambda2) / abs(lambda1)
        unique = (abs(lambda1) - abs(lambda2)) > UNIQUE_TOP_RTOL * abs(lambda1)
    decay_rate = -math.log(ratio) if ratio > 0 else math.inf
    return SpectrumReport(
        lambda1=lambda1, lambda2=lambda2, ratio=ratio, decay_rate=decay_rate, unique_top=unique
    )


def _normalised_power_base(e: TransferOperator) -> tuple[np.ndarray, float]:
    """Matrix rescaled by its top eigenvalue modulus, and that modulus."""
    top = float(np.max(np.abs(e._eigenvalues)))
    if top == 0:
        raise ArgumentError("transfer operator is zero")
    return e.matrix / top, top


def transfer_correlation(
    e: TransferOperator, e_oa: TransferOperator, e_ob: TransferOperator, x: int, length: int
) -> complex:
    """tr(e_OA e^x e_OB e^(L-x-2)) / tr(e^L) with x plain sites in between."""
    for other in (e_oa, e_ob):
        if other.dim != e.dim:
            raise ArgumentError(
                f"dressed operator dim {other.dim} does not match transfer dim {e.dim}"
            )
    if not 0 <= x <= length - 2:
        raise ArgumentError(f"need 0 <= x <= L-2, got x={x}, L={length}")
    m, top = _normalised_power_base(e)
    # Dressings scale linearly with the site tensor pair, same unit as e.
    a = e_oa.matrix / top
    b = e_ob.matrix / top
    num = np.trace(a @ np.linalg.matrix_power(m, x) @ b @ np.linalg.matrix_power(m, length - x - 2))
    den = np.trace(np.linalg.matrix_power(m, length))
    if den == 0:
        raise ArgumentError("transfer operator trace vanishes; correlation undefined")
    return complex(num / den)


def _single_expectation(e: TransferOperator, e_o: TransferOperator, length: int) -> complex:
    m, top = _normalised_power_base(e)
    num = np.trace((e_o.matrix / top) @ np.linalg.matrix_power(m, length - 1))
    den = np.trace(np.linalg.matrix_power(m, length))
    return complex(num / den)


def decay_fit(
    e: TransferOperator, e_oa: TransferOperator, e_ob: TransferOperator, xs, joints, length: int
) -> tuple[float, float]:
    """Least-squares decay rate of ln|connected correlator| over ``xs``.

    ``joints`` are the correlations :func:`transfer_correlation` gives at
    ``xs``, at least two of them. Returns ``(rate, r_squared)`` with
    ``rate`` the positive decay constant per site. All-zero connected
    correlators raise DegenerateFitError.
    """
    if len(xs) < 2:
        raise ArgumentError("decay fit needs at least two separations")
    mean_a = _single_expectation(e, e_oa, length)
    mean_b = _single_expectation(e, e_ob, length)
    conns = [joint - mean_a * mean_b for joint in joints]
    mags = np.abs(conns)
    if np.all(mags < FIT_SIGNAL_FLOOR):
        raise DegenerateFitError("connected correlators vanish over the whole range")
    logs = np.log(mags)
    slope, intercept = np.polyfit(xs, logs, 1)
    fitted = slope * np.asarray(xs) + intercept
    ss_res = float(np.sum((logs - fitted) ** 2))
    ss_tot = float(np.sum((logs - np.mean(logs)) ** 2))
    r_squared = 1.0 if ss_tot == 0 else 1.0 - ss_res / ss_tot
    return float(-slope), r_squared
