"""Observables on small site sets, with named single-site presets.

Also the two rules every expectation value shares: :func:`check_observable`
fits an observable to a state, and :func:`expectation_from_rdm` reads
tr(O rho_X) / tr rho_X off an unnormalised reduced density matrix, whether
it came from a patch, the whole-lattice double layer or the state vector.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import ArgumentError, NumericalError
from .lattice import Site
from .network import as_tensor
from .peps import PepsState

__all__ = [
    "Observable",
    "PAULI",
    "SPIN1",
    "PRESETS",
    "preset_matrix",
    "operator_norm",
    "check_observable",
    "expectation_from_rdm",
]

# Largest observable support accepted, matching the constant-k restriction.
MAX_SUPPORT = 4
# Entrywise |M - M^H| up to which a matrix is Hermitian: ~5e3 ulps of an O(1) entry.
HERMITIAN_ATOL = 1e-12

PAULI = {
    "pauli-x": np.array([[0, 1], [1, 0]], dtype=np.complex128),
    "pauli-y": np.array([[0, -1j], [1j, 0]], dtype=np.complex128),
    "pauli-z": np.array([[1, 0], [0, -1]], dtype=np.complex128),
}

_SQRT2 = np.sqrt(2.0)
SPIN1 = {
    # Spin-1 operators in the m = (+1, 0, -1) basis.
    "s_x": np.array([[0, 1, 0], [1, 0, 1], [0, 1, 0]], dtype=np.complex128) / _SQRT2,
    "s_y": np.array([[0, -1j, 0], [1j, 0, -1j], [0, 1j, 0]], dtype=np.complex128) / _SQRT2,
    "s_z": np.diag([1.0, 0.0, -1.0]).astype(np.complex128),
}
PRESETS = {**PAULI, **SPIN1}


def operator_norm(m: np.ndarray) -> float:
    """Largest singular value of a square matrix."""
    m = as_tensor(m)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ArgumentError(f"operator_norm expects a square matrix, got shape {m.shape}")
    try:
        return float(np.linalg.svd(m, compute_uv=False)[0])
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"SVD did not converge on shape {m.shape}") from exc


def preset_matrix(name: str) -> np.ndarray:
    """Look up a named single-site operator (pauli-x/y/z, s_x/y/z)."""
    if name not in PRESETS:
        raise ArgumentError(f"unknown observable preset {name!r}")
    return PRESETS[name].copy()


@dataclass(frozen=True)
class Observable:
    """A Hermitian-or-not operator on an ordered tuple of support sites.

    ``matrix`` is indexed row-major over the sites in ``sites`` order; its
    dimension must equal the product of the support sites' physical
    dimensions, which :func:`check_observable` verifies against a state.
    Construction refuses an empty or non-finite matrix; ``hermitian`` and
    ``op_norm`` are computed on first read, as few queries read them.
    """

    sites: tuple[Site, ...]
    matrix: np.ndarray

    def __post_init__(self):
        sites = tuple(tuple(s) for s in self.sites)
        object.__setattr__(self, "sites", sites)
        if not 1 <= len(sites) <= MAX_SUPPORT:
            raise ArgumentError(
                f"observable support must have 1..{MAX_SUPPORT} sites, got {len(sites)}"
            )
        if len(set(sites)) != len(sites):
            raise ArgumentError(f"repeated support sites: {sites}")
        m = as_tensor(self.matrix)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ArgumentError(f"observable matrix must be square, got shape {m.shape}")
        if m.size == 0:
            raise ArgumentError("observable matrix is empty")
        if not np.isfinite(m).all():
            raise ArgumentError("observable matrix has a non-finite entry")
        object.__setattr__(self, "matrix", m)

    @functools.cached_property
    def hermitian(self) -> bool:
        return bool(np.allclose(self.matrix, self.matrix.conj().T, atol=HERMITIAN_ATOL, rtol=0.0))

    @functools.cached_property
    def op_norm(self) -> float:
        return operator_norm(self.matrix)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


def kron_observable(oa: Observable, ob: Observable) -> Observable:
    """Join two observables on disjoint supports into one (sites of A then B)."""
    if set(oa.sites) & set(ob.sites):
        raise ArgumentError("observable supports overlap")
    return Observable(sites=oa.sites + ob.sites, matrix=np.kron(oa.matrix, ob.matrix))


def check_observable(peps: PepsState, obs: Observable):
    """Raise ArgumentError unless ``obs`` fits the lattice and its physical legs.

    Every support site must lie in the lattice, and the matrix dimension
    must equal the product of the support sites' physical dimensions.
    """
    for s in obs.sites:
        if not peps.lattice.contains(s):
            raise ArgumentError(f"observable site {s} outside lattice")
    dims = [peps.tensors[s].shape[0] for s in obs.sites]
    if obs.dim != math.prod(dims):
        raise ArgumentError(
            f"observable dimension {obs.dim} does not match the support's physical dims {dims}"
        )


def expectation_from_rdm(rho: np.ndarray, obs: Observable, what: str) -> tuple[complex, complex]:
    """``(tr(O rho) / tr rho, tr rho)`` of an unnormalised reduced density matrix.

    A zero norm raises ArgumentError, a non-finite norm or value
    NumericalError; ``what`` names the source in the message.
    """
    den = complex(np.trace(rho))
    if den == 0:
        raise ArgumentError(f"{what} has zero norm")
    num = complex(np.trace(obs.matrix @ rho))
    value = num / den
    if not (cmath.isfinite(den) and cmath.isfinite(value)):
        raise NumericalError(f"{what} norm or value overflowed: {num} / {den}")
    return value, den
