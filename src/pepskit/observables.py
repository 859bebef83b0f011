"""Observables on small site sets, with named single-site presets."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ArgumentError, NumericalError
from .lattice import Site
from .network import as_tensor

__all__ = ["Observable", "PAULI", "SPIN1", "preset_matrix", "identity_observable", "operator_norm"]

# Largest observable support accepted, matching the constant-k restriction.
MAX_SUPPORT = 4

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
    if name in PAULI:
        return PAULI[name].copy()
    if name in SPIN1:
        return SPIN1[name].copy()
    raise ArgumentError(f"unknown observable preset {name!r}")


@dataclass(frozen=True)
class Observable:
    """A Hermitian-or-not operator on an ordered tuple of support sites.

    ``matrix`` is indexed row-major over the sites in ``sites`` order; its
    dimension must equal the product of the support sites' physical
    dimensions, which ``oracle.check_observable`` verifies against a state.
    ``hermitian`` and ``op_norm`` are derived at construction.
    """

    sites: tuple[Site, ...]
    matrix: np.ndarray
    hermitian: bool = field(init=False)
    op_norm: float = field(init=False)

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
        object.__setattr__(self, "matrix", m)
        herm = bool(np.allclose(m, m.conj().T, atol=1e-12, rtol=0.0))
        object.__setattr__(self, "hermitian", herm)
        object.__setattr__(self, "op_norm", operator_norm(m))

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def is_identity(self) -> bool:
        return bool(np.array_equal(self.matrix, np.eye(self.dim)))


def identity_observable(sites, phys_dim: int) -> Observable:
    sites = tuple(tuple(s) for s in sites)
    return Observable(sites=sites, matrix=np.eye(phys_dim ** len(sites), dtype=np.complex128))


def kron_observable(oa: Observable, ob: Observable) -> Observable:
    """Join two observables on disjoint supports into one (sites of A then B)."""
    if set(oa.sites) & set(ob.sites):
        raise ArgumentError("observable supports overlap")
    return Observable(sites=oa.sites + ob.sites, matrix=np.kron(oa.matrix, ob.matrix))
