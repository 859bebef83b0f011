"""Deterministic PEPS test families: product, perturbed product, AKLT.

All randomness flows through an explicit seed; equal inputs give
bit-identical states.
"""

from __future__ import annotations

import numpy as np

from .errors import ArgumentError, SizeBudgetError
from .lattice import LatticeSpec
from .network import DEFAULT_BUDGET
from .peps import PepsState

__all__ = ["random_injective_peps", "product_peps", "aklt_chain"]


def _product_tensor(n_legs: int, bond_dim: int, phys_dim: int) -> np.ndarray:
    """Product-state site map: unit physical vector, rank-1 virtual bra.

    Each leg carries a factor D**0.25 so that the two ends of an edge cancel
    the pair weight D**-0.5 and the assembled product state has norm 1.
    """
    shape = (phys_dim,) + (bond_dim,) * n_legs
    t = np.zeros(shape, dtype=np.complex128)
    t[(0,) + (0,) * n_legs] = bond_dim ** (0.25 * n_legs)
    return t


def random_injective_peps(
    lattice: LatticeSpec, bond_dim: int, phys_dim: int, eta: float, seed: int
) -> PepsState:
    """Product PEPS plus ``eta`` times an i.i.d. complex Gaussian tensor per site.

    At ``eta = 0`` this is an exact product state of ``|0>`` vectors with
    norm 1. Sites are perturbed in row-major order from a single seeded
    generator, so the construction is deterministic. A site array of more
    than ``network.DEFAULT_BUDGET`` entries is refused before any is made.
    """
    if bond_dim < 1 or phys_dim < 1:
        raise ArgumentError("bond and physical dimensions must be >= 1")
    if not 0 <= eta < np.inf:
        raise ArgumentError(f"eta must be finite and nonnegative, got {eta}")
    if seed < 0:
        raise ArgumentError(f"seed must be nonnegative, got {seed}")
    largest = phys_dim * bond_dim ** max(len(lattice.neighbors(s)) for s in lattice.sites())
    if largest > DEFAULT_BUDGET:
        raise SizeBudgetError(
            f"site array needs {largest} entries, budget is {DEFAULT_BUDGET}",
            predicted_size=largest,
        )
    rng = np.random.default_rng(seed)
    tensors = {}
    for s in lattice.sites():
        n_legs = len(lattice.neighbors(s))
        t = _product_tensor(n_legs, bond_dim, phys_dim)
        if eta > 0:
            re, im = rng.standard_normal((2,) + t.shape)
            t = t + eta * (re + 1j * im) / np.sqrt(2.0)
        tensors[s] = t
    return PepsState(lattice=lattice, tensors=tensors)


def product_peps(lattice: LatticeSpec, bond_dim: int = 1, phys_dim: int = 2) -> PepsState:
    """Pure product PEPS of ``|0>`` vectors."""
    return random_injective_peps(lattice, bond_dim, phys_dim, eta=0.0, seed=0)


def _triplet_map() -> np.ndarray:
    """Projector from two virtual qubits onto the spin-1 triplet, as a 3x4 map.

    Physical basis order is m = (+1, 0, -1); virtual pair index is row-major
    (a, b) over qubit basis (0, 1).
    """
    p = np.zeros((3, 4), dtype=np.complex128)
    p[0, 0] = 1.0
    p[1, 1] = p[1, 2] = 1.0 / np.sqrt(2.0)
    p[2, 3] = 1.0
    return p


# Gauge turning the edge pair sum_i |i,i> into a singlet on the left leg.
_SINGLET_GAUGE = np.array([[0.0, -1.0], [1.0, 0.0]], dtype=np.complex128)


def aklt_chain(n_sites: int) -> PepsState:
    """Spin-1 AKLT chain (d=3, D=2) with isometric boundary tensors.

    Bulk tensors are the triplet projector with the singlet gauge absorbed
    into the left leg. The boundary maps are isometries, so the doubled
    boundary vectors equal the transfer operator's fixed points and bulk
    expectation values carry no boundary corrections.
    """
    if n_sites < 2:
        raise ArgumentError(f"AKLT chain needs at least 2 sites, got {n_sites}")
    lattice = LatticeSpec((n_sites,))
    p = _triplet_map().reshape(3, 2, 2)  # (phys, left, right)
    bulk = np.einsum("slr,lm->smr", p, _SINGLET_GAUGE)
    # Boundary isometry: |0> -> |m=+1>, |1> -> |m=-1>.
    w = np.zeros((3, 2), dtype=np.complex128)
    w[0, 0] = 1.0
    w[2, 1] = 1.0
    tensors = {}
    for i in range(n_sites):
        if i == 0:
            t = w.copy()  # (phys, right)
        elif i == n_sites - 1:
            t = w @ _SINGLET_GAUGE  # (phys, left)
        else:
            t = bulk
        tensors[(i,)] = t
    return PepsState(lattice=lattice, tensors=tensors)
