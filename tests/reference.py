"""Test references independent of the code they check.

Each reference uses NumPy on a state's arrays alone: it imports from
``pepskit`` only data types (``test_api`` holds it to that), so it shares
no contraction, planning or pair-weight code with the package.
"""

import numpy as np

from pepskit.peps import PepsState


def state_vector(peps: PepsState) -> np.ndarray:
    """The state vector |w>, one axis per site in row-major order, pair weights included.

    The sites are absorbed in row-major order, one ``np.tensordot`` each,
    over the bonds they share with the sites before them. Independent of
    ``peps._single_layer``, ``network`` and ``PepsState.edge_volume``:
    each bond's weight D**-0.5 is read off the array shapes here.
    """
    lattice = peps.lattice
    psi, axes, weight = np.ones(()), [], 1.0
    for s in lattice.sites():
        legs = lattice.virtual_legs(s)
        shared = [e for e in legs if e in axes]
        psi = np.tensordot(psi, peps.tensors[s], axes=(
            [axes.index(e) for e in shared], [1 + legs.index(e) for e in shared]))
        axes = [a for a in axes if a not in shared] + [s] + [e for e in legs if e not in shared]
        weight *= np.prod([peps.tensors[s].shape[1 + legs.index(e)] ** -0.5 for e in shared])
    return psi * weight


def one_copy_rdm(state: np.ndarray, axes, dim: int) -> np.ndarray:
    """rho_X of a state tensor's ``axes`` from one copy of the whole state, the dense reference.

    The copy is a (dim, rest) matrix, the rest axes in memory order; each
    entry on and above the diagonal is one ``np.vdot`` of two rows, so the
    result is exactly Hermitian. Independent of every ``pepskit`` module.
    """
    rest = sorted(set(range(state.ndim)) - set(axes), key=lambda ax: -state.strides[ax])
    psi = np.transpose(state, list(axes) + rest).reshape(dim, -1)
    upper = np.zeros((dim, dim), dtype=np.complex128)
    for i, j in zip(*np.triu_indices(dim, 1)):
        upper[i, j] = np.vdot(psi[j], psi[i])
    return upper + upper.conj().T + np.diag([np.vdot(row, row).real for row in psi])
