"""Hypothesis settings for the test suite: the same examples on every run,
and the shared fixtures: an overflowing state, an identity observable and
the dense reduction of a state vector to rho_X."""

import numpy as np
import pytest
from hypothesis import settings

from pepskit.lattice import LatticeSpec
from pepskit.observables import Observable
from pepskit.peps import PepsState

settings.register_profile("deterministic", derandomize=True, deadline=None, database=None)
settings.load_profile("deterministic")


@pytest.fixture
def overflowing_chain():
    """3-site D=1 chain of site vectors (1e200, 0); its norm overflows floats."""
    lat = LatticeSpec((3,))
    big = np.array([1e200, 0.0])
    tensors = {
        s: big.reshape((2,) + (1,) * len(lat.virtual_legs(s))) for s in lat.sites()
    }
    return PepsState(lat, tensors)


@pytest.fixture
def identity_observable():
    """Factory of the identity observable on ``sites``, each of physical dimension ``phys_dim``."""

    def make(sites, phys_dim):
        return Observable(sites=tuple(sites), matrix=np.eye(phys_dim ** len(sites), dtype=np.complex128))

    return make


def _one_copy_rdm(state, axes, dim):
    rest = sorted(set(range(state.ndim)) - set(axes), key=lambda ax: -state.strides[ax])
    psi = np.transpose(state, list(axes) + rest).reshape(dim, -1)
    upper = np.zeros((dim, dim), dtype=np.complex128)
    for i, j in zip(*np.triu_indices(dim, 1)):
        upper[i, j] = np.vdot(psi[j], psi[i])
    return upper + upper.conj().T + np.diag([np.vdot(row, row).real for row in psi])


@pytest.fixture(scope="session")
def one_copy_rdm():
    """rho_X of a state tensor's ``axes`` from one copy of the whole state, the dense reference.

    The copy is a (dim, rest) matrix, the rest axes in memory order; each
    entry on and above the diagonal is one ``np.vdot`` of two rows, so the
    result is exactly Hermitian. Session-scoped, so hypothesis tests can
    take it.
    """
    return _one_copy_rdm
