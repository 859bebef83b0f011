"""Hypothesis settings for the test suite: the same examples on every run,
and the shared fixtures: an overflowing state and an identity observable.
The dense references are in ``reference.py``."""

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
