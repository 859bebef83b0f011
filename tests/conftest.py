"""Hypothesis settings for the test suite: the same examples on every run,
and the shared overflowing-state fixture."""

import numpy as np
import pytest
from hypothesis import settings

from pepskit.lattice import LatticeSpec
from pepskit.peps import PepsState, SiteTensor

settings.register_profile("deterministic", derandomize=True, deadline=None, database=None)
settings.load_profile("deterministic")


@pytest.fixture
def overflowing_chain():
    """3-site D=1 chain of site vectors (1e200, 0); its norm overflows floats."""
    lat = LatticeSpec(1, (3,))
    big = np.array([1e200, 0.0])
    tensors = {
        s: SiteTensor(s, big.reshape((2,) + (1,) * len(lat.virtual_legs(s)))) for s in lat.sites()
    }
    return PepsState(lat, tensors)
