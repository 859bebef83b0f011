"""Operator norms of observable matrices."""

import numpy as np
import pytest

from pepskit.errors import ArgumentError
from pepskit.observables import operator_norm


def test_operator_norm_pauli_z():
    assert operator_norm(np.diag([1.0, -1.0])) == pytest.approx(1.0)


def test_operator_norm_scaled_identity():
    assert operator_norm(5.0 * np.eye(3)) == pytest.approx(5.0)


def test_operator_norm_hermitian_matches_eigenvalues():
    rng = np.random.default_rng(7)
    a = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    h = a + a.conj().T
    expected = np.max(np.abs(np.linalg.eigvalsh(h)))
    assert operator_norm(h) == pytest.approx(expected, rel=1e-10)


def test_operator_norm_requires_square():
    with pytest.raises(ArgumentError):
        operator_norm(np.ones((2, 3)))
