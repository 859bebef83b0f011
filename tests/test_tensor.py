"""Dense tensor numerics: tensor products of small networks and the site-map
SVD with its injectivity verdict and left inverse."""

import numpy as np
import pytest

from pepskit.errors import NotInjectiveError
from pepskit.lattice import LatticeSpec
from pepskit.network import contract_network
from pepskit.peps import (
    PepsState,
    SiteTensor,
    build_state_vector,
    disentangle_site,
    injectivity_check,
    site_map_svd,
)


def _site(m):
    return SiteTensor((0,), np.asarray(m))


def _pair_peps(a):
    """1x2 lattice: site (0,0) carries the map ``a`` (phys x D), site (0,1) the identity."""
    d = a.shape[1]
    tensors = {(0, 0): SiteTensor((0, 0), a), (0, 1): SiteTensor((0, 1), np.eye(d))}
    return PepsState(lattice=LatticeSpec(2, (1, 2)), tensors=tensors)


def _disentangled_pair(a):
    """Left-invert site (0,0) of the pair state; an exact left inverse gives the bare pair."""
    peps = _pair_peps(a)
    state = build_state_vector(peps)
    return disentangle_site(state / np.linalg.norm(state), peps, (0, 0)), state


def test_tensor_product_scalars():
    out = contract_network([np.array(2.0), np.array(3.0)], [[], []])
    assert out.shape == ()
    assert out == pytest.approx(6.0)


def test_tensor_product_basis_vectors():
    out = contract_network(
        [np.array([1.0, 0.0]), np.array([0.0, 1.0])], [["i"], ["j"]], output=["i", "j"]
    )
    expected = np.zeros((2, 2))
    expected[0, 1] = 1.0
    np.testing.assert_array_equal(out, expected)


def test_tensor_product_pair_norms_multiply():
    phi = np.array([[1.0, 0.0], [0.0, 1.0]]) / np.sqrt(2.0)  # norm-1 pair
    out = contract_network([phi, phi], [["a", "b"], ["c", "d"]], output=["a", "b", "c", "d"])
    assert out.shape == (2, 2, 2, 2)
    assert np.linalg.norm(out) == pytest.approx(1.0)


def test_svd_identity():
    _, s, _ = site_map_svd(_site(np.eye(3)))
    np.testing.assert_allclose(s, np.ones(3))
    assert injectivity_check(_site(np.eye(3))).injective


def test_svd_rank_deficient():
    _, s, _ = site_map_svd(_site(np.diag([2.0, 0.0])))
    np.testing.assert_allclose(s, [2.0, 0.0])
    assert not injectivity_check(_site(np.diag([2.0, 0.0]))).injective


def test_svd_reconstruction():
    rng = np.random.default_rng(3)
    m = rng.standard_normal((4, 3)) + 1j * rng.standard_normal((4, 3))
    u, s, v_dag = site_map_svd(_site(m))
    assert injectivity_check(_site(m)).injective
    recon = (u * s) @ v_dag
    assert np.max(np.abs(recon - m)) < 1e-10 * s[0]
    assert np.all(np.diff(s) <= 0)


def test_svd_tensor_row_split():
    # the virtual legs merge into one column index; sigma is padded up to it
    rng = np.random.default_rng(4)
    t = rng.standard_normal((2, 3, 4))
    u, s, v_dag = site_map_svd(_site(t))
    assert u.shape == (2, 2)
    assert v_dag.shape == (2, 12)
    assert s.shape == (12,)
    assert np.all(s[2:] == 0.0)
    np.testing.assert_allclose((u * s[:2]) @ v_dag, t.reshape(2, 12), atol=1e-12)


def test_pseudo_inverse_identity():
    out, _ = _disentangled_pair(np.eye(3))
    np.testing.assert_allclose(out, np.eye(3) / np.sqrt(3.0), atol=1e-14)


def test_pseudo_inverse_singular_diagonal():
    with pytest.raises(NotInjectiveError):
        _disentangled_pair(np.diag([2.0, 0.0]))


def test_pseudo_inverse_left_inverse_of_injective():
    rng = np.random.default_rng(5)
    a = rng.standard_normal((4, 2)) + 1j * rng.standard_normal((4, 2))
    out, _ = _disentangled_pair(a)
    np.testing.assert_allclose(out, np.eye(2) / np.sqrt(2.0), atol=1e-10)


def test_condition_number_identity():
    assert injectivity_check(_site(np.eye(4))).kappa == pytest.approx(1.0)


def test_condition_number_diagonal():
    assert injectivity_check(_site(np.diag([3.0, 1.0]))).kappa == pytest.approx(3.0)


def test_condition_number_isometry():
    rng = np.random.default_rng(6)
    q, _ = np.linalg.qr(rng.standard_normal((5, 3)))
    assert injectivity_check(_site(q)).kappa == pytest.approx(1.0)


def test_condition_number_rank_deficient():
    rep = injectivity_check(_site(np.ones((3, 2))))
    assert not rep.injective
    assert rep.kappa is None
    assert rep.sigma_min == pytest.approx(0.0, abs=1e-12)


@pytest.mark.parametrize("seed", range(5))
def test_kappa_of_pseudo_inverse_matches(seed):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((5, 3)) + 1j * rng.standard_normal((5, 3))
    k = injectivity_check(_site(a)).kappa
    assert k == pytest.approx(np.linalg.cond(a), rel=1e-10)
    # the left inverse has the reciprocal singular values, so the same kappa
    u, s, v_dag = site_map_svd(_site(a))
    left = (v_dag.conj().T / s) @ u.conj().T
    assert injectivity_check(_site(left.conj().T)).kappa == pytest.approx(k, rel=1e-8)


@pytest.mark.parametrize("seed", range(5))
def test_pseudo_inverse_idempotent(seed):
    # disentangling then re-applying the site map gives back the state
    rng = np.random.default_rng(10 + seed)
    a = rng.standard_normal((5, 3)) + 1j * rng.standard_normal((5, 3))
    out, state = _disentangled_pair(a)
    back = a @ out
    np.testing.assert_allclose(
        back / np.linalg.norm(back), state / np.linalg.norm(state), rtol=1e-8, atol=1e-10
    )
