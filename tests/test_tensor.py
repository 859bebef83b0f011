"""Dense tensor numerics: the site-map injectivity verdict and left inverse."""

import numpy as np
import pytest

from pepskit.errors import NotInjectiveError
from pepskit.lattice import LatticeSpec
from pepskit.network import as_tensor
from pepskit.peps import (
    PepsState,
    build_state_vector,
    injectivity_check,
    kappa_star,
    site_map_svd,
)


def _site(m):
    return as_tensor(m)


def _pair_peps(a):
    """1x2 lattice: site (0,0) carries the map ``a`` (phys x D), site (0,1) the identity."""
    d = a.shape[1]
    tensors = {(0, 0): a, (0, 1): np.eye(d)}
    return PepsState(lattice=LatticeSpec(2, (1, 2)), tensors=tensors)


def _disentangled_pair(a):
    """Left-invert site (0,0) of the pair state; an exact left inverse gives the bare pair.

    The left inverse ``v_dag^H diag(1/s) u^H`` comes from :func:`site_map_svd`
    and exists only when :func:`kappa_star` accepts every site map.
    """
    peps = _pair_peps(a)
    kappa_star(peps)
    u, s, v_dag = site_map_svd(peps.tensors[(0, 0)])
    state = build_state_vector(peps)
    out = ((v_dag.conj().T / s) @ u.conj().T) @ (state / np.linalg.norm(state))
    return out / np.linalg.norm(out), state


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
