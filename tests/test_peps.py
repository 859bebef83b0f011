import math

import numpy as np
import pytest

from pepskit import peps as peps_module
from pepskit.errors import ArgumentError, ModelError, NotInjectiveError
from pepskit.generators import aklt_chain, product_peps, random_injective_peps
from pepskit.lattice import LatticeSpec
from pepskit.network import as_tensor, contract_network
from pepskit.peps import (
    PepsState,
    block,
    build_state_vector,
    injectivity_check,
    kappa_star,
    site_map_svd,
)


def identity_pair_peps():
    """1x2 lattice, both tensors the identity map virtual -> physical."""
    lat = LatticeSpec((1, 2))
    tensors = {
        (0, 0): np.eye(2),
        (0, 1): np.eye(2),
    }
    return PepsState(lattice=lat, tensors=tensors)


class TestLattice:
    def test_sites_row_major(self):
        lat = LatticeSpec((2, 3))
        assert lat.sites()[:4] == [(0, 0), (0, 1), (0, 2), (1, 0)]

    def test_edge_count_open_boundary(self):
        lat = LatticeSpec((3, 3))
        assert len(lat.edges()) == 12  # 2 * 3 * 2 per axis, no wraparound

    def test_leg_order_minus_before_plus(self):
        lat = LatticeSpec((3, 3))
        nbs = lat.neighbors((1, 1))
        assert nbs == [(0, 1), (2, 1), (1, 0), (1, 2)]

    def test_engine_rejects_3d(self):
        for extents in [(2, 2, 2), ()]:
            with pytest.raises(ArgumentError, match=f"dimensions 1 and 2, got {len(extents)}"):
                LatticeSpec(extents)

    def test_diameter(self):
        assert LatticeSpec((3, 4)).diameter == 5

    @pytest.mark.parametrize("extents", [(1,), (5,), (1, 4), (3, 4), (4, 1)])
    def test_geometry_matches_coordinate_scan(self, extents):
        lat = LatticeSpec(extents)

        def scan(site):
            out = []
            for axis in range(len(extents)):
                for sign in (-1, 1):
                    nb = list(site)
                    nb[axis] += sign
                    if all(0 <= c < e for c, e in zip(nb, extents)):
                        out.append(tuple(nb))
            return out

        for site in lat.sites():
            assert lat.neighbors(site) == scan(site)
            assert lat.virtual_legs(site) == [tuple(sorted((site, nb))) for nb in scan(site)]
        plus = [(s, nb) for s in lat.sites() for nb in scan(s) if nb > s]
        assert lat.edges() == sorted(plus)

    def test_geometry_results_are_fresh_lists(self):
        lat = LatticeSpec((3, 3))
        lat.neighbors((1, 1)).clear()
        lat.virtual_legs((1, 1)).clear()
        lat.edges().clear()
        assert len(lat.neighbors((1, 1))) == 4
        assert len(lat.virtual_legs((1, 1))) == 4
        assert len(lat.edges()) == 12


class TestBuildStateVector:
    def test_product_peps_is_product_vector(self):
        lat = LatticeSpec((2, 2))
        peps = product_peps(lat, bond_dim=1, phys_dim=2)
        psi = build_state_vector(peps)
        expected = np.zeros((2,) * 4)
        expected[0, 0, 0, 0] = 1.0
        np.testing.assert_allclose(psi, expected, atol=1e-14)

    def test_identity_pair_gives_bell_state(self):
        psi = build_state_vector(identity_pair_peps()).reshape(-1)
        bell = np.array([1.0, 0.0, 0.0, 1.0]) / np.sqrt(2.0)
        np.testing.assert_allclose(psi, bell, atol=1e-14)

    def test_norm_matches_double_layer(self):
        lat = LatticeSpec((2, 2))
        peps = random_injective_peps(lat, 2, 4, 0.3, 11)
        psi = build_state_vector(peps)
        sv_norm = float(np.vdot(psi, psi).real)
        # independent double-layer contraction of <w|w>
        from pepskit.peps import _doubled_network

        t, l = _doubled_network(peps, (), lat.sites(), ())
        raw = complex(contract_network(t, l))
        weight = 1.0
        for e in lat.edges():
            weight /= 2.0
        assert sv_norm == pytest.approx(raw.real * weight, rel=1e-10)

    def test_cutoff_enforced(self, monkeypatch):
        monkeypatch.setattr(peps_module, "STATE_VECTOR_CUTOFF", 100)
        lat = LatticeSpec((8,))
        peps = product_peps(lat, 1, 2)
        from pepskit.errors import SizeBudgetError

        with pytest.raises(SizeBudgetError) as err:
            build_state_vector(peps)
        assert err.value.predicted_size == 2**8

    def test_tensors_stored_as_c_contiguous_complex128(self):
        lat = LatticeSpec((2,))
        fortran = np.asfortranarray(np.arange(6.0).reshape(2, 3))
        nested = [[1, 0, 0], [0, 1, 0]]
        peps = PepsState(lattice=lat, tensors={(0,): fortran, (1,): nested})
        for s, given in zip(lat.sites(), (fortran, nested)):
            t = peps.tensors[s]
            assert isinstance(t, np.ndarray)
            assert t.dtype == np.complex128 and t.flags.c_contiguous
            np.testing.assert_array_equal(t, np.asarray(given))
        with pytest.raises(ModelError, match="expected 2 legs, tensor has 3"):
            PepsState(lattice=lat, tensors={(0,): np.ones((2, 3, 1)), (1,): nested})

    def test_mismatched_bond_rejected(self):
        lat = LatticeSpec((2,))
        tensors = {
            (0,): np.ones((2, 2)),
            (1,): np.ones((2, 3)),
        }
        with pytest.raises(ModelError, match="bond dims differ"):
            PepsState(lattice=lat, tensors=tensors)


def _grid_tensors(lat, extent_of, rng):
    """Random site arrays whose leg extents are ``extent_of(edge)``."""
    return {
        s: rng.standard_normal((2,) + tuple(extent_of(e) for e in lat.virtual_legs(s)))
        for s in lat.sites()
    }


def _with_axis(tensors, site, axis, extent):
    """``tensors`` with one axis of one site's array resized to ``extent``."""
    shape = list(tensors[site].shape)
    shape[axis] = extent
    return {**tensors, site: np.ones(shape)}


class TestStateCheck:
    """The one-pass check of leg counts and shared bond extents on a grid."""

    lat = LatticeSpec((3, 3))
    # Leg order of (1, 1): up, down, left, right, after the physical axis.
    UP, LEFT = 1, 3

    def _uniform(self):
        return _grid_tensors(self.lat, lambda e: 2, np.random.default_rng(0))

    @pytest.mark.parametrize(
        "axis, message",
        [
            (LEFT, "edge ((1, 0), (1, 1)): bond dims differ, 2 vs 3"),
            (UP, "edge ((0, 1), (1, 1)): bond dims differ, 2 vs 3"),
        ],
        ids=["horizontal", "vertical"],
    )
    def test_mismatch_names_the_edge(self, axis, message):
        tensors = _with_axis(self._uniform(), (1, 1), axis, 3)
        with pytest.raises(ModelError) as err:
            PepsState(lattice=self.lat, tensors=tensors)
        assert str(err.value) == message

    def test_smallest_mismatched_edge_is_reported(self):
        # ((0, 1), (0, 2)) is met first in site order, ((0, 0), (1, 0)) sorts first.
        tensors = _with_axis(self._uniform(), (0, 2), 2, 3)  # (0, 2): down, left, ...
        tensors = _with_axis(tensors, (1, 0), 1, 4)
        with pytest.raises(ModelError) as err:
            PepsState(lattice=self.lat, tensors=tensors)
        assert str(err.value) == "edge ((0, 0), (1, 0)): bond dims differ, 2 vs 4"

    def test_leg_count_is_reported_before_a_bond(self):
        tensors = _with_axis(self._uniform(), (0, 1), 1, 3)
        tensors[(2, 2)] = np.ones((2, 2, 2, 2))
        with pytest.raises(ModelError) as err:
            PepsState(lattice=self.lat, tensors=tensors)
        assert str(err.value) == "site (2, 2): expected 3 legs, tensor has 4"

    def test_edge_volume_reads_the_arrays(self):
        edges = self.lat.edges()
        extent = {e: 1 + k % 3 for k, e in enumerate(edges)}
        tensors = _grid_tensors(self.lat, extent.get, np.random.default_rng(1))
        peps = PepsState(lattice=self.lat, tensors=tensors)

        def read_off(e):
            u, v = e
            du = peps.tensors[u].shape[1 + self.lat.virtual_legs(u).index(e)]
            dv = peps.tensors[v].shape[1 + self.lat.virtual_legs(v).index(e)]
            assert du == dv
            return du

        assert peps.edge_volume(edges) == math.prod(read_off(e) for e in edges) == 2**4 * 3**4
        for e in edges:
            assert peps.edge_volume([e]) == read_off(e)
        assert peps.edge_volume([]) == 1


def _site(m):
    return as_tensor(m)


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


class TestInjectivity:
    def test_isometry_has_kappa_one(self):
        rng = np.random.default_rng(0)
        q, _ = np.linalg.qr(rng.standard_normal((4, 2)) + 1j * rng.standard_normal((4, 2)))
        rep = injectivity_check(q.reshape(4, 2))
        assert rep.injective
        assert rep.kappa == pytest.approx(1.0)

    def test_duplicated_columns_not_injective(self):
        col = np.array([1.0, 2.0, 3.0])
        m = np.stack([col, col], axis=1)
        rep = injectivity_check(m)
        assert not rep.injective
        assert rep.sigma_min < 1e-12

    def test_aklt_injective_only_after_blocking(self):
        chain = aklt_chain(6)
        single = injectivity_check(chain.tensors[(2,)])
        assert not single.injective  # d=3 < D^2=4
        blocked = injectivity_check(block(chain, [(2,), (3,)]))
        assert blocked.injective
        assert blocked.kappa == pytest.approx(np.sqrt(1.5), rel=1e-10)

    def test_gauge_covariance_of_flag(self):
        rng = np.random.default_rng(1)
        t = rng.standard_normal((5, 2, 2)) + 1j * rng.standard_normal((5, 2, 2))
        g = np.array([[2.0, 1.0], [0.5, 1.5]])
        gauged = np.einsum("ijk,jl->ilk", t, g)
        assert injectivity_check(t).injective
        assert injectivity_check(gauged).injective


class TestOneInjectivityRule:
    @pytest.mark.parametrize("ratio, injective", [(1e-10, False), (1e-6, True)])
    def test_same_verdict_from_every_caller(self, ratio, injective):
        a = np.diag([1.0, ratio])  # sigma_min / sigma_max = ratio
        tensors = {(0, 0): a, (0, 1): np.eye(2)}
        peps = PepsState(lattice=LatticeSpec((1, 2)), tensors=tensors)
        assert injectivity_check(peps.tensors[(0, 0)]).injective is injective
        if injective:
            assert kappa_star(peps) == pytest.approx(1.0 / ratio, rel=1e-10)
        else:
            with pytest.raises(NotInjectiveError):
                kappa_star(peps)


class TestBlock:
    def test_single_site_unchanged(self):
        lat = LatticeSpec((3,))
        peps = random_injective_peps(lat, 2, 2, 0.1, 3)
        bt = block(peps, [(1,)])
        np.testing.assert_array_equal(bt, peps.tensors[(1,)])

    def test_two_product_sites_tensor_product(self):
        lat = LatticeSpec((2,))
        peps = product_peps(lat, bond_dim=1, phys_dim=2)
        bt = block(peps, [(0,), (1,)])
        chi = np.array([1.0, 0.0])
        np.testing.assert_allclose(bt.reshape(2, 2), np.outer(chi, chi), atol=1e-14)

    def test_two_aklt_sites_full_virtual_rank(self):
        chain = aklt_chain(6)
        bt = block(chain, [(2,), (3,)])
        m = bt.reshape(bt.shape[0], -1)
        s = np.linalg.svd(m, compute_uv=False)
        assert int(np.sum(s > 1e-8 * s[0])) == 4

    def test_disconnected_region_rejected(self):
        lat = LatticeSpec((4,))
        peps = product_peps(lat, 1, 2)
        with pytest.raises(ArgumentError, match="not connected"):
            block(peps, [(0,), (2,)])

    def test_blocked_dominoes_reproduce_state(self):
        # rebuilding from 1x2 blocks must give the same physical state
        lat = LatticeSpec((4,))
        peps = random_injective_peps(lat, 2, 2, 0.2, 9)
        full = build_state_vector(peps).reshape(-1)
        blocks = [block(peps, [(2 * i,), (2 * i + 1,)]) for i in range(2)]
        coarse_lat = LatticeSpec((2,))
        coarse = {(i,): blocks[i] for i in range(2)}
        coarse_state = build_state_vector(
            PepsState(lattice=coarse_lat, tensors=coarse)
        ).reshape(-1)
        assert np.linalg.norm(coarse_state - full) <= 1e-10 * np.linalg.norm(full)


class TestKappaStar:
    def test_isometry_peps_kappa_one(self):
        lat = LatticeSpec((3,))
        rng = np.random.default_rng(5)
        tensors = {}
        for s in lat.sites():
            legs = len(lat.neighbors(s))
            virt = 2**legs
            q, _ = np.linalg.qr(rng.standard_normal((8, virt)))
            tensors[s] = q[:8, :virt].reshape((8,) + (2,) * legs)
        peps = PepsState(lattice=lat, tensors=tensors)
        assert kappa_star(peps) == pytest.approx(1.0, rel=1e-10)

    def test_scalar_rescaling_invariant(self):
        lat = LatticeSpec((3,))
        peps = random_injective_peps(lat, 2, 8, 0.2, 6)
        base = kappa_star(peps)
        scaled_tensors = dict(peps.tensors)
        scaled_tensors[(1,)] = 5.0 * peps.tensors[(1,)]
        scaled = PepsState(lattice=lat, tensors=scaled_tensors)
        assert kappa_star(scaled) == pytest.approx(base, rel=1e-10)

    def test_perturbed_3x3_regression(self, monkeypatch):
        monkeypatch.setattr(peps_module, "MAX_BLOCK_SIZE", 6)
        lat = LatticeSpec((3, 3))
        peps = random_injective_peps(lat, 2, 2, 0.1, 42)
        blocking = [
            [(r, c) for r in (0, 1) for c in range(3)],
            [(2, c) for c in range(3)],
        ]
        k = kappa_star(peps, blocking)
        assert k == pytest.approx(8482.678730118369, rel=1e-9)
        # determinism across regeneration
        again = random_injective_peps(lat, 2, 2, 0.1, 42)
        assert kappa_star(again, blocking) == k

    def test_non_injective_block_raises(self):
        lat = LatticeSpec((3, 3))
        peps = random_injective_peps(lat, 2, 2, 0.1, 42)
        with pytest.raises(NotInjectiveError, match="not injective"):
            kappa_star(peps)  # single sites cannot be injective at d=2

    def test_incomplete_partition_rejected(self):
        lat = LatticeSpec((3,))
        peps = product_peps(lat, 1, 2)
        with pytest.raises(ArgumentError, match="partition"):
            kappa_star(peps, blocking=[[(0,)], [(1,)]])


class TestGenerators:
    def test_product_expectation(self):
        lat = LatticeSpec((3, 3))
        peps = random_injective_peps(lat, 2, 2, 0.0, 0)
        psi = build_state_vector(peps)
        assert np.linalg.norm(psi) == pytest.approx(1.0, abs=1e-12)

    def test_seed_determinism(self):
        lat = LatticeSpec((2, 3))
        a = random_injective_peps(lat, 2, 2, 0.1, 7)
        b = random_injective_peps(lat, 2, 2, 0.1, 7)
        c = random_injective_peps(lat, 2, 2, 0.1, 8)
        for s in lat.sites():
            np.testing.assert_array_equal(a.tensors[s], b.tensors[s])
        assert any(
            not np.array_equal(a.tensors[s], c.tensors[s]) for s in lat.sites()
        )

    def test_eta_must_be_nonnegative(self):
        with pytest.raises(ArgumentError):
            random_injective_peps(LatticeSpec((2,)), 2, 2, -0.1, 0)

    def test_aklt_shape(self):
        chain = aklt_chain(5)
        assert chain.tensors[(0,)].shape == (3, 2)
        assert chain.tensors[(2,)].shape == (3, 2, 2)
        assert chain.tensors[(4,)].shape == (3, 2)

    def test_aklt_rejects_short_chain(self):
        with pytest.raises(ArgumentError):
            aklt_chain(1)


def test_condition_number_identity():
    assert injectivity_check(as_tensor(np.eye(4))).kappa == pytest.approx(1.0)


def test_condition_number_diagonal():
    assert injectivity_check(as_tensor(np.diag([3.0, 1.0]))).kappa == pytest.approx(3.0)


def test_condition_number_isometry():
    rng = np.random.default_rng(6)
    q, _ = np.linalg.qr(rng.standard_normal((5, 3)))
    assert injectivity_check(as_tensor(q)).kappa == pytest.approx(1.0)


def test_condition_number_rank_deficient():
    rep = injectivity_check(as_tensor(np.ones((3, 2))))
    assert not rep.injective
    assert rep.kappa is None
    assert rep.sigma_min == pytest.approx(0.0, abs=1e-12)


# The site-map left inverse built from site_map_svd, and its condition number.


def _site(m):
    return as_tensor(m)


def _pair_peps(a):
    """1x2 lattice: site (0,0) carries the map ``a`` (phys x D), site (0,1) the identity."""
    d = a.shape[1]
    tensors = {(0, 0): a, (0, 1): np.eye(d)}
    return PepsState(lattice=LatticeSpec((1, 2)), tensors=tensors)


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
