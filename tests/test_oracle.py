import string

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from pepskit import network, peps as peps_module
from pepskit.errors import ArgumentError, NumericalError, SizeBudgetError
from pepskit.generators import aklt_chain, product_peps, random_injective_peps
from pepskit.lattice import LatticeSpec
from pepskit.network import contract_network
from pepskit.observables import Observable, PAULI, SPIN1, expectation_from_rdm
from pepskit.oracle import exact_correlation, exact_expectation, state_rdm
from pepskit.patch import patch_expectation
from pepskit.peps import PepsState, build_state_vector


def pauli_z_at(site):
    return Observable(sites=(site,), matrix=PAULI["pauli-z"])


def sz_at(site):
    return Observable(sites=(site,), matrix=SPIN1["s_z"])


def refuse_network(*args, **kwargs):
    """Stand-in for ``patch_rdm`` that refuses as an over-budget network does.

    The single and double layers share the ``network`` limits, so no limit
    refuses the double layer alone.
    """
    raise SizeBudgetError("network path refused")


class TestExactExpectation:
    def test_identity_is_one(self, identity_observable):
        lat = LatticeSpec((2, 3))
        peps = random_injective_peps(lat, 2, 2, 0.2, 1)
        res = exact_expectation(peps, identity_observable([(1, 1)], 2))
        assert res.value == pytest.approx(1.0, abs=1e-12)

    def test_product_single_site(self):
        lat = LatticeSpec((3, 3))
        peps = product_peps(lat, bond_dim=2, phys_dim=2)
        res = exact_expectation(peps, pauli_z_at((1, 1)))
        assert res.value == pytest.approx(1.0, abs=1e-12)  # <0|Z|0> = 1

    def test_perturbed_3x3_regression(self):
        lat = LatticeSpec((3, 3))
        peps = random_injective_peps(lat, 2, 2, 0.1, 42)
        res = exact_expectation(peps, pauli_z_at((1, 1)))
        assert res.value.real == pytest.approx(0.997329957378241, rel=1e-10)
        assert abs(res.value.imag) <= 1e-10 * abs(res.value)
        assert res.norm_sq > 0
        assert res.sites_used == 9

    def test_cross_paths_agree_implicitly(self):
        # both paths run at this size; exact_expectation raises if they differ
        lat = LatticeSpec((2, 2))
        peps = random_injective_peps(lat, 2, 4, 0.3, 11)
        res = exact_expectation(peps, Observable(sites=((0, 0),), matrix=np.diag([1, -1, 1, -1.0])))
        assert abs(res.value.imag) < 1e-10

    def test_network_path_only_when_state_too_big(self):
        lat = LatticeSpec((5, 5))
        peps = random_injective_peps(lat, 2, 2, 0.1, 42)
        res = exact_expectation(peps, pauli_z_at((2, 2)))  # 2^25 amplitudes > cutoff
        assert abs(res.value) <= 1.0 + 1e-9
        assert res.paths == ("network",)

    def test_paths_name_what_ran(self, monkeypatch):
        peps = random_injective_peps(LatticeSpec((4, 4)), 2, 2, 0.1, 42)
        both = exact_expectation(peps, pauli_z_at((1, 2)))
        assert both.paths == ("state_vector", "network")
        monkeypatch.setattr("pepskit.oracle.patch_rdm", refuse_network)
        alone = exact_expectation(peps, pauli_z_at((1, 2)))
        assert alone.paths == ("state_vector",)
        assert alone.value == both.value

    def test_size_error_when_both_paths_blocked(self, monkeypatch):
        monkeypatch.setattr(peps_module, "STATE_VECTOR_CUTOFF", 4)
        monkeypatch.setattr(network, "DEFAULT_BUDGET", 4)
        lat = LatticeSpec((10,))
        peps = random_injective_peps(lat, 2, 2, 0.1, 0)
        with pytest.raises(SizeBudgetError):
            exact_expectation(peps, pauli_z_at((5,)))

    def test_long_chain_norm_keeps_its_pair_weights(self):
        # 1,099 D=2 pairs: their joint weight 2**-1099 is below the float range.
        res = exact_expectation(aklt_chain(1100), sz_at((550,)))
        assert res.norm_sq == pytest.approx(0.75**1098, rel=1e-12, abs=0)

    def test_overflowing_network_norm_raises(self):
        lat = LatticeSpec((3,))
        big = np.array([1e200, 0.0])
        tensors = {
            s: big.reshape((2,) + (1,) * len(lat.virtual_legs(s)))
            for s in lat.sites()
        }
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(
            NumericalError, match="overflowed"
        ):
            exact_expectation(PepsState(lat, tensors), pauli_z_at((1,)))

    def test_network_path_is_one_contraction(self, monkeypatch):
        calls = []
        monkeypatch.setattr(
            "pepskit.patch.contract_network",
            lambda *a, **k: calls.append(1) or contract_network(*a, **k),
        )
        monkeypatch.setattr(peps_module, "STATE_VECTOR_CUTOFF", 4)
        peps = random_injective_peps(LatticeSpec((3, 3)), 3, 2, 0.3, 1)
        exact_expectation(peps, pauli_z_at((1, 1)))
        assert len(calls) == 1

    def test_one_pass_per_call_and_norm_from_rho(self, monkeypatch):
        builds, contractions = [], []
        monkeypatch.setattr(
            "pepskit.oracle.build_state_vector",
            lambda *a, **k: builds.append(1) or build_state_vector(*a, **k),
        )
        monkeypatch.setattr(
            "pepskit.patch.contract_network",
            lambda *a, **k: contractions.append(1) or contract_network(*a, **k),
        )
        peps = random_injective_peps(LatticeSpec((3, 3)), 2, 2, 0.3, 1)
        obs = Observable(sites=((2, 1), (0, 1)), matrix=np.kron(PAULI["pauli-x"], PAULI["pauli-z"]))
        res = exact_expectation(peps, obs)
        assert (len(builds), len(contractions)) == (1, 1)
        assert res.paths == ("state_vector", "network")
        state = build_state_vector(peps)
        norm_sq = np.vdot(state, state).real
        assert abs(res.norm_sq - norm_sq) <= 1e-12 * norm_sq

    def test_nan_network_value_fails_cross_check(self, monkeypatch):
        def nan_double_layer(rho, obs, what):
            if what == "double-layer":
                return complex("nan"), 1.0
            return expectation_from_rdm(rho, obs, what)

        monkeypatch.setattr("pepskit.oracle.expectation_from_rdm", nan_double_layer)
        peps = random_injective_peps(LatticeSpec((2, 2)), 2, 2, 0.3, 1)
        with pytest.raises(NumericalError, match="disagree"):
            exact_expectation(peps, pauli_z_at((0, 0)))

    @pytest.mark.parametrize("extents, bond_dim", [((3, 3), 3), ((5, 4), 2)])
    @pytest.mark.parametrize("sites", [((1, 1),), ((1, 1), (1, 2))])
    def test_network_path_is_the_patch_at_covering_radius(
        self, extents, bond_dim, sites, monkeypatch
    ):
        monkeypatch.setattr(peps_module, "STATE_VECTOR_CUTOFF", 1)
        peps = random_injective_peps(LatticeSpec(extents), bond_dim, 2, 0.3, 1)
        z, x = PAULI["pauli-z"], PAULI["pauli-x"]
        obs = Observable(sites=sites, matrix=z if len(sites) == 1 else np.kron(z, x))
        res = exact_expectation(peps, obs)
        assert res.paths == ("network",)
        assert res.value == patch_expectation(peps, obs, peps.lattice.diameter).value

    def test_observable_dimension_mismatch_rejected(self):
        peps = aklt_chain(6)
        with pytest.raises(ArgumentError, match="does not match"):
            exact_expectation(peps, pauli_z_at((2,)))

    def test_support_outside_lattice(self):
        lat = LatticeSpec((4,))
        peps = product_peps(lat, 1, 2)
        with pytest.raises(ArgumentError, match="outside"):
            exact_expectation(peps, pauli_z_at((9,)))


class TestExpectationFromState:
    def test_observable_dimension_mismatch_rejected(self):
        state, obs = np.ones((3, 2, 3)), pauli_z_at((0,))
        with pytest.raises(ArgumentError, match="does not match support dims"):
            expectation_from_rdm(state_rdm(state, [0], obs), obs, "state")

    @given(st.data())
    def test_matches_operator_on_permuted_layout(self, data):
        """Any support order, on a non-C-contiguous state, against (O x I)|psi>."""
        shape = data.draw(st.lists(st.integers(1, 3), min_size=2, max_size=5), label="shape")
        n = len(shape)
        axes = data.draw(st.permutations(range(n)), label="axes")[: data.draw(st.integers(1, min(3, n)))]
        layout = data.draw(st.permutations(range(n)), label="layout")
        seed = data.draw(st.integers(0, 2**32 - 1), label="seed")
        hermitian = data.draw(st.booleans(), label="hermitian")
        rng = np.random.default_rng(seed)
        stored = [shape[ax] for ax in layout]
        base = rng.standard_normal(stored) + 1j * rng.standard_normal(stored)
        psi = np.transpose(base, np.argsort(layout))  # a view: shape ``shape``, memory in ``layout``
        assert psi.shape == tuple(shape)
        dims = [shape[ax] for ax in axes]
        dim = int(np.prod(dims))
        m = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        obs = Observable(sites=tuple((ax,) for ax in axes), matrix=m + m.conj().T if hermitian else m)

        k = len(axes)
        letters = string.ascii_letters
        out_idx, in_idx = letters[:k], letters[k : 2 * k]
        state_idx = list(letters[2 * k : 2 * k + n])
        result_idx = list(state_idx)
        for j, ax in enumerate(axes):
            state_idx[ax], result_idx[ax] = in_idx[j], out_idx[j]
        op_psi = np.einsum(
            f"{out_idx}{in_idx},{''.join(state_idx)}->{''.join(result_idx)}",
            obs.matrix.reshape(dims + dims), psi,
        )
        ref = np.vdot(psi, op_psi) / np.vdot(psi, psi)
        value, _ = expectation_from_rdm(state_rdm(psi, list(axes), obs), obs, "state")
        assert abs(value - ref) <= 1e-12 * max(1.0, abs(ref))


    def test_state_rdm_is_exactly_hermitian(self):
        rng = np.random.default_rng(3)
        base = rng.standard_normal((2, 3, 2, 2)) + 1j * rng.standard_normal((2, 3, 2, 2))
        psi = np.transpose(base, (2, 0, 3, 1))  # not C-contiguous
        obs = Observable(sites=((1,), (3,)), matrix=np.eye(6))
        rho = state_rdm(psi, [1, 3], obs)
        np.testing.assert_array_equal(rho, rho.conj().T)
        m = np.moveaxis(psi, [1, 3], [0, 1]).reshape(6, -1)
        np.testing.assert_allclose(rho, m @ m.conj().T, rtol=1e-12)


class TestExactCorrelation:
    def test_product_connected_zero(self):
        lat = LatticeSpec((3, 3))
        peps = product_peps(lat, bond_dim=2, phys_dim=2)
        joint, conn = exact_correlation(peps, pauli_z_at((0, 0)), pauli_z_at((2, 2)))
        assert abs(conn) < 1e-12

    def test_identity_pair(self, identity_observable):
        lat = LatticeSpec((4,))
        peps = random_injective_peps(lat, 2, 4, 0.2, 5)
        ia = identity_observable([(0,)], 4)
        ib = identity_observable([(3,)], 4)
        joint, conn = exact_correlation(peps, ia, ib)
        assert joint == pytest.approx(1.0, abs=1e-10)
        assert abs(conn) < 1e-10

    def test_aklt_ratio_minus_one_third(self):
        chain = aklt_chain(8)
        conns = {}
        for x in (1, 2):
            _, conn = exact_correlation(chain, sz_at((3,)), sz_at((3 + x,)))
            conns[x] = conn
        ratio = conns[2] / conns[1]
        assert ratio.real == pytest.approx(-1.0 / 3.0, abs=1e-6)
        assert abs(ratio.imag) < 1e-10

    def test_overlapping_support_rejected(self):
        lat = LatticeSpec((4,))
        peps = product_peps(lat, 1, 2)
        with pytest.raises(ArgumentError, match="overlap"):
            exact_correlation(peps, pauli_z_at((1,)), pauli_z_at((1,)))
