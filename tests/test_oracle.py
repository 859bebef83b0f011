import functools
import string
import tracemalloc
import weakref

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
from pepskit.oracle import _cut, _halves_rdm, _state_halves, exact_correlation, exact_expectation
from pepskit.patch import patch_expectation, patch_rdm
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


def halves_rdm(peps, sites):
    """The oracle's state-vector rho_X: both halves, then their reduction."""
    return _halves_rdm(sites, _state_halves(peps, sites))


@functools.cache
def grid_state(extents, bond_dim, phys_dim):
    """A seeded random PEPS and its state vector, built once per shape."""
    peps = random_injective_peps(LatticeSpec(extents), bond_dim, phys_dim, 0.3, 1)
    return peps, build_state_vector(peps)


def grid_supports(extents):
    """Supports named by their place relative to the cut (see ``oracle._cut``)."""
    halves, cut = _cut(LatticeSpec(extents))
    if not cut:
        return {"lower-site": (halves[0][0],)}
    (lower, upper), (u, v) = halves, cut[len(cut) // 2]
    return {
        "lower-site": (lower[0],),
        "upper-site": (upper[-1],),
        "straddling-pair": (u, v),
        "reversed-pair": (v, u),
        "three-sites": (v, lower[0], upper[-1]),
    }


# (extents, bond_dim, phys_dim): both chain splits, both cut axes of a 2D grid,
# a square grid, thin grids, one site, d=3, and a D=3 state whose planner
# joins the two kets.
GRID_SHAPES = [
    ((20,), 2, 2), ((12,), 2, 3), ((5, 4), 2, 2), ((4, 5), 2, 2), ((4, 4), 2, 2),
    ((1, 6), 2, 2), ((6, 1), 2, 2), ((1,), 2, 2), ((2, 3), 2, 3), ((3, 3), 3, 2),
]
GRID = [
    pytest.param(shape, sites, id=f"{'x'.join(map(str, shape[0]))}-D{shape[1]}-d{shape[2]}-{name}")
    for shape in GRID_SHAPES
    for name, sites in grid_supports(shape[0]).items()
]


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
        with pytest.raises(SizeBudgetError) as err:
            exact_expectation(peps, pauli_z_at((5,)))
        message = str(err.value)
        assert message.startswith("both oracle paths refused: state vector: state vector needs 1024 amplitudes")
        assert "; network: contraction intermediate of " in message and "exceeds budget 4" in message
        assert err.value.predicted_size == 1024

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
        layers, contractions = [], []
        monkeypatch.setattr(
            "pepskit.oracle._single_layer",
            lambda *a, **k: layers.append(1) or peps_module._single_layer(*a, **k),
        )
        monkeypatch.setattr(
            "pepskit.patch.contract_network",
            lambda *a, **k: contractions.append(1) or contract_network(*a, **k),
        )
        peps = random_injective_peps(LatticeSpec((3, 3)), 2, 2, 0.3, 1)
        obs = Observable(sites=((2, 1), (0, 1)), matrix=np.kron(PAULI["pauli-x"], PAULI["pauli-z"]))
        res = exact_expectation(peps, obs)
        assert (len(layers), len(contractions)) == (2, 1)  # one single layer per half
        assert res.paths == ("state_vector", "network")
        state = build_state_vector(peps)
        norm_sq = np.vdot(state, state).real
        assert abs(res.norm_sq - norm_sq) <= 1e-12 * norm_sq

    def test_state_vector_released_before_network_path(self, monkeypatch):
        refs, alive = [], []

        def state_halves(*args, **kwargs):
            halves = _state_halves(*args, **kwargs)
            refs.extend(weakref.ref(a) for _, a in halves)
            return halves

        def network_path(*args, **kwargs):
            alive.append([r() is not None for r in refs])
            return patch_rdm(*args, **kwargs)

        monkeypatch.setattr("pepskit.oracle._state_halves", state_halves)
        monkeypatch.setattr("pepskit.oracle.patch_rdm", network_path)
        peps = random_injective_peps(LatticeSpec((3, 3)), 2, 2, 0.3, 1)
        res = exact_expectation(peps, pauli_z_at((1, 1)))
        assert res.paths == ("state_vector", "network")
        assert alive == [[False, False]]

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
    def test_observable_dimension_mismatch_rejected(self, monkeypatch):
        """A mismatched observable is refused before either half is contracted."""
        monkeypatch.setattr("pepskit.oracle._single_layer", pytest.fail)
        peps = aklt_chain(6)
        with pytest.raises(ArgumentError, match="does not match"):
            exact_expectation(peps, pauli_z_at((2,)))

    @pytest.mark.parametrize("shape, sites", GRID)
    def test_equals_one_copy_reduction(self, shape, sites, one_copy_rdm):
        peps, state = grid_state(*shape)
        axes = [peps.lattice.site_index(s) for s in sites]
        ref = one_copy_rdm(state, axes, shape[2] ** len(sites))
        np.testing.assert_allclose(halves_rdm(peps, sites), ref, rtol=1e-12)

    def test_allocates_about_two_blocks(self, monkeypatch):
        """On a 2**18-amplitude state the path holds about two copies of its halves, never the state.

        A half's single layer and its fused copy are alive together, next to
        the other half; the reduction's intermediates are smaller.
        """
        monkeypatch.setattr("pepskit.oracle.patch_rdm", refuse_network)
        peps = random_injective_peps(LatticeSpec((6, 3)), 2, 2, 0.3, 1)
        for sites in (((2, 1),), ((2, 1), (3, 1))):
            obs = Observable(sites=sites, matrix=np.eye(2 ** len(sites)))
            halves_bytes = sum(a.nbytes for _, a in _state_halves(peps, sites))
            exact_expectation(peps, obs)  # plans and compiles outside the trace
            tracemalloc.start()
            try:
                res = exact_expectation(peps, obs)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert res.paths == ("state_vector",)
            assert peak <= 4 * halves_bytes
            assert peak < 16 * 2**18 // 4  # a whole copy of the state is 4 MiB

    @given(st.data())
    def test_matches_operator_on_permuted_layout(self, data):
        """Any support, in any order, on a random PEPS, against (O x I)|psi>."""
        extents = [(1,), (5,), (8,), (2, 2), (2, 3), (3, 3), (4, 2)]
        lat = LatticeSpec(data.draw(st.sampled_from(extents), label="extents"))
        phys = data.draw(st.integers(2, 3), label="phys")
        bond = data.draw(st.integers(1, 3), label="bond")
        seed = data.draw(st.integers(0, 2**32 - 1), label="seed")
        count = data.draw(st.integers(1, min(3, lat.n_sites)), label="count")
        sites = data.draw(st.permutations(lat.sites()), label="order")[:count]
        hermitian = data.draw(st.booleans(), label="hermitian")
        peps = random_injective_peps(lat, bond, phys, 0.5, seed)
        rng = np.random.default_rng(seed)
        dim = phys ** len(sites)
        m = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        obs = Observable(sites=tuple(sites), matrix=m + m.conj().T if hermitian else m)

        psi = build_state_vector(peps)
        axes = [lat.site_index(s) for s in sites]
        k, n = len(axes), psi.ndim
        letters = string.ascii_letters
        out_idx, in_idx = letters[:k], letters[k : 2 * k]
        state_idx = list(letters[2 * k : 2 * k + n])
        result_idx = list(state_idx)
        for j, ax in enumerate(axes):
            state_idx[ax], result_idx[ax] = in_idx[j], out_idx[j]
        op_psi = np.einsum(
            f"{out_idx}{in_idx},{''.join(state_idx)}->{''.join(result_idx)}",
            obs.matrix.reshape([phys] * 2 * k), psi,
        )
        ref = np.vdot(psi, op_psi) / np.vdot(psi, psi)
        value, _ = expectation_from_rdm(halves_rdm(peps, sites), obs, "state")
        assert abs(value - ref) <= 1e-12 * max(1.0, abs(ref))

    def test_state_rdm_is_exactly_hermitian(self):
        """The state path's rho_X, whether the planner joins each half with its conjugate or the kets first."""
        for extents, bond_dim in (((5, 4), 2), ((3, 3), 3), ((1,), 2)):
            peps = random_injective_peps(LatticeSpec(extents), bond_dim, 2, 0.3, 3)
            for sites in grid_supports(extents).values():
                rho = halves_rdm(peps, sites)
                np.testing.assert_array_equal(rho, rho.conj().T)


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
