import functools
import string
import sys
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from pepskit import network, oracle, peps as peps_module
from pepskit.errors import ArgumentError, NumericalError, SizeBudgetError
from pepskit.generators import aklt_chain, product_peps, random_injective_peps
from pepskit.lattice import LatticeSpec
from pepskit.network import contract_network
from pepskit.observables import Observable, PAULI, SPIN1, expectation_from_rdm
from pepskit.oracle import _cut, _halves_rdm, _state_halves, exact_correlation, exact_expectation
from pepskit.patch import patch_expectation
from pepskit.peps import PepsState
from reference import one_copy_rdm, state_vector


def pauli_z_at(site):
    return Observable(sites=(site,), matrix=PAULI["pauli-z"])


def sz_at(site):
    return Observable(sites=(site,), matrix=SPIN1["s_z"])


def halves_rdm(peps, sites):
    """The oracle's state-vector rho_X: both halves, then their reduction."""
    return _halves_rdm(sites, _state_halves(peps, sites))


@functools.cache
def grid_state(extents, bond_dim, phys_dim):
    """A seeded random PEPS and its reference state vector, built once per shape."""
    peps = random_injective_peps(LatticeSpec(extents), bond_dim, phys_dim, 0.3, 1)
    return peps, state_vector(peps)


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


def hermitian_observable(sites, phys_dim):
    """A real symmetric observable on ``sites``, seeded by its dimension."""
    dim = phys_dim ** len(sites)
    m = np.random.default_rng(dim).standard_normal((dim, dim))
    return Observable(sites=sites, matrix=m + m.T)


def half_supports(extents):
    """A site and a pair inside each half of ``oracle._cut``, and a pair across the cut."""
    lat = LatticeSpec(extents)
    (lower, upper), cut = _cut(lat)
    inside = [[e for e in lat.edges() if set(e) <= set(half)] for half in (lower, upper)]
    return [(lower[0],), (upper[-1],), inside[0][0], inside[1][-1], cut[0]]


def on_emptied_workspace(peps, obs, monkeypatch):
    """The oracle's value from a new, empty workspace."""
    monkeypatch.setattr(oracle, "_workspace", oracle._Workspace())
    return exact_expectation(peps, obs)


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
        # A d=4 observable on a 2x2 state: real to rounding, or exact_expectation raises.
        lat = LatticeSpec((2, 2))
        peps = random_injective_peps(lat, 2, 4, 0.3, 11)
        res = exact_expectation(peps, Observable(sites=((0, 0),), matrix=np.diag([1, -1, 1, -1.0])))
        assert abs(res.value.imag) < 1e-10

    def test_answered_beyond_a_million_amplitudes(self):
        # 2**25 amplitudes; the halves hold 2**15 and 2**20 entries.
        peps = random_injective_peps(LatticeSpec((5, 5)), 2, 2, 0.1, 42)
        obs = pauli_z_at((2, 2))
        res = exact_expectation(peps, obs)
        est = patch_expectation(peps, obs, peps.lattice.diameter).value
        assert abs(res.value - est) <= 1e-10 * abs(est) + 1e-14

    def test_size_error_from_the_halves(self, monkeypatch):
        monkeypatch.setattr(network, "DEFAULT_BUDGET", 4)
        lat = LatticeSpec((10,))
        peps = random_injective_peps(lat, 2, 2, 0.1, 0)
        with pytest.raises(SizeBudgetError) as err:
            exact_expectation(peps, pauli_z_at((5,)))
        assert str(err.value) == "contraction intermediate of 8 entries exceeds budget 4"
        assert err.value.predicted_size == 8

    def test_long_chain_norm_keeps_its_pair_weights(self):
        # 19 D=2 pairs, 9 inside each half and 1 across the cut: 2**-19 in all.
        res = exact_expectation(aklt_chain(20), sz_at((10,)))
        assert res.norm_sq == pytest.approx(0.75**18, rel=1e-12, abs=0)

    @pytest.mark.parametrize("n", [1100, 3000])
    def test_long_chain_refused_at_plan_time(self, n, monkeypatch):
        # 3,000 sites: the pair weight of a half underflows before its plan is refused.
        monkeypatch.setattr(np, "dot", pytest.fail)  # no contraction step runs
        with pytest.raises(SizeBudgetError, match="contraction intermediate of .* exceeds budget"):
            exact_expectation(aklt_chain(n), sz_at((n // 2,)))

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

    def test_one_pass_per_call_and_norm_from_rho(self, monkeypatch):
        layers, reductions = [], []
        monkeypatch.setattr(
            "pepskit.oracle._single_layer",
            lambda *a, **k: layers.append(1) or peps_module._single_layer(*a, **k),
        )
        monkeypatch.setattr(
            "pepskit.oracle.contract_network",
            lambda *a, **k: reductions.append(1) or contract_network(*a, **k),
        )
        peps = random_injective_peps(LatticeSpec((3, 3)), 2, 2, 0.3, 1)
        obs = Observable(sites=((2, 1), (0, 1)), matrix=np.kron(PAULI["pauli-x"], PAULI["pauli-z"]))
        res = exact_expectation(peps, obs)
        assert (len(layers), len(reductions)) == (2, 1)  # one single layer per half, one reduction
        state = state_vector(peps)
        norm_sq = np.vdot(state, state).real
        assert abs(res.norm_sq - norm_sq) <= 1e-12 * norm_sq

    @pytest.mark.parametrize("shape, sites", GRID)
    def test_equals_the_estimate_at_covering_radius(self, shape, sites):
        """The oracle against the estimator's double layer over the whole lattice: two codes."""
        peps, _ = grid_state(*shape)
        obs = hermitian_observable(sites, shape[2])
        exact = exact_expectation(peps, obs).value
        est = patch_expectation(peps, obs, peps.lattice.diameter).value
        assert abs(exact - est) <= 1e-10 * max(abs(exact), abs(est)) + 1e-14

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
    def test_equals_one_copy_reduction(self, shape, sites):
        peps, state = grid_state(*shape)
        axes = [peps.lattice.site_index(s) for s in sites]
        ref = one_copy_rdm(state, axes, shape[2] ** len(sites))
        np.testing.assert_allclose(halves_rdm(peps, sites), ref, rtol=1e-12)

    def test_allocates_about_two_blocks(self):
        """On a 2**18-amplitude state a warm call allocates about one copy of its halves, never the state.

        The fused halves are written into the thread's workspace, which the
        first call filled; a half's single layer is dropped once copied, and
        the reduction holds each half's conjugate. Its other intermediates
        are smaller.
        """
        peps = random_injective_peps(LatticeSpec((6, 3)), 2, 2, 0.3, 1)
        for sites in (((2, 1),), ((2, 1), (3, 1))):
            obs = Observable(sites=sites, matrix=np.eye(2 ** len(sites)))
            halves_bytes = sum(a.nbytes for _, a in _state_halves(peps, sites))
            exact_expectation(peps, obs)  # plans and compiles outside the trace
            tracemalloc.start()
            try:
                exact_expectation(peps, obs)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak <= 2 * halves_bytes
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

        psi = state_vector(peps)
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


class TestWorkspace:
    def test_second_call_writes_into_the_first_calls_buffers(self):
        peps, _ = grid_state((5, 4), 2, 2)
        obs = pauli_z_at((2, 1))
        first = _state_halves(peps, obs.sites)
        copies = [a.copy() for _, a in first]
        second = _state_halves(peps, obs.sites)
        for (_, a), (_, b), c in zip(first, second, copies):
            assert np.shares_memory(a, b)
            assert b.tobytes() == c.tobytes()
        values = [exact_expectation(peps, obs) for _ in range(2)]
        assert values[0].value == values[1].value and values[0].norm_sq == values[1].norm_sq

    def test_interleaved_calls_equal_calls_on_an_emptied_workspace(self, monkeypatch):
        """Buffers grown by one state and reused by a smaller one hold no stale or aliased data."""
        cases = [
            (grid_state(extents, bond, 2)[0], hermitian_observable(sites, 2))
            for extents, bond in (((3, 3), 3), ((4, 4), 2), ((5, 4), 2))
            for sites in half_supports(extents)
        ]
        refs = [on_emptied_workspace(peps, obs, monkeypatch) for peps, obs in cases]
        n = len(cases)
        # Forward, backward and strided: the buffers grow and shrink between states.
        for order in (range(n), reversed(range(n)), [(7 * i) % n for i in range(n)]):
            for k in order:
                res = exact_expectation(*cases[k])
                assert (res.value, res.norm_sq) == (refs[k].value, refs[k].norm_sq)

    def test_a_half_above_the_bound_is_not_kept(self, monkeypatch):
        peps, _ = grid_state((5, 4), 2, 2)
        obs = pauli_z_at((3, 1))
        ref = on_emptied_workspace(peps, obs, monkeypatch)
        # The halves hold 2**12 and 2**16 entries: the first is kept, the second not.
        monkeypatch.setattr(oracle, "WORKSPACE_ENTRIES", 2**12)
        monkeypatch.setattr(oracle, "_workspace", oracle._Workspace())
        first, second = _state_halves(peps, obs.sites), _state_halves(peps, obs.sites)
        kept, fresh = oracle._workspace.buffers
        assert first[0][1].size == 2**12 and first[1][1].size == 2**16
        assert np.shares_memory(first[0][1], second[0][1]) and np.shares_memory(first[0][1], kept)
        assert fresh is None and not np.shares_memory(first[1][1], second[1][1])
        res = exact_expectation(peps, obs)
        assert (res.value, res.norm_sq) == (ref.value, ref.norm_sq)

    def test_threads_get_their_single_thread_values(self, monkeypatch):
        cases = [
            [(grid_state(extents, bond, 2)[0], hermitian_observable(sites, 2))
             for sites in half_supports(extents)]
            for extents, bond in (((3, 3), 3), ((5, 4), 2))
        ]
        refs = [[on_emptied_workspace(peps, obs, monkeypatch).value for peps, obs in c] for c in cases]
        got = [[], []]

        def run(k):
            for _ in range(10):
                got[k].append([exact_expectation(peps, obs).value for peps, obs in cases[k]])

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=run, args=(k,)) for k in range(2)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert got == [[r] * 10 for r in refs]


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
