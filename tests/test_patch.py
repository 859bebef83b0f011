import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pepskit import network
from pepskit import peps as peps_module
from pepskit.errors import ArgumentError, NumericalError, SizeBudgetError
from pepskit.generators import aklt_chain, product_peps, random_injective_peps
from pepskit.lattice import LatticeSpec
from pepskit.network import DEFAULT_BUDGET, WORK_BUDGET, _plan, contract_network
from pepskit.observables import Observable, PAULI, expectation_from_rdm
from pepskit.oracle import exact_expectation
from pepskit.patch import adaptive_estimate, error_bound, patch_expectation, patch_rdm, select_patch
from pepskit.peps import PepsState, _doubled_network, build_state_vector


def pauli_z_at(site):
    return Observable(sites=(site,), matrix=PAULI["pauli-z"])


def brute_force_ball(lattice, support, ell):
    """Independent BFS oracle for patch membership."""
    import collections

    dist = {s: 0 for s in support}
    queue = collections.deque(support)
    while queue:
        s = queue.popleft()
        if dist[s] == ell:
            continue
        for nb in lattice.neighbors(s):
            if nb not in dist:
                dist[nb] = dist[s] + 1
                queue.append(nb)
    return set(dist)


class TestSelectPatch:
    def test_radius_zero_is_support(self):
        lat = LatticeSpec((4, 4))
        patch = select_patch(lat, [(1, 2)], 0)
        assert patch.sites == ((1, 2),)
        incident = {e for e in lat.edges() if (1, 2) in e}
        assert set(patch.crossing_edges) == incident

    def test_bulk_ball_size_formula(self):
        lat = LatticeSpec((9, 9))
        for ell in (1, 2, 3):
            patch = select_patch(lat, [(4, 4)], ell)
            assert len(patch.sites) == 2 * ell * ell + 2 * ell + 1

    def test_corner_clipped_ball(self):
        lat = LatticeSpec((5, 5))
        patch = select_patch(lat, [(0, 0)], 2)
        assert len(patch.sites) == 6
        assert set(patch.sites) == brute_force_ball(lat, [(0, 0)], 2)

    def test_matches_brute_force_bfs(self):
        lat = LatticeSpec((5, 6))
        for support, ell in [([(2, 2)], 2), ([(0, 3), (4, 1)], 1), ([(2, 5)], 3)]:
            patch = select_patch(lat, support, ell)
            assert set(patch.sites) == brute_force_ball(lat, support, ell)

    def test_every_incident_edge_classified_once(self):
        lat = LatticeSpec((5, 5))
        patch = select_patch(lat, [(2, 2)], 1)
        inside = set(patch.sites)
        touched = {e for e in lat.edges() if e[0] in inside or e[1] in inside}
        interior = {e for e in touched if e[0] in inside and e[1] in inside}
        assert set(patch.crossing_edges) == touched - interior

    def test_outside_support_rejected(self):
        lat = LatticeSpec((3, 3))
        with pytest.raises(ArgumentError):
            select_patch(lat, [(5, 5)], 1)

    def test_edge_split_sorted_like_edge_scan(self):
        for lat, support in [
            (LatticeSpec((12, 12)), [(6, 6)]),
            (LatticeSpec((12, 12)), [(0, 11), (1, 11)]),
            (LatticeSpec((5, 6)), [(0, 3), (4, 1)]),
            (LatticeSpec((9,)), [(2,)]),
        ]:
            for ell in range(7):
                patch = select_patch(lat, support, ell)
                inside = set(patch.sites)
                edges = lat.edges()
                assert patch.crossing_edges == tuple(
                    e for e in edges if (e[0] in inside) != (e[1] in inside)
                )


class TestPatchExpectation:
    def test_identity_exactly_one(self, identity_observable):
        lat = LatticeSpec((4, 4))
        peps = random_injective_peps(lat, 2, 2, 0.1, 3)
        for ell in (0, 1, 3):
            est = patch_expectation(peps, identity_observable([(1, 1)], 2), ell)
            assert est.value == 1.0  # exact, not approximate

    def test_product_radius_zero(self):
        lat = LatticeSpec((3, 3))
        peps = product_peps(lat, bond_dim=1, phys_dim=2)
        est = patch_expectation(peps, pauli_z_at((1, 1)), 0)
        assert est.value == pytest.approx(1.0, abs=1e-12)

    def test_4x4_errors_strictly_decreasing(self):
        lat = LatticeSpec((4, 4))
        peps = random_injective_peps(lat, 2, 2, 0.1, 42)
        obs = pauli_z_at((1, 1))
        oracle = exact_expectation(peps, obs).value
        assert oracle.real == pytest.approx(0.9924089495249148, rel=1e-10)
        values = {ell: patch_expectation(peps, obs, ell).value for ell in (0, 1, 2)}
        # regression baselines for the estimates themselves
        assert values[0].real == pytest.approx(0.9286007842066292, rel=1e-9)
        assert values[1].real == pytest.approx(0.9917756118909514, rel=1e-9)
        assert values[2].real == pytest.approx(0.9924128112716871, rel=1e-9)
        errs = [abs(values[ell] - oracle) for ell in (0, 1, 2)]
        assert errs[0] > errs[1] > errs[2]
        assert errs[2] < 1e-3

    def test_whole_lattice_matches_oracle(self):
        lat = LatticeSpec((3, 3))
        peps = random_injective_peps(lat, 2, 2, 0.1, 42)
        obs = pauli_z_at((1, 1))
        oracle = exact_expectation(peps, obs).value
        est = patch_expectation(peps, obs, lat.diameter)
        assert est.patch_size == lat.n_sites
        assert est.value == pytest.approx(oracle, rel=1e-10)

    def test_gauge_invariance_under_tensor_rescaling(self):
        lat = LatticeSpec((4, 4))
        peps = random_injective_peps(lat, 2, 2, 0.1, 7)
        obs = pauli_z_at((1, 1))
        base = patch_expectation(peps, obs, 1).value
        tensors = dict(peps.tensors)
        tensors[(0, 1)] = 5.0 * peps.tensors[(0, 1)]
        scaled = PepsState(lattice=lat, tensors=tensors)
        rescaled = patch_expectation(scaled, obs, 1).value
        assert abs(rescaled - base) <= 1e-12 * abs(base)

    def test_observable_dimension_mismatch_rejected(self):
        peps = aklt_chain(8)
        for obs in (pauli_z_at((3,)), Observable(sites=((3,), (4,)), matrix=np.eye(6))):
            with pytest.raises(ArgumentError, match="physical dims"):
                patch_expectation(peps, obs, 2)
            with pytest.raises(ArgumentError, match="physical dims"):
                adaptive_estimate(peps, obs, 1e-3)

    def test_hermitian_value_is_real(self):
        lat = LatticeSpec((4, 4))
        peps = random_injective_peps(lat, 2, 2, 0.1, 9)
        est = patch_expectation(peps, pauli_z_at((2, 2)), 2)
        assert abs(est.value.imag) <= 1e-10 * abs(est.value) + 1e-12

    def test_budget_error_reports_size(self, monkeypatch):
        monkeypatch.setattr(network, "DEFAULT_BUDGET", 8)
        lat = LatticeSpec((5, 5))
        peps = random_injective_peps(lat, 2, 2, 0.1, 1)
        with pytest.raises(SizeBudgetError) as err:
            patch_expectation(peps, pauli_z_at((2, 2)), 2)
        assert err.value.predicted_size > 8

    def test_one_contraction_per_estimate(self, monkeypatch):
        calls = []
        monkeypatch.setattr(
            "pepskit.patch.contract_network",
            lambda *a, **k: calls.append(1) or contract_network(*a, **k),
        )
        peps = random_injective_peps(LatticeSpec((4, 4)), 2, 2, 0.1, 3)
        obs = Observable(sites=((1, 1), (1, 2)), matrix=np.kron(PAULI["pauli-z"], PAULI["pauli-x"]))
        for ell in (0, 2):
            patch_expectation(peps, obs, ell)
        assert len(calls) == 2

    def test_work_budget_refused_before_any_arithmetic(self, monkeypatch):
        # The l=6 centre plan fits the size budget (2**26 entries) but costs
        # about 9e10 multiply-adds.
        peps = random_injective_peps(LatticeSpec((12, 12)), 2, 2, 0.3, 1)

        def no_arithmetic(*args, **kwargs):
            raise AssertionError("np.dot ran before the plan was refused")

        def contract_without_arithmetic(*args, **kwargs):
            with monkeypatch.context() as m:
                m.setattr(np, "dot", no_arithmetic)
                return contract_network(*args, **kwargs)

        monkeypatch.setattr("pepskit.patch.contract_network", contract_without_arithmetic)
        with pytest.raises(SizeBudgetError, match="multiply-adds") as err:
            patch_expectation(peps, pauli_z_at((6, 6)), 6)
        assert err.value.predicted_size > WORK_BUDGET


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_non_finite_values_raise_numerical_error(overflowing_chain, monkeypatch):
    peps, obs = overflowing_chain, pauli_z_at((1,))
    with pytest.raises(NumericalError, match="overflowed"):
        patch_expectation(peps, obs, 1)

    def refuse_network(*args, **kwargs):  # the state-vector path alone
        raise SizeBudgetError("network path refused")

    monkeypatch.setattr("pepskit.oracle.patch_rdm", refuse_network)
    with pytest.raises(NumericalError, match="overflowed"):
        exact_expectation(peps, obs)


@st.composite
def small_states_and_observables(draw):
    rows = draw(st.integers(1, 3))
    lat = LatticeSpec((rows, draw(st.integers(2 if rows == 1 else 1, 3))))
    phys = draw(st.integers(2, 3))
    seed = draw(st.integers(0, 2**32 - 1))
    peps = random_injective_peps(lat, draw(st.integers(1, 3)), phys, 0.5, seed)
    support = [draw(st.sampled_from(lat.sites()))]
    if draw(st.booleans()):
        support.append(draw(st.sampled_from(lat.neighbors(support[0]))))
    rng = np.random.default_rng(seed)
    dim = phys ** len(support)
    m = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return peps, Observable(sites=tuple(support), matrix=m + m.conj().T)


@settings(max_examples=40)
@given(small_states_and_observables())
def test_covering_patch_equals_state_vector_expectation(one_copy_rdm, case):
    peps, obs = case
    state = build_state_vector(peps)
    axes = [peps.lattice.site_index(s) for s in obs.sites]
    exact, _ = expectation_from_rdm(one_copy_rdm(state, axes, obs.dim), obs, "state")
    est = patch_expectation(peps, obs, peps.lattice.diameter)
    assert est.patch_size == peps.lattice.n_sites
    assert abs(est.value - exact) <= 1e-10 * max(1.0, abs(exact))


class TestRadiusAndBound:
    def test_error_bound_at_zero(self):
        assert error_bound(0, 1, gap=1.0, kappa_star=1.0, op_norm=1.0, c=1.0) == 1.0

    def test_error_bound_at_zero_in_2d_is_kappa_squared_norm(self):
        # The boundary factor counts at least one site: l = 0 is not exact.
        assert error_bound(0, 2, 1.0, 2.0, 1.0, 1.0) == 4.0

    def test_error_bound_monotone_when_rate_dominates(self):
        for ell in range(1, 20):
            b1 = error_bound(ell, 2, gap=1.0, kappa_star=2.0, op_norm=3.0, c=1.0)
            b2 = error_bound(ell + 1, 2, gap=1.0, kappa_star=2.0, op_norm=3.0, c=1.0)
            if 1.0 > (2 - 1) * math.log((ell + 1) / ell):
                assert b2 < b1

    def test_invalid_parameters(self):
        for gap, kappa_star, c in [
            (0.0, 1.0, 1.0),
            (-1.0, 1.0, 1.0),
            (math.nan, 1.0, 1.0),
            (math.inf, 1.0, 1.0),
            (1.0, 1.0, 0.0),
            (1.0, 1.0, math.nan),
            (1.0, 0.5, 1.0),
            (1.0, -3.0, 1.0),
            (1.0, math.inf, 1.0),
            (1.0, math.nan, 1.0),
        ]:
            with pytest.raises(ArgumentError):
                error_bound(1, 2, gap=gap, kappa_star=kappa_star, op_norm=1.0, c=c)


class TestAdaptive:
    def test_product_converges_at_radius_one(self):
        lat = LatticeSpec((5, 5))
        peps = product_peps(lat, bond_dim=1, phys_dim=2)
        est = adaptive_estimate(peps, pauli_z_at((2, 2)), epsilon=1e-6)
        assert est.mode == "adaptive"
        assert est.radius_used == 1
        assert est.ladder[-1]["diff"] <= 1e-13

    def test_identity_converges_immediately(self, identity_observable):
        lat = LatticeSpec((5, 5))
        peps = random_injective_peps(lat, 2, 2, 0.1, 4)
        est = adaptive_estimate(peps, identity_observable([(2, 2)], 2), epsilon=1e-6)
        assert est.radius_used == 1
        assert est.value == 1.0

    def test_5x5_adaptive_within_epsilon_of_oracle(self):
        lat = LatticeSpec((5, 5))
        peps = random_injective_peps(lat, 2, 2, 0.1, 42)
        obs = pauli_z_at((2, 2))
        est = adaptive_estimate(peps, obs, epsilon=1e-4)
        oracle = exact_expectation(peps, obs).value
        assert abs(est.value - oracle) <= 1e-4
        assert est.ladder is not None and len(est.ladder) >= 2

    @pytest.mark.parametrize(
        "extents, site, epsilon", [((24,), (9,), 1e-9), ((6, 6), (0, 1), 1e-6)], ids=["chain", "corner"]
    )
    def test_ladder_builds_each_node_once(self, monkeypatch, extents, site, epsilon):
        peps = random_injective_peps(LatticeSpec(extents), 2, 2, 0.5, 7)
        obs = pauli_z_at(site)
        built = []
        single, stacked = peps_module._hermitian_node, peps_module._hermitian_nodes
        monkeypatch.setattr(peps_module, "_hermitian_node", lambda k, *a: built.append(1) or single(k, *a))
        monkeypatch.setattr(peps_module, "_hermitian_nodes", lambda k, *a: built.append(len(k)) or stacked(k, *a))
        est = adaptive_estimate(peps, obs, epsilon)
        assert len(est.ladder) >= 4
        # Each site's pattern by the per-site rule: kept axes and their metric.
        distinct, rebuilt = set(), 0
        for rung in est.ladder:
            patch = select_patch(peps.lattice, obs.sites, rung["ell"])
            closure, inside = set(patch.crossing_edges), set(patch.sites)
            for s in patch.sites:
                legs = peps.lattice.virtual_legs(s)
                distinct.add((s, s in obs.sites, tuple((e not in closure, e[0] == s and e[1] in inside) for e in legs)))
            rebuilt += len(patch.sites)
        assert sum(built) == len(distinct) < rebuilt
        built.clear()
        assert adaptive_estimate(peps, obs, epsilon).ladder == est.ladder
        assert sum(built) == len(distinct)  # nothing is kept across calls
        monkeypatch.setattr(peps_module, "_hermitian_node", single)
        monkeypatch.setattr(peps_module, "_hermitian_nodes", stacked)
        for rung in est.ladder:
            assert patch_expectation(peps, obs, rung["ell"]).value == rung["value"]
        assert est.value == est.ladder[-1]["value"]

    def test_stage_times_sum_over_rungs(self):
        peps = random_injective_peps(LatticeSpec((6, 6)), 2, 2, 0.5, 7)
        obs = pauli_z_at((0, 1))
        fixed = patch_expectation(peps, obs, 2)
        est = adaptive_estimate(peps, obs, 1e-6)
        for e in (fixed, est):
            assert set(e.stage_times) == {"select", "assemble", "contract"}
            assert min(e.stage_times.values()) > 0
            assert sum(e.stage_times.values()) <= e.wall_time

    def test_budget_error_propagates_from_a_rung(self, monkeypatch):
        monkeypatch.setattr(network, "DEFAULT_BUDGET", 64)
        lat = LatticeSpec((6, 6))
        peps = random_injective_peps(lat, 2, 2, 0.1, 5)
        with pytest.raises(SizeBudgetError) as err:
            adaptive_estimate(peps, pauli_z_at((3, 3)), epsilon=1e-12)
        assert err.value.predicted_size > 64


def _complex_rho_network(peps, support, patch):
    """The complex double layer: one ket (x) conj(ket) node per site.

    Each node keeps a ket leg ("k", ...) and a bra leg ("b", ...) per open
    index, so a bond is two labels of extent D.
    """
    closure = set(patch.crossing_edges)
    tensors, labels = [], []
    for s in patch.sites:
        ket = peps.tensors[s]
        legs = peps.lattice.virtual_legs(s)
        names = [("p", s)] + [("e", e) for e in legs]
        n = ket.ndim
        keep = [s in support] + [e not in closure for e in legs]
        kept = [ax for ax in range(n) if keep[ax]]
        bra = [n + ax if keep[ax] else ax for ax in range(n)]
        tensors.append(np.einsum(ket, list(range(n)), ket.conj(), bra, kept + [n + ax for ax in kept]))
        labels.append([("k", names[ax]) for ax in kept] + [("b", names[ax]) for ax in kept])
    return tensors, labels


def _extents(tensors, labels):
    return {l: d for t, ls in zip(tensors, labels) for l, d in zip(ls, t.shape)}


def _plan_outcome(labels, extents):
    try:
        return _plan(labels, extents, DEFAULT_BUDGET)
    except SizeBudgetError as exc:
        return ("refused", exc.predicted_size)


def _chain(n, bond, phys, seed):
    return random_injective_peps(LatticeSpec((n,)), bond, phys, 1.0, seed)


def _grid(rows, cols, bond, phys, seed):
    return random_injective_peps(LatticeSpec((rows, cols)), bond, phys, 1.0, seed)


RHO_STATES = {
    "chain-D1-d2": (lambda: _chain(7, 1, 2, 1), [(3,)], [(2,), (3,)], [(1,), (5,)]),
    "chain-D2-d2": (lambda: _chain(7, 2, 2, 2), [(0,)], [(3,), (4,)], [(1,), (4,), (6,)]),
    "chain-D3-d3": (lambda: _chain(7, 3, 3, 3), [(6,)], [(2,), (3,), (4,)], [(0,), (5,)]),
    "aklt": (lambda: aklt_chain(7), [(3,)], [(3,), (4,)], [(1,), (5,)]),
    "grid-D1-d3": (lambda: _grid(3, 3, 1, 3, 4), [(1, 1)], [(0, 0), (2, 2)], [(0, 1), (1, 1), (1, 2)]),
    "grid-D2-d2": (lambda: _grid(3, 3, 2, 2, 5), [(0, 2)], [(1, 1), (1, 2)], [(0, 0), (1, 1), (2, 0)]),
    "grid-D2-d3": (lambda: _grid(2, 4, 2, 3, 6), [(1, 1)], [(0, 1), (1, 1)], [(0, 0), (0, 3)]),
    "grid-D3-d2": (lambda: _grid(3, 3, 3, 2, 7), [(1, 1)], [(1, 0), (2, 2)], [(0, 0), (0, 1), (1, 1)]),
}


@pytest.mark.parametrize("name", list(RHO_STATES))
def test_rho_matches_complex_double_layer(name):
    """rho_X from the Hermitian basis equals the complex double layer's, at every radius.

    The supports hold one site, adjacent sites and sites apart; each is
    contracted at every radius from 0 to the diameter. Both label sets get
    the same plan from ``_plan``, so refusals cannot move.
    """
    make, *supports = RHO_STATES[name]
    peps = make()
    for support in supports:
        support = tuple(support)
        dim = math.prod(peps.tensors[s].shape[0] for s in support)
        for ell in range(peps.lattice.diameter + 1):
            patch = select_patch(peps.lattice, support, ell)
            tensors, labels = _complex_rho_network(peps, support, patch)
            output = [("k", ("p", s)) for s in support] + [("b", ("p", s)) for s in support]
            ref = contract_network(tensors, labels, output=output).reshape(dim, dim)
            ref = (ref + ref.conj().T) / 2
            rho, _ = patch_rdm(peps, support, ell)
            assert np.abs(rho - ref).max() <= 1e-12 * np.abs(ref).max(), (support, ell)
            real_tensors, real_labels = _doubled_network(
                peps, support, patch=patch.sites, closure=patch.crossing_edges
            )
            assert all(t.dtype == np.float64 for t in real_tensors)
            assert _plan(real_labels, _extents(real_tensors, real_labels), DEFAULT_BUDGET) == _plan(
                labels, _extents(tensors, labels), DEFAULT_BUDGET
            )


@pytest.mark.parametrize("support, ell", [(((6, 6),), 4), (((6, 6),), 6), (((5, 6), (6, 6)), 5)])
def test_plan_and_refusal_unchanged_on_12x12_patches(support, ell):
    """The seed-1 12x12 D=2 patches: the same steps, or the same refusal, for both label sets."""
    peps = random_injective_peps(LatticeSpec((12, 12)), 2, 2, 0.3, 1)
    patch = select_patch(peps.lattice, support, ell)
    tensors, labels = _complex_rho_network(peps, support, patch)
    real_tensors, real_labels = _doubled_network(
        peps, support, patch=patch.sites, closure=patch.crossing_edges
    )
    outcome = _plan_outcome(labels, _extents(tensors, labels))
    assert _plan_outcome(real_labels, _extents(real_tensors, real_labels)) == outcome
    if ell == 6:
        assert outcome[0] == "refused"
