import math

import numpy as np
import pytest

from pepskit.errors import ArgumentError, SizeBudgetError
from pepskit.generators import aklt_chain, product_peps, random_injective_peps
from pepskit.lattice import LatticeSpec
from pepskit.observables import Observable, PAULI, identity_observable
from pepskit.oracle import exact_expectation
from pepskit.patch import (
    _outcome_distribution,
    adaptive_estimate,
    choose_radius,
    error_bound,
    hoeffding_samples,
    patch_expectation,
    sampling_estimate,
    select_patch,
)
from pepskit.peps import PepsState, SiteTensor


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
        lat = LatticeSpec(2, (4, 4))
        patch = select_patch(lat, [(1, 2)], 0)
        assert patch.sites == ((1, 2),)
        incident = {e for e in lat.edges() if (1, 2) in e}
        assert set(patch.crossing_edges) == incident
        assert not patch.interior_edges

    def test_bulk_ball_size_formula(self):
        lat = LatticeSpec(2, (9, 9))
        for ell in (1, 2, 3):
            patch = select_patch(lat, [(4, 4)], ell)
            assert len(patch.sites) == 2 * ell * ell + 2 * ell + 1
            assert not patch.clipped

    def test_corner_clipped_ball(self):
        lat = LatticeSpec(2, (5, 5))
        patch = select_patch(lat, [(0, 0)], 2)
        assert len(patch.sites) == 6
        assert patch.clipped
        assert set(patch.sites) == brute_force_ball(lat, [(0, 0)], 2)

    def test_matches_brute_force_bfs(self):
        lat = LatticeSpec(2, (5, 6))
        for support, ell in [([(2, 2)], 2), ([(0, 3), (4, 1)], 1), ([(2, 5)], 3)]:
            patch = select_patch(lat, support, ell)
            assert set(patch.sites) == brute_force_ball(lat, support, ell)

    def test_every_incident_edge_classified_once(self):
        lat = LatticeSpec(2, (5, 5))
        patch = select_patch(lat, [(2, 2)], 1)
        interior, crossing = set(patch.interior_edges), set(patch.crossing_edges)
        assert not interior & crossing
        touched = {e for e in lat.edges() if e[0] in patch.sites or e[1] in patch.sites}
        assert interior | crossing == touched

    def test_outside_support_rejected(self):
        lat = LatticeSpec(2, (3, 3))
        with pytest.raises(ArgumentError):
            select_patch(lat, [(5, 5)], 1)

    def test_edge_split_sorted_like_edge_scan(self):
        for lat, support in [
            (LatticeSpec(2, (12, 12)), [(6, 6)]),
            (LatticeSpec(2, (12, 12)), [(0, 11), (1, 11)]),
            (LatticeSpec(2, (5, 6)), [(0, 3), (4, 1)]),
            (LatticeSpec(1, (9,)), [(2,)]),
        ]:
            for ell in range(7):
                patch = select_patch(lat, support, ell)
                inside = set(patch.sites)
                edges = lat.edges()
                assert patch.interior_edges == tuple(
                    e for e in edges if e[0] in inside and e[1] in inside
                )
                assert patch.crossing_edges == tuple(
                    e for e in edges if (e[0] in inside) != (e[1] in inside)
                )


class TestPatchExpectation:
    def test_identity_exactly_one(self):
        lat = LatticeSpec(2, (4, 4))
        peps = random_injective_peps(lat, 2, 2, 0.1, 3)
        for ell in (0, 1, 3):
            est = patch_expectation(peps, identity_observable([(1, 1)], 2), ell)
            assert est.value == 1.0  # exact, not approximate

    def test_product_radius_zero(self):
        lat = LatticeSpec(2, (3, 3))
        peps = product_peps(lat, bond_dim=1, phys_dim=2)
        est = patch_expectation(peps, pauli_z_at((1, 1)), 0)
        assert est.value == pytest.approx(1.0, abs=1e-12)

    def test_4x4_errors_strictly_decreasing(self):
        lat = LatticeSpec(2, (4, 4))
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
        lat = LatticeSpec(2, (3, 3))
        peps = random_injective_peps(lat, 2, 2, 0.1, 42)
        obs = pauli_z_at((1, 1))
        oracle = exact_expectation(peps, obs).value
        est = patch_expectation(peps, obs, lat.diameter)
        assert est.patch_size == lat.n_sites
        assert est.value == pytest.approx(oracle, rel=1e-10)

    def test_gauge_invariance_under_tensor_rescaling(self):
        lat = LatticeSpec(2, (4, 4))
        peps = random_injective_peps(lat, 2, 2, 0.1, 7)
        obs = pauli_z_at((1, 1))
        base = patch_expectation(peps, obs, 1).value
        tensors = dict(peps.tensors)
        tensors[(0, 1)] = SiteTensor((0, 1), 5.0 * peps.tensors[(0, 1)].tensor)
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
        lat = LatticeSpec(2, (4, 4))
        peps = random_injective_peps(lat, 2, 2, 0.1, 9)
        est = patch_expectation(peps, pauli_z_at((2, 2)), 2)
        assert abs(est.value.imag) <= 1e-10 * abs(est.value) + 1e-12

    def test_budget_error_reports_size(self):
        lat = LatticeSpec(2, (5, 5))
        peps = random_injective_peps(lat, 2, 2, 0.1, 1)
        with pytest.raises(SizeBudgetError) as err:
            patch_expectation(peps, pauli_z_at((2, 2)), 2, budget=8)
        assert err.value.predicted_size > 8


class TestRadiusAndBound:
    def test_error_bound_at_zero(self):
        assert error_bound(0, 1, gap=1.0, kappa_star=1.0, op_norm=1.0, c=1.0) == 1.0

    def test_error_bound_monotone_when_rate_dominates(self):
        for ell in range(1, 20):
            b1 = error_bound(ell, 2, gap=1.0, kappa_star=2.0, op_norm=3.0, c=1.0)
            b2 = error_bound(ell + 1, 2, gap=1.0, kappa_star=2.0, op_norm=3.0, c=1.0)
            if 1.0 > (2 - 1) * math.log((ell + 1) / ell):
                assert b2 < b1

    def test_choose_radius_closed_form_1d(self):
        ell = choose_radius(
            epsilon=math.exp(-5), kappa_star=1.0, gap=1.0, op_norm=1.0, c=1.0, lattice_dim=1
        )
        assert ell == 5

    def test_choose_radius_kappa_doubling_increment(self):
        c, gap = 1.0, 0.7
        base = choose_radius(1e-4, 2.0, gap, 1.0, c, 1)
        doubled = choose_radius(1e-4, 4.0, gap, 1.0, c, 1)
        assert doubled - base <= math.ceil(2 * math.log(2) / (c * gap))

    def test_choose_radius_2d_scan(self):
        ell = choose_radius(epsilon=1e-3, kappa_star=2.0, gap=0.5, op_norm=1.0, c=1.0, lattice_dim=2)
        # independent scan of the same inequality
        expected = 1
        while expected * math.exp(-0.5 * expected) * 4.0 > 1e-3:
            expected += 1
        assert ell == expected == 23

    def test_choose_radius_bound_holds_at_result(self):
        ell = choose_radius(1e-3, 2.0, 0.5, 1.0, 1.0, 2)
        assert error_bound(ell, 2, 0.5, 2.0, 1.0, 1.0) <= 1e-3

    def test_choose_radius_capped_at_diameter(self):
        ell = choose_radius(1e-12, 10.0, 0.1, 1.0, 1.0, 2, max_ell=6)
        assert ell == 6

    def test_invalid_parameters(self):
        with pytest.raises(ArgumentError):
            choose_radius(-1.0, 1.0, 1.0, 1.0, 1.0, 1)
        with pytest.raises(ArgumentError):
            choose_radius(0.1, 1.0, -1.0, 1.0, 1.0, 1)
        with pytest.raises(ArgumentError):
            error_bound(1, 2, gap=0.0, kappa_star=1.0, op_norm=1.0, c=1.0)


class TestAdaptive:
    def test_product_converges_at_radius_one(self):
        lat = LatticeSpec(2, (5, 5))
        peps = product_peps(lat, bond_dim=1, phys_dim=2)
        est = adaptive_estimate(peps, pauli_z_at((2, 2)), epsilon=1e-6)
        assert est.mode == "adaptive"
        assert est.radius_used == 1
        assert est.ladder[-1]["diff"] <= 1e-13

    def test_identity_converges_immediately(self):
        lat = LatticeSpec(2, (5, 5))
        peps = random_injective_peps(lat, 2, 2, 0.1, 4)
        est = adaptive_estimate(peps, identity_observable([(2, 2)], 2), epsilon=1e-6)
        assert est.radius_used == 1
        assert est.value == 1.0

    def test_5x5_adaptive_within_epsilon_of_oracle(self):
        lat = LatticeSpec(2, (5, 5))
        peps = random_injective_peps(lat, 2, 2, 0.1, 42)
        obs = pauli_z_at((2, 2))
        est = adaptive_estimate(peps, obs, epsilon=1e-4)
        oracle = exact_expectation(peps, obs).value
        assert abs(est.value - oracle) <= 1e-4
        assert est.ladder is not None and len(est.ladder) >= 2

    def test_budget_error_carries_partial_ladder(self):
        lat = LatticeSpec(2, (6, 6))
        peps = random_injective_peps(lat, 2, 2, 0.1, 5)
        with pytest.raises(SizeBudgetError) as err:
            adaptive_estimate(peps, pauli_z_at((3, 3)), epsilon=1e-12, budget=64)
        assert hasattr(err.value, "ladder")


class TestSampling:
    def test_hoeffding_formula_pauli(self):
        assert hoeffding_samples(0.1, 0.05, 2.0) == 738

    def test_single_eigenvalue_exact(self):
        lat = LatticeSpec(2, (3, 3))
        peps = random_injective_peps(lat, 2, 2, 0.1, 2)
        obs = Observable(sites=((1, 1),), matrix=3.0 * np.eye(2))
        mean, n = sampling_estimate(peps, obs, 1, 0.2, 0.1, seed=0)
        assert mean == pytest.approx(3.0, abs=1e-12)

    def test_failure_rate_within_hoeffding(self):
        lat = LatticeSpec(2, (3, 3))
        peps = random_injective_peps(lat, 2, 2, 0.1, 42)
        obs = pauli_z_at((1, 1))
        target = patch_expectation(peps, obs, 1).value.real
        failures = sum(
            1
            for seed in range(200)
            if abs(sampling_estimate(peps, obs, 1, 0.1, 0.05, seed)[0] - target) > 0.1
        )
        assert failures / 200 <= 0.07

    @pytest.mark.parametrize(
        "support, matrix",
        [(((6, 6),), PAULI["pauli-z"]), (((6, 6), (6, 7)), np.kron(PAULI["pauli-z"], PAULI["pauli-x"]))],
        ids=["site", "pair"],
    )
    def test_mean_outcome_is_patch_value(self, support, matrix):
        peps = random_injective_peps(LatticeSpec(2, (12, 12)), 2, 2, 0.3, 1)
        obs = Observable(sites=support, matrix=matrix)
        evals, probs = _outcome_distribution(peps, obs, 2)
        assert probs.sum() == pytest.approx(1.0, abs=1e-14)
        assert abs(probs @ evals - patch_expectation(peps, obs, 2).value) <= 1e-12

    def test_reaches_radius_two_on_12x12(self):
        # sampling must work wherever the patch estimate does
        peps = random_injective_peps(LatticeSpec(2, (12, 12)), 2, 2, 0.3, 1)
        obs = pauli_z_at((6, 6))
        mean, n = sampling_estimate(peps, obs, 2, 0.1, 0.05, seed=1)
        assert n == 738
        assert abs(mean - patch_expectation(peps, obs, 2).value.real) <= 0.1

    def test_seed_determinism(self):
        lat = LatticeSpec(2, (3, 3))
        peps = random_injective_peps(lat, 2, 2, 0.1, 6)
        obs = pauli_z_at((1, 1))
        a = sampling_estimate(peps, obs, 1, 0.1, 0.05, seed=123)
        b = sampling_estimate(peps, obs, 1, 0.1, 0.05, seed=123)
        assert a == b

    def test_observable_dimension_mismatch_rejected(self):
        peps = aklt_chain(8)
        obs = pauli_z_at((3,))
        with pytest.raises(ArgumentError, match="dimension 2"):
            sampling_estimate(peps, obs, 1, 0.1, 0.05, seed=0)

    def test_non_hermitian_rejected(self):
        lat = LatticeSpec(2, (3, 3))
        peps = random_injective_peps(lat, 2, 2, 0.1, 6)
        obs = Observable(sites=((1, 1),), matrix=np.array([[0.0, 1.0], [0.0, 0.0]]))
        with pytest.raises(ArgumentError, match="Hermitian"):
            sampling_estimate(peps, obs, 1, 0.1, 0.05, seed=0)

    def test_invalid_epsilon_delta(self):
        lat = LatticeSpec(2, (3, 3))
        peps = random_injective_peps(lat, 2, 2, 0.1, 6)
        with pytest.raises(ArgumentError):
            sampling_estimate(peps, pauli_z_at((1, 1)), 1, 0.0, 0.05, seed=0)
