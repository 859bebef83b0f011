import numpy as np
import pytest

from pepskit.errors import ArgumentError, NumericalError, SizeBudgetError
from pepskit.generators import aklt_chain, product_peps, random_injective_peps
from pepskit.lattice import LatticeSpec
from pepskit.network import contract_network
from pepskit.observables import Observable, PAULI, SPIN1, identity_observable
from pepskit.oracle import disentangling_error_trace, exact_correlation, exact_expectation
from pepskit.peps import PepsState, SiteTensor


def pauli_z_at(site):
    return Observable(sites=(site,), matrix=PAULI["pauli-z"])


def sz_at(site):
    return Observable(sites=(site,), matrix=SPIN1["s_z"])


class TestExactExpectation:
    def test_identity_is_one(self):
        lat = LatticeSpec(2, (2, 3))
        peps = random_injective_peps(lat, 2, 2, 0.2, 1)
        res = exact_expectation(peps, identity_observable([(1, 1)], 2))
        assert res.value == pytest.approx(1.0, abs=1e-12)

    def test_product_single_site(self):
        lat = LatticeSpec(2, (3, 3))
        peps = product_peps(lat, bond_dim=2, phys_dim=2)
        res = exact_expectation(peps, pauli_z_at((1, 1)))
        assert res.value == pytest.approx(1.0, abs=1e-12)  # <0|Z|0> = 1

    def test_perturbed_3x3_regression(self):
        lat = LatticeSpec(2, (3, 3))
        peps = random_injective_peps(lat, 2, 2, 0.1, 42)
        res = exact_expectation(peps, pauli_z_at((1, 1)))
        assert res.value.real == pytest.approx(0.997329957378241, rel=1e-10)
        assert abs(res.value.imag) <= 1e-10 * abs(res.value)
        assert res.norm_sq > 0
        assert res.sites_used == 9

    def test_cross_paths_agree_implicitly(self):
        # both paths run at this size; exact_expectation raises if they differ
        lat = LatticeSpec(2, (2, 2))
        peps = random_injective_peps(lat, 2, 4, 0.3, 11)
        res = exact_expectation(peps, Observable(sites=((0, 0),), matrix=np.diag([1, -1, 1, -1.0])))
        assert abs(res.value.imag) < 1e-10

    def test_network_path_only_when_state_too_big(self):
        lat = LatticeSpec(2, (5, 5))
        peps = random_injective_peps(lat, 2, 2, 0.1, 42)
        res = exact_expectation(peps, pauli_z_at((2, 2)))  # 2^25 amplitudes > cutoff
        assert abs(res.value) <= 1.0 + 1e-9

    def test_size_error_when_both_paths_blocked(self):
        lat = LatticeSpec(1, (10,))
        peps = random_injective_peps(lat, 2, 2, 0.1, 0)
        with pytest.raises(SizeBudgetError):
            exact_expectation(peps, pauli_z_at((5,)), cutoff=4, budget=4)

    def test_long_chain_norm_keeps_its_pair_weights(self):
        # 1,099 D=2 pairs: their joint weight 2**-1099 is below the float range.
        res = exact_expectation(aklt_chain(1100), sz_at((550,)))
        assert res.norm_sq == pytest.approx(0.75**1098, rel=1e-12, abs=0)

    def test_overflowing_network_norm_raises(self):
        lat = LatticeSpec(1, (3,))
        big = np.array([1e200, 0.0])
        tensors = {
            s: SiteTensor(s, big.reshape((2,) + (1,) * len(lat.virtual_legs(s))))
            for s in lat.sites()
        }
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(
            NumericalError, match="overflowed"
        ):
            exact_expectation(PepsState(lat, tensors), pauli_z_at((1,)))

    def test_network_path_is_one_contraction(self, monkeypatch):
        calls = []
        monkeypatch.setattr(
            "pepskit.oracle.contract_network",
            lambda *a, **k: calls.append(1) or contract_network(*a, **k),
        )
        peps = random_injective_peps(LatticeSpec(2, (3, 3)), 3, 2, 0.3, 1)
        exact_expectation(peps, pauli_z_at((1, 1)), cutoff=4)
        assert len(calls) == 1

    def test_nan_network_value_fails_cross_check(self, monkeypatch):
        monkeypatch.setattr("pepskit.oracle._network_value", lambda *a: (complex("nan"), 1.0))
        peps = random_injective_peps(LatticeSpec(2, (2, 2)), 2, 2, 0.3, 1)
        with pytest.raises(NumericalError, match="disagree"):
            exact_expectation(peps, pauli_z_at((0, 0)))

    def test_observable_dimension_mismatch_rejected(self):
        peps = aklt_chain(6)
        with pytest.raises(ArgumentError, match="does not match"):
            exact_expectation(peps, pauli_z_at((2,)))

    def test_support_outside_lattice(self):
        lat = LatticeSpec(1, (4,))
        peps = product_peps(lat, 1, 2)
        with pytest.raises(ArgumentError, match="outside"):
            exact_expectation(peps, pauli_z_at((9,)))


class TestExactCorrelation:
    def test_product_connected_zero(self):
        lat = LatticeSpec(2, (3, 3))
        peps = product_peps(lat, bond_dim=2, phys_dim=2)
        joint, conn = exact_correlation(peps, pauli_z_at((0, 0)), pauli_z_at((2, 2)))
        assert abs(conn) < 1e-12

    def test_identity_pair(self):
        lat = LatticeSpec(1, (4,))
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
        lat = LatticeSpec(1, (4,))
        peps = product_peps(lat, 1, 2)
        with pytest.raises(ArgumentError, match="overlap"):
            exact_correlation(peps, pauli_z_at((1,)), pauli_z_at((1,)))


class TestDisentanglingTrace:
    def test_product_any_order_zero(self):
        lat = LatticeSpec(2, (3, 3))
        peps = product_peps(lat, bond_dim=1, phys_dim=2)
        devs = disentangling_error_trace(
            peps, pauli_z_at((1, 1)), [(0, 0), (0, 2), (2, 0), (2, 2)]
        )
        assert all(d < 1e-12 for d in devs)

    def test_identity_observable_zero(self):
        lat = LatticeSpec(2, (3, 3))
        peps = random_injective_peps(lat, 2, 4, 0.05, 42)
        devs = disentangling_error_trace(
            peps, identity_observable([(1, 1)], 4), [(0, 0), (0, 2)]
        )
        assert all(d < 1e-13 for d in devs)

    def test_per_step_bound_and_triangle_inequality(self):
        from pepskit.patch import patch_expectation
        from pepskit.peps import injectivity_check

        lat = LatticeSpec(2, (3, 3))
        peps = random_injective_peps(lat, 2, 4, 0.05, 42)
        obs = Observable(sites=((1, 1),), matrix=np.diag([1.0, -1.0, 1.0, -1.0]))
        corners = [(0, 0), (0, 2), (2, 0), (2, 2)]
        devs = disentangling_error_trace(peps, obs, corners)
        kappas = [injectivity_check(peps.tensors[s]).kappa for s in corners]
        fitted_c = max(d / (k**2 * obs.op_norm) for d, k in zip(devs, kappas))
        assert all(d <= fitted_c * k**2 * obs.op_norm + 1e-15 for d, k in zip(devs, kappas))
        # removing the corners leaves exactly the radius-1 patch state
        oracle = exact_expectation(peps, obs).value
        patch = patch_expectation(peps, obs, 1).value
        assert sum(devs) + 1e-9 >= abs(patch - oracle)

    def test_order_touching_support_rejected(self):
        lat = LatticeSpec(2, (3, 3))
        peps = random_injective_peps(lat, 2, 4, 0.05, 42)
        with pytest.raises(ArgumentError, match="support"):
            disentangling_error_trace(peps, pauli_z_at((1, 1)), [(1, 1)])
