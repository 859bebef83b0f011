"""Ground-truth expectation values by full (exponential-cost) contraction.

Every approximation claim in the package is gated against this module at
desk scale. Two independent paths are used where feasible: the explicit
state vector and the full double-layer network; when both run they are
cross-checked against each other.

``_doubled_network`` is the package's one double-layer builder: the patch
estimator contracts it over a patch, the sampler leaves the support's legs
open to read the reduced density matrix rho_X, and the network path here
contracts it over the whole lattice.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from .errors import ArgumentError, NumericalError, SizeBudgetError
from .network import DEFAULT_BUDGET, contract_network
from .observables import Observable, kron_observable
from .peps import PepsState, STATE_VECTOR_CUTOFF, build_state_vector, disentangle_site

__all__ = ["OracleResult", "exact_expectation", "exact_correlation", "disentangling_error_trace"]

CROSS_CHECK_RTOL = 1e-10


@dataclass(frozen=True)
class OracleResult:
    value: complex
    norm_sq: float
    sites_used: int
    wall_time: float


def apply_observable(state: np.ndarray, axes: list[int], matrix: np.ndarray) -> np.ndarray:
    """Apply a multi-site operator to the given state axes (row-major over axes)."""
    dims = [state.shape[ax] for ax in axes]
    dim = int(np.prod(dims))
    if matrix.shape != (dim, dim):
        raise ArgumentError(
            f"observable dimension {matrix.shape} does not match support dims {dims}"
        )
    op = matrix.reshape(tuple(dims) + tuple(dims))
    out = np.tensordot(op, state, axes=(list(range(len(axes), 2 * len(axes))), axes))
    return np.moveaxis(out, list(range(len(axes))), axes)


def expectation_from_state(state: np.ndarray, axes: list[int], obs: Observable) -> complex:
    """<psi|O|psi> / <psi|psi> on an explicit state tensor."""
    num = np.vdot(state, apply_observable(state, axes, obs.matrix))
    den = np.vdot(state, state)
    if den == 0:
        raise ArgumentError("state has zero norm")
    return complex(num / den)


def check_observable(peps: PepsState, obs: Observable):
    """Raise ArgumentError unless ``obs`` fits the lattice and its physical legs.

    Every support site must lie in the lattice, and the matrix dimension
    must equal the product of the support sites' physical dimensions.
    """
    for s in obs.sites:
        if not peps.lattice.contains(s):
            raise ArgumentError(f"observable site {s} outside lattice")
    dims = [peps.tensors[s].phys_dim for s in obs.sites]
    if obs.dim != math.prod(dims):
        raise ArgumentError(
            f"observable dimension {obs.dim} does not match the support's physical dims {dims}"
        )


def _doubled_network(
    peps: PepsState, obs: Observable | None, patch=None, closure=None, open_support=False
):
    """Assemble the double-layer network for <w|O|w> (or the norm if obs is None).

    ``patch``/``closure`` restrict to a site subset with the given crossing
    edges closed ket-against-bra; the default is the whole lattice. With
    ``open_support`` the operator is left out, so the support's ket legs
    ``("kp", s)`` and bra legs ``("bp", s)`` stay open and the network is the
    unnormalised reduced density matrix rho_X of ``obs.sites``.
    """
    sites = patch if patch is not None else peps.lattice.sites()
    closure = set(closure or [])
    obs_sites = set(obs.sites) if obs is not None else set()
    tensors, labels = [], []
    for s in sites:
        ket = peps.tensors[s].tensor
        k_labels = [("kp", s) if s in obs_sites else ("pp", s)]
        b_labels = [("bp", s) if s in obs_sites else ("pp", s)]
        for e in peps.lattice.virtual_legs(s):
            if e in closure:
                k_labels.append(("ce", e))
                b_labels.append(("ce", e))
            else:
                k_labels.append(("ke", e))
                b_labels.append(("be", e))
        tensors.append(ket)
        labels.append(k_labels)
        tensors.append(ket.conj())
        labels.append(b_labels)
    if obs is not None and not open_support:
        dims = [peps.tensors[s].phys_dim for s in obs.sites]
        op = obs.matrix.reshape(tuple(dims) + tuple(dims))
        tensors.append(op)
        labels.append([("bp", s) for s in obs.sites] + [("kp", s) for s in obs.sites])
    return tensors, labels


def _network_value(peps: PepsState, obs: Observable, budget: int) -> tuple[complex, float]:
    """(expectation, raw denominator) from the full double-layer contraction."""
    num_t, num_l = _doubled_network(peps, obs)
    den_t, den_l = _doubled_network(peps, None)
    den = complex(contract_network(den_t, den_l, budget=budget))
    if den == 0:
        raise ArgumentError("PEPS has zero norm")
    num = complex(contract_network(num_t, num_l, budget=budget))
    return num / den, den.real


def exact_expectation(
    peps: PepsState,
    obs: Observable,
    cutoff: int = STATE_VECTOR_CUTOFF,
    budget: int = DEFAULT_BUDGET,
) -> OracleResult:
    """Exact normalised expectation value <w|O_X|w> / <w|w>.

    Runs the state-vector path when the amplitude count permits and the
    double-layer network path when it fits the budget; if both run their
    values must agree to ``CROSS_CHECK_RTOL`` relative.
    """
    peps.lattice.require_engine_dimension()
    check_observable(peps, obs)
    t0 = time.perf_counter()

    sv_value = sv_norm = None
    sv_error: SizeBudgetError | None = None
    try:
        state = build_state_vector(peps, cutoff=cutoff)
        axes = [peps.lattice.site_index(s) for s in obs.sites]
        sv_norm = float(np.vdot(state, state).real)
        sv_value = expectation_from_state(state, axes, obs)
    except SizeBudgetError as exc:
        sv_error = exc

    net_value = net_norm = None
    net_error: SizeBudgetError | None = None
    try:
        net_value, den_raw = _network_value(peps, obs, budget)
        weight = 1.0
        for e in peps.lattice.edges():
            weight /= peps._edge_extent(e[0], e)
        net_norm = den_raw * weight
    except SizeBudgetError as exc:
        net_error = exc

    if sv_value is None and net_value is None:
        raise sv_error or net_error

    if sv_value is not None and net_value is not None:
        scale = max(abs(sv_value), abs(net_value), 1e-30)
        if abs(sv_value - net_value) > CROSS_CHECK_RTOL * scale + 1e-14:
            raise NumericalError(
                f"oracle paths disagree: state-vector {sv_value} vs network {net_value}"
            )

    value = sv_value if sv_value is not None else net_value
    norm_sq = sv_norm if sv_norm is not None else net_norm
    if obs.hermitian and abs(value.imag) > 1e-10 * abs(value) + 1e-12:
        raise NumericalError(f"Hermitian observable produced complex value {value}")
    return OracleResult(
        value=value,
        norm_sq=norm_sq,
        sites_used=peps.lattice.n_sites,
        wall_time=time.perf_counter() - t0,
    )


def exact_correlation(
    peps: PepsState, oa: Observable, ob: Observable, **kwargs
) -> tuple[complex, complex]:
    """Joint and connected two-point functions of single-site observables."""
    if len(oa.sites) != 1 or len(ob.sites) != 1:
        raise ArgumentError("exact_correlation takes single-site observables")
    if set(oa.sites) & set(ob.sites):
        raise ArgumentError(f"supports overlap at {oa.sites}")
    joint = exact_expectation(peps, kron_observable(oa, ob), **kwargs).value
    ea = exact_expectation(peps, oa, **kwargs).value
    eb = exact_expectation(peps, ob, **kwargs).value
    return joint, joint - ea * eb


def disentangling_error_trace(
    peps: PepsState, obs: Observable, order, cutoff: int = STATE_VECTOR_CUTOFF
) -> list[float]:
    """Per-step expectation drift while peeling sites off the state.

    For each site in ``order`` the site map's left-inverse is applied and
    the absolute change of the normalised expectation value recorded. The
    observable support must be untouched by ``order``.
    """
    order = [tuple(s) for s in order]
    if set(order) & set(obs.sites):
        raise ArgumentError("disentangling order touches the observable support")
    if len(set(order)) != len(order):
        raise ArgumentError("disentangling order repeats a site")
    state = build_state_vector(peps, cutoff=cutoff)
    state = state / np.linalg.norm(state)
    axes = [peps.lattice.site_index(s) for s in obs.sites]
    deviations = []
    prev = expectation_from_state(state, axes, obs)
    for site in order:
        state = disentangle_site(state, peps, site)
        cur = expectation_from_state(state, axes, obs)
        deviations.append(abs(cur - prev))
        prev = cur
    return deviations
