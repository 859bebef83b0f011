"""Ground-truth expectation values by full (exponential-cost) contraction.

Every approximation claim in the package is gated against this module at
desk scale. Two independent paths are used where feasible: the explicit
state vector and the full double-layer network; when both run they are
cross-checked against each other, and ``OracleResult.paths`` names the
paths that ran.

Both layers come from ``peps`` and both paths end in the unnormalised
reduced density matrix rho_X of the support X:

- the state-vector path contracts the single layer over the whole lattice
  (``build_state_vector``) and reduces |w> in one pass: the support axes
  move to the front in ``obs.sites`` order, the rest follow in memory
  order, and the reshaped (dim_X, rest) matrix psi_X gives
  rho_X = psi_X psi_X^dagger;
- the network path contracts the double layer (``peps._doubled_network``)
  over the whole lattice once, with the support legs open.

Either rho_X is Hermitised, (rho + rho^H) / 2; the value is
tr(O rho_X) / tr rho_X and the raw norm tr rho_X. A non-finite norm or
value on either path raises ``NumericalError``.
"""

from __future__ import annotations

import cmath
import math
import time
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import ArgumentError, NumericalError, SizeBudgetError
from .network import DEFAULT_BUDGET, contract_network
from .observables import Observable, kron_observable
from .peps import STATE_VECTOR_CUTOFF, PepsState, _doubled_network, build_state_vector, disentangle_site

__all__ = ["OracleResult", "exact_expectation", "exact_correlation", "disentangling_error_trace"]

CROSS_CHECK_RTOL = 1e-10


@dataclass(frozen=True)
class OracleResult:
    """An oracle value and how it was produced.

    ``paths`` names the paths that ran, ``("state_vector", "network")``
    when both ran and were cross-checked, else the one that ran.
    ``norm_sq`` is <w|w> from the state-vector path when it ran.
    """

    value: complex
    norm_sq: float
    sites_used: int
    wall_time: float
    paths: tuple[str, ...]


def _ratio(num: complex, den: complex, what: str) -> complex:
    """num / den, refusing a zero norm and a non-finite norm or value."""
    if den == 0:
        raise ArgumentError(f"{what} has zero norm")
    value = num / den
    if not (cmath.isfinite(den) and cmath.isfinite(value)):
        raise NumericalError(f"{what} norm or value overflowed: {num} / {den}")
    return value


def state_rdm(state: np.ndarray, axes: list[int], obs: Observable) -> np.ndarray:
    """Hermitised reduced density matrix psi_X psi_X^dagger of a state tensor.

    ``axes`` are the support axes of ``state`` in ``obs.sites`` order, so
    rho_X is row-major over them, like ``obs.matrix``. The remaining axes
    are summed; they are taken in memory order, so the one reshape copy
    reads ``state`` (contiguous or not) nearly in sequence.
    """
    dims = [state.shape[ax] for ax in axes]
    if obs.dim != math.prod(dims):
        raise ArgumentError(f"observable dimension {obs.dim} does not match support dims {dims}")
    rest = sorted(set(range(state.ndim)) - set(axes), key=lambda ax: -state.strides[ax])
    psi = np.transpose(state, list(axes) + rest).reshape(obs.dim, -1)
    rho = psi @ psi.conj().T
    return (rho + rho.conj().T) / 2


def expectation_from_state(state: np.ndarray, axes: list[int], obs: Observable) -> complex:
    """<psi|O|psi> / <psi|psi> on an explicit state tensor, read from its rho_X."""
    return expectation_from_rdm(state_rdm(state, axes, obs), obs, "state")[0]


def expectation_from_rdm(rho: np.ndarray, obs: Observable, what: str) -> tuple[complex, complex]:
    """``(tr(O rho) / tr rho, tr rho)`` of an unnormalised reduced density matrix."""
    den = complex(np.trace(rho))
    return _ratio(complex(np.trace(obs.matrix @ rho)), den, what), den


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


def _network_value(peps: PepsState, obs: Observable, budget: int) -> tuple[complex, float]:
    """(expectation, raw norm) from rho_X of the whole-lattice double layer."""
    tensors, labels = _doubled_network(peps, obs.sites)
    output = [("kp", s) for s in obs.sites] + [("bp", s) for s in obs.sites]
    rho = contract_network(tensors, labels, output=output, budget=budget).reshape(obs.dim, obs.dim)
    value, den = expectation_from_rdm((rho + rho.conj().T) / 2, obs, "double-layer")
    return value, den.real


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
        sv_value, sv_norm = expectation_from_rdm(state_rdm(state, axes, obs), obs, "state")
    except SizeBudgetError as exc:
        sv_error = exc

    net_value = net_norm = None
    net_error: SizeBudgetError | None = None
    try:
        net_value, den_raw = _network_value(peps, obs, budget)
        # Exact rational division: a pair volume beyond the float range
        # (a chain of over 1,024 D=2 bonds) underflows the norm to 0.
        net_norm = float(Fraction(den_raw) / peps.edge_volume(peps.lattice.edges()))
    except SizeBudgetError as exc:
        net_error = exc

    if sv_value is None and net_value is None:
        raise sv_error or net_error

    if sv_value is not None and net_value is not None:
        scale = max(abs(sv_value), abs(net_value), 1e-30)
        if not abs(sv_value - net_value) <= CROSS_CHECK_RTOL * scale + 1e-14:
            raise NumericalError(
                f"oracle paths disagree: state-vector {sv_value} vs network {net_value}"
            )

    value = sv_value if sv_value is not None else net_value
    norm_sq = sv_norm.real if sv_norm is not None else net_norm
    if obs.hermitian and abs(value.imag) > 1e-10 * abs(value) + 1e-12:
        raise NumericalError(f"Hermitian observable produced complex value {value}")
    ran = (("state_vector", sv_value), ("network", net_value))
    return OracleResult(
        value=value,
        norm_sq=norm_sq,
        sites_used=peps.lattice.n_sites,
        wall_time=time.perf_counter() - t0,
        paths=tuple(name for name, v in ran if v is not None),
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
    axes = [peps.lattice.site_index(s) for s in obs.sites]
    deviations = []
    prev = expectation_from_state(state, axes, obs)
    for site in order:
        state = disentangle_site(state, peps, site)
        cur = expectation_from_state(state, axes, obs)
        deviations.append(abs(cur - prev))
        prev = cur
    return deviations
