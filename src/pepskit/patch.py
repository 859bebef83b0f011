"""Local expectation values from a graph-distance patch around the observable.

The estimator contracts only the double-layer network of the radius-l
neighbourhood of the support X, closing each edge that leaves the patch by
tracing its dangling pair half (ket leg against bra leg). One contraction,
:func:`patch_rdm`, leaves the support's ket and bra legs open and gives the
patch's unnormalised reduced density matrix rho_X; the estimate is
tr(O rho_X) / tr rho_X, so the uniform pair weights cancel and the cost is
independent of the lattice size. The double layer is contracted in real
arithmetic: ``peps._doubled_network`` writes every doubled bond, and the
support's ket/bra pair, in a Hermitian basis where each fused node is real,
and ``peps._hermitian_operator`` maps the real result back to rho_X. At
covering radius (l = diameter, the patch is the whole lattice) the same
contraction is the oracle's network path.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from .errors import ArgumentError, SizeBudgetError
from .lattice import LatticeSpec, Site
from .network import DEFAULT_BUDGET, contract_network
from .observables import Observable, check_observable, expectation_from_rdm
from .peps import PepsState, _doubled_network, _hermitian_operator

__all__ = [
    "Patch",
    "Estimate",
    "select_patch",
    "patch_rdm",
    "patch_expectation",
    "error_bound",
    "adaptive_estimate",
]

# Machine-level ladder step below which adaptive mode stops immediately.
LADDER_FLOOR = 1e-14


@dataclass(frozen=True)
class Patch:
    """Closed graph-distance ball around the support, with its edge split."""

    radius: int
    sites: tuple[Site, ...]
    interior_edges: tuple
    crossing_edges: tuple
    clipped: bool


@dataclass(frozen=True)
class Estimate:
    value: complex
    radius_used: int
    bound: float | None
    patch_size: int
    wall_time: float
    mode: str
    ladder: tuple | None = None


def _distances(lattice: LatticeSpec, centers, radius: int) -> dict[Site, int]:
    dist = {tuple(s): 0 for s in centers}
    frontier = list(dist)
    for r in range(1, radius + 1):
        nxt = []
        for s in frontier:
            for nb in lattice.neighbors(s):
                if nb not in dist:
                    dist[nb] = r
                    nxt.append(nb)
        frontier = nxt
        if not frontier:
            break
    return dist


def select_patch(lattice: LatticeSpec, support, ell: int) -> Patch:
    """The radius-``ell`` ball around ``support`` in lattice graph distance."""
    if ell < 0:
        raise ArgumentError(f"patch radius must be >= 0, got {ell}")
    support = [tuple(s) for s in support]
    if not support:
        raise ArgumentError("empty observable support")
    for s in support:
        if not lattice.contains(s):
            raise ArgumentError(f"support site {s} outside lattice")
    dist = _distances(lattice, support, ell)
    sites = tuple(sorted(dist))
    interior, crossing = set(), set()
    for s in sites:
        for e in lattice.virtual_legs(s):
            other = e[0] if e[1] == s else e[1]
            (interior if other in dist else crossing).add(e)
    clipped = any(
        d < ell and len(lattice.neighbors(s)) < 2 * lattice.dimension
        for s, d in dist.items()
    )
    return Patch(
        radius=ell,
        sites=sites,
        interior_edges=tuple(sorted(interior)),
        crossing_edges=tuple(sorted(crossing)),
        clipped=clipped,
    )


def _check_bound_inputs(gap: float | None, kappa_star: float | None, c: float | None):
    """Refuse each supplied bound input that :func:`error_bound` would refuse.

    ``None`` means not supplied and passes.
    """
    for name, value in (("gap", gap), ("clustering constant", c)):
        if value is not None and not 0 < value < math.inf:  # also refuses nan
            raise ArgumentError(f"{name} must be finite and positive, got {value}")
    if kappa_star is not None and not 1 <= kappa_star < math.inf:
        raise ArgumentError(f"kappa_star must be finite and >= 1, got {kappa_star}")


def error_bound(
    ell: int, lattice_dim: int, gap: float, kappa_star: float, op_norm: float, c: float
) -> float:
    """Theoretical error bound max(l, 1)^(d-1) * exp(-c*l*gap) * kappa^2 * |O|.

    The boundary factor l^(d-1) counts at least one site, so at l = 0 the
    bound is kappa^2 * |O|, not 0. The gap and c must be finite and
    positive, and kappa_star, a condition number, finite and at least 1.
    """
    _check_bound_inputs(gap, kappa_star, c)
    poly = float(max(ell, 1)) ** (lattice_dim - 1)
    return poly * math.exp(-c * ell * gap) * kappa_star**2 * op_norm


def patch_rdm(
    peps: PepsState, support, ell: int, budget: int = DEFAULT_BUDGET
) -> tuple[np.ndarray, Patch]:
    """The unnormalised reduced density matrix rho_X of ``support`` on its radius-``ell`` patch.

    One real contraction of the patch's double layer, in the Hermitian
    basis, with the support legs open; its coefficients are mapped back to
    rho_X, returned as a dim x dim matrix, row-major over ``support`` (ket
    rows, bra columns), Hermitised as (rho + rho^H) / 2, together with the
    :class:`Patch` it was contracted on. The pair weights are left out: they
    cancel in every ratio taken of rho_X. At ``ell`` = diameter the patch is
    the whole lattice in row-major order with nothing closed; the oracle's
    network path is that contraction.
    """
    support = tuple(tuple(s) for s in support)
    patch = select_patch(peps.lattice, support, ell)
    tensors, labels = _doubled_network(
        peps, support, patch=patch.sites, closure=patch.crossing_edges
    )
    output = [("p", s) for s in support]
    coefficients = contract_network(tensors, labels, output=output, budget=budget)
    dim = math.prod(peps.tensors[s].shape[0] for s in support)
    rho = _hermitian_operator(coefficients).reshape(dim, dim)
    return (rho + rho.conj().T) / 2, patch


def patch_expectation(
    peps: PepsState,
    obs: Observable,
    ell: int,
    gap: float | None = None,
    kappa_star: float | None = None,
    clustering_c: float | None = None,
    budget: int = DEFAULT_BUDGET,
) -> Estimate:
    """Patch estimate <O_X> = tr(O rho_X) / tr rho_X at fixed radius ``ell``.

    One contraction, :func:`patch_rdm`. The reported ``bound`` is
    :func:`error_bound` of the supplied gap, kappa and c, and ``None``
    unless all three are given; they do not influence the value. Each
    one supplied is checked by :func:`error_bound`'s rules, given alone or
    not.
    """
    peps.lattice.require_engine_dimension()
    check_observable(peps, obs)
    _check_bound_inputs(gap, kappa_star, clustering_c)
    t0 = time.perf_counter()
    bound = None
    if None not in (gap, kappa_star, clustering_c):
        bound = error_bound(ell, peps.lattice.dimension, gap, kappa_star, obs.op_norm, clustering_c)
    rho, patch = patch_rdm(peps, obs.sites, ell, budget=budget)
    value, _ = expectation_from_rdm(rho, obs, "patch")
    return Estimate(
        value=value,
        radius_used=ell,
        bound=bound,
        patch_size=len(patch.sites),
        wall_time=time.perf_counter() - t0,
        mode="fixed_radius",
    )


def adaptive_estimate(
    peps: PepsState,
    obs: Observable,
    epsilon: float,
    gap: float | None = None,
    kappa_star: float | None = None,
    clustering_c: float | None = None,
    budget: int = DEFAULT_BUDGET,
) -> Estimate:
    """Grow the patch until the estimate ladder settles within epsilon/2.

    Stops when two consecutive ladder steps change by at most epsilon/2,
    when a step change hits machine level, or when the patch covers the
    whole lattice (the estimate is then exact). On budget exhaustion the
    raised error carries the partial ladder. ``bound`` is that of the last
    rung, as in :func:`patch_expectation`.
    """
    if not epsilon > 0:  # also refuses nan
        raise ArgumentError(f"epsilon must be positive, got {epsilon}")
    ladder = []
    prev_value = None
    prev_small = False
    ell = 0
    t0 = time.perf_counter()
    while True:
        try:
            est = patch_expectation(
                peps, obs, ell, gap=gap, kappa_star=kappa_star,
                clustering_c=clustering_c, budget=budget,
            )
        except SizeBudgetError as exc:
            exc.ladder = tuple(ladder)
            raise
        diff = None if prev_value is None else abs(est.value - prev_value)
        ladder.append({"ell": ell, "value": est.value, "diff": diff})
        covers = est.patch_size == peps.lattice.n_sites
        if diff is not None:
            small = diff <= epsilon / 2
            floor = diff <= LADDER_FLOOR * max(1.0, abs(est.value))
            if floor or (small and prev_small) or covers:
                break
            prev_small = small
        elif covers:
            break
        prev_value = est.value
        ell += 1
    return Estimate(
        value=est.value,
        radius_used=ell,
        bound=est.bound,
        patch_size=est.patch_size,
        wall_time=time.perf_counter() - t0,
        mode="adaptive",
        ladder=tuple(ladder),
    )
