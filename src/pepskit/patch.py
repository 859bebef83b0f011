"""Local expectation values from a graph-distance patch around the observable.

The estimator contracts only the double-layer network of the radius-l
neighbourhood of the support, closing each edge that leaves the patch by
tracing its dangling pair half (ket leg against bra leg). The uniform pair
weights cancel between numerator and denominator, so the estimate is a pure
ratio of two patch contractions whose cost is independent of the lattice
size. The sampler builds the same network with the support's ket and bra
legs left open, which gives the patch's reduced density matrix rho_X, and
draws eigenvalue outcomes from it.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from .errors import ArgumentError, SizeBudgetError
from .lattice import LatticeSpec, Site
from .network import DEFAULT_BUDGET, contract_network
from .observables import Observable
from .oracle import _doubled_network, check_observable
from .peps import PepsState

__all__ = [
    "Patch",
    "Estimate",
    "select_patch",
    "patch_expectation",
    "choose_radius",
    "error_bound",
    "adaptive_estimate",
    "sampling_estimate",
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
    bound: float
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


def error_bound(
    ell: int, lattice_dim: int, gap: float, kappa_star: float, op_norm: float, c: float
) -> float:
    """Theoretical error bound l^(d-1) * exp(-c*l*gap) * kappa^2 * |O|."""
    if gap <= 0 or c <= 0:
        raise ArgumentError("gap and clustering constant must be positive")
    poly = 1.0 if ell == 0 and lattice_dim == 1 else float(ell) ** (lattice_dim - 1)
    return poly * math.exp(-c * ell * gap) * kappa_star**2 * op_norm


def choose_radius(
    epsilon: float,
    kappa_star: float,
    gap: float,
    op_norm: float,
    c: float,
    lattice_dim: int,
    max_ell: int | None = None,
) -> int:
    """Smallest l >= 1 whose error bound is at most epsilon, capped at max_ell."""
    if epsilon <= 0 or gap <= 0:
        raise ArgumentError("epsilon and gap must be positive")
    if kappa_star < 1:
        raise ArgumentError(f"kappa_star must be >= 1, got {kappa_star}")
    if op_norm <= 0 or c <= 0:
        raise ArgumentError("op_norm and c must be positive")
    ell = 1
    while error_bound(ell, lattice_dim, gap, kappa_star, op_norm, c) > epsilon:
        if max_ell is not None and ell >= max_ell:
            return max_ell
        ell += 1
    return ell


def patch_expectation(
    peps: PepsState,
    obs: Observable,
    ell: int,
    gap: float = 1.0,
    kappa_star: float = 1.0,
    clustering_c: float = 1.0,
    budget: int = DEFAULT_BUDGET,
) -> Estimate:
    """Patch estimate of <O_X> at fixed radius ``ell``.

    The reported ``bound`` uses the supplied gap/kappa/c parameters; they do
    not influence the value. An exactly-identity observable short-circuits
    to 1 since numerator and denominator would be the same contraction.
    """
    peps.lattice.require_engine_dimension()
    check_observable(peps, obs)
    t0 = time.perf_counter()
    patch = select_patch(peps.lattice, obs.sites, ell)
    closure = patch.crossing_edges
    den_t, den_l = _doubled_network(peps, None, patch=patch.sites, closure=closure)
    den = complex(contract_network(den_t, den_l, budget=budget))
    if den == 0:
        raise ArgumentError("patch has zero norm")
    if obs.is_identity():
        value = complex(1.0)
    else:
        num_t, num_l = _doubled_network(peps, obs, patch=patch.sites, closure=closure)
        num = complex(contract_network(num_t, num_l, budget=budget))
        value = num / den
    bound = error_bound(ell, peps.lattice.dimension, gap, kappa_star, obs.op_norm, clustering_c)
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
    gap: float = 1.0,
    kappa_star: float = 1.0,
    clustering_c: float = 1.0,
    budget: int = DEFAULT_BUDGET,
) -> Estimate:
    """Grow the patch until the estimate ladder settles within epsilon/2.

    Stops when two consecutive ladder steps change by at most epsilon/2,
    when a step change hits machine level, or when the patch covers the
    whole lattice (the estimate is then exact). On budget exhaustion the
    raised error carries the partial ladder.
    """
    if epsilon <= 0:
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


def hoeffding_samples(epsilon: float, delta: float, value_range: float) -> int:
    """Sample count from the Hoeffding bound for a mean within epsilon."""
    if not 0 < epsilon < 1 or not 0 < delta < 1:
        raise ArgumentError("epsilon and delta must lie in (0, 1)")
    if value_range == 0:
        return 1
    return max(1, math.ceil(math.log(2.0 / delta) * value_range**2 / (2.0 * epsilon**2)))


def _outcome_distribution(
    peps: PepsState, obs: Observable, ell: int, budget: int = DEFAULT_BUDGET
) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues of ``obs`` and their Born probabilities on the patch.

    Contracts the patch's double layer with the support legs open to get
    rho_X, then p_k = <v_k|rho_X|v_k> / tr rho_X over the eigenvectors v_k.
    """
    patch = select_patch(peps.lattice, obs.sites, ell)
    tensors, labels = _doubled_network(
        peps, obs, patch=patch.sites, closure=patch.crossing_edges, open_support=True
    )
    output = [("kp", s) for s in obs.sites] + [("bp", s) for s in obs.sites]
    rho = contract_network(tensors, labels, output=output, budget=budget)
    rho = rho.reshape(obs.dim, obs.dim)
    evals, evecs = np.linalg.eigh(obs.matrix)
    weights = np.einsum("ik,ij,jk->k", evecs.conj(), rho, evecs).real
    probs = np.clip(weights, 0.0, None)
    total = probs.sum()
    if total == 0:
        raise ArgumentError("patch has zero norm")
    return evals, probs / total


def sampling_estimate(
    peps: PepsState,
    obs: Observable,
    ell: int,
    epsilon: float,
    delta: float,
    seed: int,
    budget: int = DEFAULT_BUDGET,
) -> tuple[float, int]:
    """Monte Carlo mean of eigenvalue outcomes measured on the patch.

    Simulates the measure-and-average protocol classically: draws the
    Hoeffding-mandated number of outcomes from the exact eigenprojector
    distribution of ``obs`` in the patch's reduced density matrix rho_X and
    returns the sample mean with the sample count.
    """
    if not obs.hermitian:
        raise ArgumentError("sampling requires a Hermitian observable")
    check_observable(peps, obs)
    evals, probs = _outcome_distribution(peps, obs, ell, budget=budget)
    n = hoeffding_samples(epsilon, delta, float(evals[-1] - evals[0]))
    rng = np.random.default_rng(seed)
    outcomes = rng.choice(len(evals), size=n, p=probs)
    return float(np.mean(evals[outcomes])), n
