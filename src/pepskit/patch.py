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

An adaptive run contracts one patch per rung, ell = 0, 1, 2, ... Rung ell+1
keeps every site of rung ell, and each site at distance below ell keeps
its pattern: its legs are all inside both patches, and so open in both.
The run keeps the fused nodes it has built, keyed by site and pattern, for
the length of the call, and passes them to ``peps._doubled_network``
through :func:`patch_rdm`; a rung builds only its new outer shell and the
sites of the last shell, whose closed legs are now open. Nothing is kept
on the state or across calls.

An :class:`Estimate` carries only what the contraction computes, and the
time of each stage. The paper's a-priori :func:`error_bound` reads l and
user-supplied constants, not the patch, so the CLI's ``estimate`` command
applies it.
"""

from __future__ import annotations

import math
import time
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from .errors import ArgumentError
from .lattice import LatticeSpec, Site, _legs, _neighbours
from .network import contract_network
from .observables import Observable, check_observable, expectation_from_rdm
from .peps import PepsState, _doubled_network, _hermitian_operator

__all__ = [
    "Patch",
    "Estimate",
    "select_patch",
    "patch_rdm",
    "patch_expectation",
    "check_bound_inputs",
    "error_bound",
    "adaptive_estimate",
]

# Machine-level ladder step below which adaptive mode stops immediately.
LADDER_FLOOR = 1e-14


@dataclass(frozen=True)
class Patch:
    """Closed graph-distance ball around the support, and the edges leaving it."""

    sites: tuple[Site, ...]
    crossing_edges: tuple


@dataclass(frozen=True)
class Estimate:
    """tr(O rho_X) / tr rho_X on a patch, exact when the patch is the whole lattice.

    ``ladder`` lists an adaptive run's rungs; the error bound is the caller's.
    ``stage_times`` holds the wall seconds of each stage, summed over an
    adaptive run's rungs: ``select`` (:func:`select_patch`), ``assemble``
    (the double-layer network, with the site arrays it reads first) and
    ``contract`` (the contraction and the map back to rho_X).
    """

    value: complex
    radius_used: int
    patch_size: int
    wall_time: float
    mode: str
    ladder: tuple | None = None
    stage_times: dict[str, float] = field(default_factory=dict)


def _distances(lattice: LatticeSpec, centers, radius: int) -> tuple[dict[Site, int], list[Site]]:
    """Graph distance from ``centers`` of each site within ``radius``, and the outermost sites.

    Every neighbour of a site closer than the outermost is within the ball.
    """
    dist = {tuple(s): 0 for s in centers}
    frontier = list(dist)
    for r in range(1, radius + 1):
        nxt = []
        for s in frontier:
            for nb in _neighbours(lattice.extents, s):
                if nb not in dist:
                    dist[nb] = r
                    nxt.append(nb)
        if not nxt:
            break
        frontier = nxt
    return dist, frontier


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
    dist, outermost = _distances(lattice, support, ell)
    crossing = {
        e for s in outermost for e in _legs(lattice.extents, s) if (e[0] in dist) != (e[1] in dist)
    }
    return Patch(sites=tuple(sorted(dist)), crossing_edges=tuple(sorted(crossing)))


def check_bound_inputs(gap: float | None, kappa_star: float | None, c: float | None):
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

    The ``estimate`` command reports min(bound, 2 |O|). The cap always
    holds: the estimate is tr(O rho) / tr rho with rho >= 0, so it lies in
    the numerical range of O, as does the exact value; each has modulus at
    most |O|, and they differ by at most 2 |O|.
    """
    check_bound_inputs(gap, kappa_star, c)
    poly = float(max(ell, 1)) ** (lattice_dim - 1)
    return poly * math.exp(-c * ell * gap) * kappa_star**2 * op_norm


def patch_rdm(
    peps: PepsState, support, ell: int, nodes: dict | None = None, stage_times: dict | None = None
) -> tuple[np.ndarray, Patch]:
    """The unnormalised reduced density matrix rho_X of ``support`` on its radius-``ell`` patch.

    One real contraction of the patch's double layer, in the Hermitian
    basis, with the support legs open; its coefficients are mapped back to
    rho_X, returned as a dim x dim matrix, row-major over ``support`` (ket
    rows, bra columns), Hermitised as (rho + rho^H) / 2, together with the
    :class:`Patch` it was contracted on. The pair weights are left out: they
    cancel in every ratio taken of rho_X. At ``ell`` = diameter the patch is
    the whole lattice in row-major order with nothing closed; the oracle's
    network path is that contraction. The contraction runs under the
    ``network`` module's limits and raises ``SizeBudgetError`` above them.

    ``nodes`` is passed to ``peps._doubled_network``: fused nodes built
    before, reused, and added to (module docstring). ``stage_times``, when
    given, is updated with the seconds of the ``select``, ``assemble`` and
    ``contract`` stages (:class:`Estimate`).
    """
    support = tuple(tuple(s) for s in support)
    t0 = time.perf_counter()
    patch = select_patch(peps.lattice, support, ell)
    t_select = time.perf_counter()
    tensors, labels = _doubled_network(
        peps, support, patch=patch.sites, closure=patch.crossing_edges, nodes=nodes
    )
    t_assemble = time.perf_counter()
    output = [("p", s) for s in support]
    coefficients = contract_network(tensors, labels, output=output)
    dim = math.prod(peps.tensors[s].shape[0] for s in support)
    rho = _hermitian_operator(coefficients).reshape(dim, dim)
    rho = (rho + rho.conj().T) / 2
    if stage_times is not None:
        stage_times.update(select=t_select - t0, assemble=t_assemble - t_select,
                           contract=time.perf_counter() - t_assemble)
    return rho, patch


def patch_expectation(peps: PepsState, obs: Observable, ell: int, nodes: dict | None = None) -> Estimate:
    """Patch estimate <O_X> = tr(O rho_X) / tr rho_X at fixed radius ``ell``.

    One contraction, :func:`patch_rdm`, which is given ``nodes``.
    """
    check_observable(peps, obs)
    t0 = time.perf_counter()
    stage_times: dict[str, float] = {}
    rho, patch = patch_rdm(peps, obs.sites, ell, nodes=nodes, stage_times=stage_times)
    value, _ = expectation_from_rdm(rho, obs, "patch")
    return Estimate(
        value=value,
        radius_used=ell,
        patch_size=len(patch.sites),
        wall_time=time.perf_counter() - t0,
        mode="fixed_radius",
        stage_times=stage_times,
    )


def adaptive_estimate(peps: PepsState, obs: Observable, epsilon: float) -> Estimate:
    """Grow the patch until the estimate ladder settles within epsilon/2.

    Stops when two consecutive ladder steps change by at most epsilon/2,
    when a step change hits machine level, or when the patch covers the
    whole lattice (the estimate is then exact). The rungs share the fused
    nodes built so far (module docstring).
    """
    if not 0 < epsilon < math.inf:  # also refuses nan
        raise ArgumentError(f"epsilon must be finite and positive, got {epsilon}")
    ladder = []
    prev_value = None
    prev_small = False
    ell = 0
    nodes: dict = {}
    stage_times = Counter()
    t0 = time.perf_counter()
    while True:
        est = patch_expectation(peps, obs, ell, nodes=nodes)
        stage_times.update(est.stage_times)
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
        patch_size=est.patch_size,
        wall_time=time.perf_counter() - t0,
        mode="adaptive",
        ladder=tuple(ladder),
        stage_times=dict(stage_times),
    )
