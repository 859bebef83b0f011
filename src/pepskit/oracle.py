"""Ground-truth expectation values by exact (exponential-cost) contraction.

Every approximation claim in the package is gated against this module at
desk scale. It shares with the estimator only ``contract_network`` and
the read of a value off a reduced density matrix: it reduces rho_X, the
unnormalised reduced density matrix of the support X, from the complex
ket amplitudes of the state, where the estimator contracts the real
double layer (``patch``).

rho_X is reduced across a cut, not from the d^N amplitudes of the whole
state. A PEPS obeys an area law by construction: across a cut its
Schmidt rank is at most D^|cut|. ``_cut`` splits the lattice across its
longest axis at the midpoint, and each half's single layer, contracted
with its internal pairs and the cut bonds open, is an array of complex
ket amplitudes with its support legs, the cut and the rest as axes, about
d^(N/2) D^|cut| entries (``_state_halves``): the oracle's cost. One
contraction of the two halves and their conjugates gives rho_X; the
cut's pair weights divide it, and it is Hermitised (``_halves_rdm``).

There is no size cutoff of its own. Each half is a ``network``
contraction, refused at plan time like any other, within
``network.WORK_BUDGET`` multiply-adds: the largest half allowed is
``network.DEFAULT_BUDGET`` complex entries (1 GiB), plus its fused copy
while the copy is made, next to the other half's fused array. A refused
half raises its ``SizeBudgetError`` as it is. For a state whose halves
are refused but whose double layer fits, the estimator at covering
radius, ``estimate --ell <diameter>``, contracts the whole lattice.

The value is read with ``observables.expectation_from_rdm``:
tr(O rho_X) / tr rho_X and the norm tr rho_X = <w|w>. A non-finite norm
or value raises ``NumericalError``, as does a Hermitian observable's
value with an imaginary part above rounding. ``OracleResult.stage_times``
gives the wall time of each stage.

The module is numpy-only: it does not load scipy.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from .errors import ArgumentError, NumericalError
from .lattice import Edge, LatticeSpec, Site
from .network import contract_network
from .observables import Observable, check_observable, expectation_from_rdm, kron_observable
# Not called here; kept as the binding the benchmark tracer wraps as oracle.assemble.
from .peps import _doubled_network  # noqa: F401
from .peps import PepsState, _single_layer

__all__ = ["OracleResult", "exact_expectation", "exact_correlation"]

# |Im <O>| of a Hermitian O relative to |<O>|, above rounding of tr(O rho) / tr rho.
HERMITIAN_IMAG_RTOL = 1e-10
# Absolute term of the same check, for values near 0.
HERMITIAN_IMAG_ATOL = 1e-12


@dataclass(frozen=True)
class OracleResult:
    """An oracle value and how it was produced.

    ``norm_sq`` is <w|w>, the trace of the unnormalised rho_X.
    ``stage_times`` holds the wall seconds of each stage: ``state_vector``
    (the two halves' single layers, ``_state_halves``) and ``rdm`` (their
    reduction to rho_X, ``_halves_rdm``, and the value read from it).
    """

    value: complex
    norm_sq: float
    sites_used: int
    wall_time: float
    stage_times: dict[str, float]


def _cut(lattice: LatticeSpec) -> tuple[list[list[Site]], list[Edge]]:
    """The halves of the lattice on either side of its cut, and the cut's edges, sorted.

    The cut crosses the first longest axis at its midpoint: a chain of N
    sites splits at N // 2, a 5x4 grid after its second row. A lattice of
    one site is one half with no cut. Each half lists its sites in
    row-major order.
    """
    axis = max(range(lattice.dimension), key=lambda a: lattice.extents[a])
    mid = lattice.extents[axis] // 2
    if mid == 0:
        return [lattice.sites()], []
    lower = [s for s in lattice.sites() if s[axis] < mid]
    upper = [s for s in lattice.sites() if s[axis] >= mid]
    return [lower, upper], [e for e in lattice.edges() if e[0][axis] < mid <= e[1][axis]]


def _state_halves(peps: PepsState, support) -> list[tuple[list[Site], np.ndarray]]:
    """Each half of ``_cut``: its sites of ``support`` and its single layer, fused.

    The array's axes are the physical legs of the half's sites of
    ``support``, in that order, then the cut edges in sorted order, fused
    to one axis, then the half's other sites in memory order, which the
    sum over them does not see, fused to one axis. The amplitudes are
    complex, with the half's internal pair weights and without the cut's.
    The fusion copies them once, in one pass, instead of leaving
    ``contract_network`` a view of one 2-extent axis per site. A half
    over the ``network`` limits is refused at plan time.
    """
    halves, cut = _cut(peps.lattice)
    fused = []
    for half in halves:
        amplitudes = _single_layer(peps, half)
        # _single_layer's crossing legs, in site then per-site leg order.
        crossing = [e for s in half for e in peps.lattice.virtual_legs(s) if e in cut]
        kept = [s for s in support if s in half]
        at = [half.index(s) for s in kept]
        # The rest in memory order, so the copy runs over few, long strides.
        rest = sorted(set(range(len(half))) - set(at), key=lambda k: -amplitudes.strides[k])
        order = at + [len(half) + crossing.index(e) for e in cut] + rest
        shape = [amplitudes.shape[k] for k in at] + [peps.edge_volume(cut), -1]
        fused.append((kept, amplitudes.transpose(order).reshape(shape)))
    return fused


def _halves_rdm(support, halves) -> np.ndarray:
    """rho_X of ``support`` from the state's halves, Hermitised.

    ``support`` is in ``obs.sites`` order, so rho_X is row-major over it,
    like ``obs.matrix``. Each half's array and its conjugate are the four
    nodes of one contraction: a half's ket and bra share its rest label,
    the two kets share the cut label, as do the two bras. The planner
    orders the steps by size. On a thin cut, D^(2|cut|) well below d^N, it
    contracts each half with its conjugate over the rest, then the two
    over the cut, so no array of the whole state's d^N entries is formed.
    Where D^(2|cut|) reaches d^N, as on a 3x3 D=3 or 4x4 D=4 state,
    joining the two kets, the whole state, is the smaller step, and the
    planner takes it. The cut's pairs weigh 1 / edge_volume(cut), the
    extent of the cut axis, applied to the result.
    """
    tensors, labels = [], []
    # A lattice of one site has no cut: its extent-1 cut axis is summed between ket and bra.
    ket_cut, bra_cut = ("c", "c*") if len(halves) == 2 else ("c", "c")
    for h, (kept, a) in enumerate(halves):
        tensors += [a, a.conj()]
        labels += [[("k", s) for s in kept] + [ket_cut, ("r", h)],
                   [("b", s) for s in kept] + [bra_cut, ("r", h)]]
    output = [("k", s) for s in support] + [("b", s) for s in support]
    rho = contract_network(tensors, labels, output=output)
    dim = math.isqrt(rho.size)
    rho = rho.reshape(dim, dim) / halves[0][1].shape[-2]
    return (rho + rho.conj().T) / 2


def exact_expectation(peps: PepsState, obs: Observable) -> OracleResult:
    """Exact normalised expectation value <w|O_X|w> / <w|w>, from the two halves of ``_cut``.

    A half over the ``network`` limits raises ``SizeBudgetError``.
    """
    check_observable(peps, obs)
    t0 = time.perf_counter()
    halves = _state_halves(peps, obs.sites)
    t_rdm = time.perf_counter()
    value, norm = expectation_from_rdm(_halves_rdm(obs.sites, halves), obs, "state")
    if obs.hermitian and abs(value.imag) > HERMITIAN_IMAG_RTOL * abs(value) + HERMITIAN_IMAG_ATOL:
        raise NumericalError(f"Hermitian observable produced complex value {value}")
    t_end = time.perf_counter()
    return OracleResult(
        value=value,
        norm_sq=norm.real,
        sites_used=peps.lattice.n_sites,
        wall_time=t_end - t0,
        stage_times={"state_vector": t_rdm - t0, "rdm": t_end - t_rdm},
    )


def exact_correlation(peps: PepsState, oa: Observable, ob: Observable) -> tuple[complex, complex]:
    """Joint and connected two-point functions of single-site observables."""
    if len(oa.sites) != 1 or len(ob.sites) != 1:
        raise ArgumentError("exact_correlation takes single-site observables")
    if set(oa.sites) & set(ob.sites):
        raise ArgumentError(f"supports overlap at {oa.sites}")
    joint = exact_expectation(peps, kron_observable(oa, ob)).value
    ea = exact_expectation(peps, oa).value
    eb = exact_expectation(peps, ob).value
    return joint, joint - ea * eb
