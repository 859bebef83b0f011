"""Ground-truth expectation values by full (exponential-cost) contraction.

Every approximation claim in the package is gated against this module at
desk scale. Two independent paths are used where feasible: the ket
amplitudes of the state (the state-vector path, up to
``peps.STATE_VECTOR_CUTOFF`` amplitudes, read at each call) and the full
double-layer network; when both run they are cross-checked against each
other, and ``OracleResult.paths`` names the paths that ran.

Both paths end in the unnormalised reduced density matrix rho_X of the
support X:

- the state-vector path reduces rho_X across a cut, not from the d^N
  amplitudes of the whole state. A PEPS obeys an area law by
  construction: across a cut its Schmidt rank is at most D^|cut|.
  ``_cut`` splits the lattice across its longest axis at the midpoint,
  and each half's single layer, contracted with its internal pairs and
  the cut bonds open, is an array of complex ket amplitudes with its
  support legs, the cut and the rest as axes, about d^(N/2) D^|cut|
  entries (``_state_halves``): the path's cost. One contraction of the
  two halves and their conjugates gives rho_X; the cut's pair weights
  divide it, and it is Hermitised (``_halves_rdm``). The halves are
  released before the network path runs, so the oracle's peak memory is
  the larger path's, not their sum;
- the network path is the patch estimator's own contraction at covering
  radius: ``patch.patch_rdm`` at l = diameter, whose patch is the whole
  lattice in row-major order with no crossing edges, contracts the double
  layer once with the support legs open and Hermitises it. That double
  layer is real, written in the Hermitian basis of every doubled bond
  (see ``peps``), so the cross-check compares complex ket amplitudes
  against a real network: two different arithmetics, not one run twice.

Both read rho_X with ``observables.expectation_from_rdm``: the value is
tr(O rho_X) / tr rho_X and the raw norm tr rho_X. A non-finite norm or
value on either path raises ``NumericalError``. ``OracleResult.stage_times``
gives the wall time of each stage.

The module is numpy-only: neither path loads scipy.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import ArgumentError, NumericalError, SizeBudgetError
from .lattice import Edge, LatticeSpec, Site
from .network import contract_network
from .observables import Observable, check_observable, expectation_from_rdm, kron_observable
from .patch import patch_rdm
# Not called here; kept as the binding the benchmark tracer wraps as oracle.assemble.
from .peps import _doubled_network  # noqa: F401
from .peps import PepsState, _check_state_vector_size, _single_layer

__all__ = ["OracleResult", "exact_expectation", "exact_correlation"]

# |state-vector value - network value| relative to the larger: each path rounds at ~1e-15.
CROSS_CHECK_RTOL = 1e-10
# Absolute term of the same cross-check, for values near 0: ~50 ulps of 1.
CROSS_CHECK_ATOL = 1e-14
# |Im <O>| of a Hermitian O relative to |<O>|, above rounding of tr(O rho) / tr rho.
HERMITIAN_IMAG_RTOL = 1e-10
# Absolute term of the same check, for values near 0.
HERMITIAN_IMAG_ATOL = 1e-12


@dataclass(frozen=True)
class OracleResult:
    """An oracle value and how it was produced.

    ``paths`` names the paths that ran, ``("state_vector", "network")``
    when both ran and were cross-checked, else the one that ran.
    ``norm_sq`` is <w|w> from the state-vector path when it ran.
    ``stage_times`` holds the wall seconds of each stage: ``state_vector``
    (the two halves' single layers, ``_state_halves``), ``rdm`` (their
    reduction to rho_X, ``_halves_rdm``, and the value read from it) and
    ``network`` (the whole double-layer path). A refused stage counts the
    time it took to refuse; a skipped one reads about 0.
    """

    value: complex
    norm_sq: float
    sites_used: int
    wall_time: float
    paths: tuple[str, ...]
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
    ``contract_network`` a view of one 2-extent axis per site. A state of
    more than ``peps.STATE_VECTOR_CUTOFF`` amplitudes is refused before
    any contraction, as ``build_state_vector`` refuses it.
    """
    _check_state_vector_size(peps)
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
    """Exact normalised expectation value <w|O_X|w> / <w|w>.

    Runs the state-vector path up to ``peps.STATE_VECTOR_CUTOFF`` amplitudes
    and the double-layer network path within the ``network`` limits; if
    both run their values must agree to ``CROSS_CHECK_RTOL`` relative plus
    ``CROSS_CHECK_ATOL``. If both are refused, the ``SizeBudgetError``
    gives both reasons and the state vector's ``predicted_size``.
    """
    check_observable(peps, obs)
    t0 = time.perf_counter()

    halves = sv_value = sv_norm = None
    sv_error: SizeBudgetError | None = None
    try:
        halves = _state_halves(peps, obs.sites)
        t_rdm = time.perf_counter()
        sv_value, sv_norm = expectation_from_rdm(_halves_rdm(obs.sites, halves), obs, "state")
    except SizeBudgetError as exc:
        sv_error = exc
    if halves is None:
        t_rdm = time.perf_counter()
    del halves  # freed before the network path: the peak is the larger path's, not their sum

    net_value = net_norm = None
    net_error: SizeBudgetError | None = None
    t_net = time.perf_counter()
    try:
        rho, _ = patch_rdm(peps, obs.sites, peps.lattice.diameter)
        net_value, den_raw = expectation_from_rdm(rho, obs, "double-layer")
        # Exact rational division: a pair volume beyond the float range
        # (a chain of over 1,024 D=2 bonds) underflows the norm to 0.
        net_norm = float(Fraction(den_raw.real) / peps.edge_volume(peps.lattice.edges()))
    except SizeBudgetError as exc:
        net_error = exc
    t_end = time.perf_counter()
    stage_times = {"state_vector": t_rdm - t0, "rdm": t_net - t_rdm, "network": t_end - t_net}

    if sv_value is None and net_value is None:
        raise SizeBudgetError(f"both oracle paths refused: state vector: {sv_error}; network: {net_error}",
                              predicted_size=sv_error.predicted_size)

    if sv_value is not None and net_value is not None:
        scale = max(abs(sv_value), abs(net_value))
        if not abs(sv_value - net_value) <= CROSS_CHECK_RTOL * scale + CROSS_CHECK_ATOL:
            raise NumericalError(
                f"oracle paths disagree: state-vector {sv_value} vs network {net_value}"
            )

    value = sv_value if sv_value is not None else net_value
    norm_sq = sv_norm.real if sv_norm is not None else net_norm
    if obs.hermitian and abs(value.imag) > HERMITIAN_IMAG_RTOL * abs(value) + HERMITIAN_IMAG_ATOL:
        raise NumericalError(f"Hermitian observable produced complex value {value}")
    ran = (("state_vector", sv_value), ("network", net_value))
    return OracleResult(
        value=value,
        norm_sq=norm_sq,
        sites_used=peps.lattice.n_sites,
        wall_time=time.perf_counter() - t0,
        paths=tuple(name for name, v in ran if v is not None),
        stage_times=stage_times,
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
