"""Ground-truth expectation values by full (exponential-cost) contraction.

Every approximation claim in the package is gated against this module at
desk scale. Two independent paths are used where feasible: the explicit
state vector and the full double-layer network; when both run they are
cross-checked against each other, and ``OracleResult.paths`` names the
paths that ran.

Both paths end in the unnormalised reduced density matrix rho_X of the
support X:

- the state-vector path contracts the single layer over the whole lattice
  (``build_state_vector``) and reduces |w> one block at a time: a block
  holds at most ``RDM_BLOCK_ENTRIES`` entries, or ``RDM_MIN_COLUMNS``
  columns for a support above dim 4, so only a state of one block is ever
  copied whole. The support axes move to the front in ``obs.sites``
  order, the rest follow in memory order, and each block, a (dim_X,
  columns) matrix psi_b, adds psi_b psi_b^dagger to rho_X, Hermitian by
  construction (``state_rdm``).
  The state is released before the network path runs, so the oracle's
  peak memory is the larger path's, not their sum;
- the network path is the patch estimator's own contraction at covering
  radius: ``patch.patch_rdm`` at l = diameter, whose patch is the whole
  lattice in row-major order with no crossing edges, contracts the double
  layer once with the support legs open and Hermitises it. That double
  layer is real, written in the Hermitian basis of every doubled bond
  (see ``peps``), so the cross-check compares the complex state vector
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
from .observables import Observable, check_observable, expectation_from_rdm, kron_observable
from .patch import patch_rdm
# Not called here; kept as the binding the benchmark tracer wraps as oracle.assemble.
from .peps import _doubled_network  # noqa: F401
from .peps import PepsState, build_state_vector

__all__ = ["OracleResult", "exact_expectation", "exact_correlation"]

# |state-vector value - network value| relative to the larger: each path rounds at ~1e-15.
CROSS_CHECK_RTOL = 1e-10
# Absolute term of the same cross-check, for values near 0: ~50 ulps of 1.
CROSS_CHECK_ATOL = 1e-14
# |Im <O>| of a Hermitian O relative to |<O>|, above rounding of tr(O rho) / tr rho.
HERMITIAN_IMAG_RTOL = 1e-10
# Absolute term of the same check, for values near 0.
HERMITIAN_IMAG_ATOL = 1e-12
# Entries (support dimension included) of the state copied at a time by state_rdm:
# 1 MiB of complex128, half of a 2 MiB L2 cache per core. On a 5x4 d=2 state, warm,
# 2**15 reduced 3-12% faster (no faster per oracle query) and 2**14 and 2**17
# slower; 2**15 would also split a 4x4 d=2 state, one (dim_X, rest) matrix here.
RDM_BLOCK_ENTRIES = 2**16
# Fewest rest columns in a block, so a block of a large support is larger: each
# np.vdot costs about 1 us to call, which at 2**14 complex entries is under a tenth
# of its arithmetic. Without it, warm, 4-site supports of dim 16, 81 and 256 reduced
# 1.9x, 2.0x and 4.7x slower than one copy of the state; with it, within 8%.
# Supports of dim up to 4 (every d=2 site and pair) keep blocks of RDM_BLOCK_ENTRIES.
RDM_MIN_COLUMNS = 2**14


@dataclass(frozen=True)
class OracleResult:
    """An oracle value and how it was produced.

    ``paths`` names the paths that ran, ``("state_vector", "network")``
    when both ran and were cross-checked, else the one that ran.
    ``norm_sq`` is <w|w> from the state-vector path when it ran.
    ``stage_times`` holds the wall seconds of each stage: ``state_vector``
    (``build_state_vector``), ``rdm`` (``state_rdm`` and the value read
    from it) and ``network`` (the whole double-layer path). A refused
    stage counts the time it took to refuse; a skipped one reads about 0.
    """

    value: complex
    norm_sq: float
    sites_used: int
    wall_time: float
    paths: tuple[str, ...]
    stage_times: dict[str, float]


def state_rdm(state: np.ndarray, axes: list[int], obs: Observable) -> np.ndarray:
    """Reduced density matrix rho_X = psi_X psi_X^dagger of a state tensor.

    ``axes`` are the support axes of ``state`` in ``obs.sites`` order, so
    rho_X is row-major over them, like ``obs.matrix``. The remaining axes
    are summed; they are taken in memory order, and the loop runs over the
    slowest of them, so each block of at most ``RDM_BLOCK_ENTRIES`` entries
    (``obs.dim * RDM_MIN_COLUMNS`` if that is more) reads ``state``
    (contiguous or not) nearly in sequence into a C-ordered (dim_X, columns)
    matrix; one block is held at a time. Each entry on and above the
    diagonal is a sum over blocks of one ``np.vdot`` of two rows, which
    conjugates without copying. The lower triangle is the conjugate of the
    upper and the diagonal is real, so the result is exactly Hermitian. A
    state of at most one block is one (dim_X, rest) matrix, reduced as a
    whole.
    """
    dims = [state.shape[ax] for ax in axes]
    if obs.dim != math.prod(dims):
        raise ArgumentError(f"observable dimension {obs.dim} does not match support dims {dims}")
    rest = sorted(set(range(state.ndim)) - set(axes), key=lambda ax: -state.strides[ax])
    # A leading unit axis, so there is always a rest axis to split into blocks.
    psi = np.expand_dims(np.transpose(state, list(axes) + rest), len(axes))
    shape = psi.shape[len(axes):]
    # Whole rest axes, fastest first, while a block holds them; the next one
    # is split into runs of ``step`` indices, and the slower ones are looped over.
    entries = max(RDM_BLOCK_ENTRIES, obs.dim * RDM_MIN_COLUMNS)
    k, inner = len(shape), obs.dim
    while k > 1 and inner * shape[k - 1] <= entries:
        k -= 1
        inner *= shape[k]
    step = entries // inner  # at least 1: inner never exceeds entries
    upper = np.zeros((obs.dim, obs.dim), dtype=np.complex128)
    diag = np.zeros(obs.dim)
    pairs = list(zip(*np.triu_indices(obs.dim, 1)))
    support = (slice(None),) * len(axes)
    for outer in np.ndindex(*shape[: k - 1]):
        for start in range(0, shape[k - 1], step):
            block = psi[support + outer + (slice(start, start + step),)].reshape(obs.dim, -1)
            for i, j in pairs:
                upper[i, j] += np.vdot(block[j], block[i])
            diag += [np.vdot(row, row).real for row in block]
            del block  # so the next block's copy is not made while this one is held
    return upper + upper.conj().T + np.diag(diag)


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

    state = sv_value = sv_norm = None
    sv_error: SizeBudgetError | None = None
    try:
        state = build_state_vector(peps)
    except SizeBudgetError as exc:
        sv_error = exc
    t_rdm = time.perf_counter()
    if state is not None:
        axes = [peps.lattice.site_index(s) for s in obs.sites]
        sv_value, sv_norm = expectation_from_rdm(state_rdm(state, axes, obs), obs, "state")
    del state  # freed before the network path: the peak is the larger path's, not their sum

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
