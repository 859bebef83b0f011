"""PEPS state representation, the network layers over it, injectivity, blocking.

A PEPS assigns one tensor per lattice site, axis 0 physical and the
remaining axes following the lattice leg-order convention. Edges carry
maximally entangled pairs ``D**-0.5 * sum_i |i,i>``; every pair weight is
read from :meth:`PepsState.edge_volume`, so every physically meaningful
quantity downstream is a ratio.

This module builds both networks the package contracts over a region with
its entangled pairs closed:

- the single layer |w>, :func:`_single_layer`, contracted here with its
  internal pair weights; :func:`build_state_vector` takes it over the whole
  lattice and :func:`block` over a small region;
- the double layer, :func:`_doubled_network`, returned uncontracted with
  one fused node per site: ket (x) conj(ket), its physical leg summed
  unless the site is in the support X, whose open legs make the network the
  unnormalised reduced density matrix rho_X. ``patch.patch_rdm`` takes
  rho_X over a patch for the estimator, and over the whole lattice
  (covering radius) for the oracle; the strip transfer operator takes the
  norm network over one column.

Every injectivity question goes through :func:`site_map_svd`, the thin SVD
of a (blocked) site map, and is decided by the one tolerance
``INJECTIVITY_RTOL``: :func:`injectivity_check` (and so :func:`kappa_star`)
and the parent-Hamiltonian window terms both use it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ArgumentError, ModelError, NotInjectiveError, NumericalError, SizeBudgetError
from .lattice import Edge, LatticeSpec, Site, canonical_edge
from .network import as_tensor, contract_network

__all__ = [
    "SiteTensor",
    "BlockedTensor",
    "PepsState",
    "InjectivityReport",
    "build_state_vector",
    "site_map_svd",
    "injectivity_check",
    "block",
    "kappa_star",
]

# The one injectivity tolerance. A site map is injective when its smallest
# singular value on the virtual space exceeds INJECTIVITY_RTOL times its
# largest (and the largest is nonzero); a physical dimension below the
# virtual one leaves zero singular values, so such a map never is.
INJECTIVITY_RTOL = 1e-8
# Default cap on state-vector amplitudes, d^N <= STATE_VECTOR_CUTOFF.
STATE_VECTOR_CUTOFF = 2**20
# Largest region size accepted by block().
MAX_BLOCK_SIZE = 4


@dataclass(frozen=True)
class SiteTensor:
    """One PEPS tensor: axis 0 physical, then virtual legs in lattice leg order."""

    site: Site
    tensor: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "site", tuple(self.site))
        object.__setattr__(self, "tensor", as_tensor(self.tensor))

    @property
    def phys_dim(self) -> int:
        return self.tensor.shape[0]

    @property
    def bond_dims(self) -> tuple[int, ...]:
        return self.tensor.shape[1:]


@dataclass(frozen=True)
class BlockedTensor:
    """A contiguous region merged into one effective site.

    ``tensor`` has axis 0 the merged physical leg (region sites in row-major
    order) and one axis per outward-crossing edge, ordered by site
    (row-major) then per-site leg order. ``crossing`` records which original
    edge each virtual axis belongs to.
    """

    sites: tuple[Site, ...]
    tensor: np.ndarray
    crossing: tuple[Edge, ...]

    @property
    def phys_dim(self) -> int:
        return self.tensor.shape[0]

    @property
    def bond_dims(self) -> tuple[int, ...]:
        return self.tensor.shape[1:]


@dataclass(frozen=True)
class InjectivityReport:
    site: Site | tuple[Site, ...]
    injective: bool
    sigma_min: float
    kappa: float | None = None


@dataclass(frozen=True)
class PepsState:
    """Lattice geometry plus one SiteTensor per site.

    Immutable after construction; construction validates leg counts and
    matching bond dimensions on shared edges.
    """

    lattice: LatticeSpec
    tensors: dict[Site, SiteTensor] = field(repr=False)

    def __post_init__(self):
        sites = self.lattice.sites()
        if set(self.tensors) != set(sites):
            missing = set(sites) - set(self.tensors)
            extra = set(self.tensors) - set(sites)
            raise ModelError(f"tensor/site mismatch: missing {missing}, extra {extra}")
        for s in sites:
            t = self.tensors[s]
            legs = self.lattice.virtual_legs(s)
            if t.tensor.ndim != 1 + len(legs):
                raise ModelError(
                    f"site {s}: expected {1 + len(legs)} legs, tensor has {t.tensor.ndim}"
                )
        for u, v in self.lattice.edges():
            du = self._edge_extent(u, (u, v))
            dv = self._edge_extent(v, (u, v))
            if du != dv:
                raise ModelError(f"edge {(u, v)}: bond dims differ, {du} vs {dv}")

    def _edge_extent(self, site: Site, edge: Edge) -> int:
        legs = self.lattice.virtual_legs(site)
        ax = 1 + legs.index(canonical_edge(*edge))
        return self.tensors[site].tensor.shape[ax]

    def edge_volume(self, edges) -> int:
        """Product of the bond extents of ``edges``, an exact integer.

        The pairs on these edges carry the joint weight ``volume**-0.5`` in
        the single layer and ``1/volume`` in the double layer.
        """
        return math.prod(self._edge_extent(e[0], e) for e in edges)

    @property
    def phys_dims(self) -> dict[Site, int]:
        return {s: t.phys_dim for s, t in self.tensors.items()}

    @property
    def bond_dim(self) -> int:
        """Largest virtual extent; 1 on a lattice without edges."""
        return max((d for t in self.tensors.values() for d in t.bond_dims), default=1)

    def total_phys_dim(self) -> int:
        n = 1
        for t in self.tensors.values():
            n *= t.phys_dim
        return n


def _single_layer(peps: PepsState, region) -> tuple[np.ndarray, tuple[Edge, ...]]:
    """Contract |w> over ``region`` with its internal pairs applied.

    Returns the contracted layer and its crossing edges. Its axes are the
    physical legs in region order, then one leg per crossing edge in site
    then per-site leg order; ``crossing`` lists those edges in that order.
    The joint pair weight ``edge_volume(internal)**-0.5`` scales the
    smallest input tensor before the contraction, not its result, which
    over a whole lattice is the full state vector.
    """
    inside = set(region)
    tensors, labels, internal, crossing = [], [], [], []
    for s in region:
        legs = peps.lattice.virtual_legs(s)
        tensors.append(peps.tensors[s].tensor)
        labels.append([("p", s)] + [("e", e) for e in legs])
        for e in legs:
            other = e[0] if e[1] == s else e[1]
            if other not in inside:
                crossing.append(e)
            elif s == e[0]:  # each internal edge once, at its first endpoint
                internal.append(e)
    smallest = min(range(len(tensors)), key=lambda k: tensors[k].size)
    tensors[smallest] = tensors[smallest] * peps.edge_volume(internal) ** -0.5
    output = [("p", s) for s in region] + [("e", e) for e in crossing]
    out = contract_network(tensors, labels, output=output, budget=None)
    return out, tuple(crossing)


def _doubled_network(peps: PepsState, support, patch, closure):
    """Assemble the double-layer network, one fused node per site.

    Each site's node is ket (x) conj(ket): a site outside ``support`` sums
    its physical leg inside the node, a support site keeps its ket leg
    ``("kp", s)`` and bra leg ``("bp", s)`` open, so the network is the
    unnormalised reduced density matrix rho_X of ``support`` (the norm
    <w|w> when ``support`` is empty). The nodes are the sites ``patch``, in
    that order; the edges in ``closure`` are closed ket-against-bra (the
    whole lattice is ``lattice.sites()`` with nothing closed). A closed
    edge is traced inside its node; every other edge keeps a ket leg
    ``("ke", e)`` and a bra leg ``("be", e)``, so a bond between two nodes
    acts as one index of extent D^2 and an edge leaving the patch unclosed
    stays open. A node's legs are its ket legs then its bra legs, each in
    lattice leg order. The fusion costs d * D^(2k) multiply-adds for a site
    with k open legs and runs here, outside the contraction plan. Pair
    weights are left to the caller.
    """
    closure = set(closure)
    support = set(support)
    tensors, labels = [], []
    for s in patch:
        ket = peps.tensors[s].tensor
        legs = peps.lattice.virtual_legs(s)
        k_names = [("kp", s)] + [("ke", e) for e in legs]
        b_names = [("bp", s)] + [("be", e) for e in legs]
        # Axis 0 is physical, axis 1 + i is leg i. A kept axis has einsum
        # index ax on the ket and n + ax on the bra; a summed one ax on both.
        n = ket.ndim
        keep = [s in support] + [e not in closure for e in legs]
        kept = [ax for ax in range(n) if keep[ax]]
        bra = [n + ax if keep[ax] else ax for ax in range(n)]
        out = kept + [n + ax for ax in kept]
        tensors.append(np.einsum(ket, list(range(n)), ket.conj(), bra, out))
        labels.append([k_names[ax] for ax in kept] + [b_names[ax] for ax in kept])
    return tensors, labels


def build_state_vector(peps: PepsState, cutoff: int = STATE_VECTOR_CUTOFF) -> np.ndarray:
    """Contract the full PEPS into its (unnormalised) state vector.

    The result has one axis per site in row-major coordinate order. Pair
    weights ``D**-0.5`` are included, so a bond-dimension-1 product PEPS of
    unit vectors comes out with norm 1; ``_single_layer`` folds them into
    its smallest input tensor, so no pass over the amplitudes applies them.

    The axes are in site order but, in general, the memory is not: the
    array is the permuted view left by the contraction's last transpose,
    not C-contiguous. Flattening it, or ``np.vdot`` on it, costs a strided
    copy of every amplitude; ``oracle.state_rdm`` reads it in memory order.
    """
    peps.lattice.require_engine_dimension()
    total = peps.total_phys_dim()
    if total > cutoff:
        raise SizeBudgetError(
            f"state vector needs {total} amplitudes, cutoff is {cutoff}", predicted_size=total
        )
    return _single_layer(peps, peps.lattice.sites())[0]


def site_map_svd(t: SiteTensor | BlockedTensor) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Thin SVD ``u, s, v_dag`` of the site map, physical leg as rows.

    The map is the (phys x virt) matrix of ``t``, its virtual legs merged in
    leg order. With ``k = min(phys, virt)``, ``(u * s[:k]) @ v_dag``
    reconstructs it; ``s`` is sorted descending and padded with zeros up to
    ``virt``, so ``s[-1]`` is the smallest singular value on the virtual
    space (0 when phys < virt).
    """
    m = t.tensor.reshape(t.phys_dim, math.prod(t.bond_dims))
    try:
        u, s, v_dag = np.linalg.svd(m, full_matrices=False)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"SVD did not converge on site map of shape {m.shape}") from exc
    if len(s) < m.shape[1]:
        s = np.concatenate([s, np.zeros(m.shape[1] - len(s))])
    return u, s, v_dag


def _is_injective(s: np.ndarray) -> bool:
    return bool(s[0] > 0 and s[-1] > INJECTIVITY_RTOL * s[0])


def injectivity_check(t: SiteTensor | BlockedTensor) -> InjectivityReport:
    """Injectivity verdict and condition number of the virtual-to-physical map."""
    _, s, _ = site_map_svd(t)
    injective = _is_injective(s)
    who = t.site if isinstance(t, SiteTensor) else t.sites
    return InjectivityReport(
        site=who,
        injective=injective,
        sigma_min=float(s[-1]),
        kappa=float(s[0] / s[-1]) if injective else None,
    )


def _check_connected(lattice: LatticeSpec, region: list[Site]):
    seen = {region[0]}
    frontier = [region[0]]
    region_set = set(region)
    while frontier:
        s = frontier.pop()
        for nb in lattice.neighbors(s):
            if nb in region_set and nb not in seen:
                seen.add(nb)
                frontier.append(nb)
    if seen != region_set:
        raise ArgumentError(f"region {sorted(region_set)} is not connected")


def block(peps: PepsState, region, max_size: int = MAX_BLOCK_SIZE) -> BlockedTensor:
    """Merge a connected region into one effective tensor.

    Internal edges are contracted with their ``D**-0.5`` pair weights; the
    merged physical leg runs over region sites in row-major order and the
    crossing legs follow site then per-site leg order.
    """
    region = sorted(set(tuple(s) for s in region))
    if not region:
        raise ArgumentError("empty region")
    for s in region:
        if s not in peps.tensors:
            raise ArgumentError(f"site {s} not in lattice")
    if len(region) > max_size:
        raise ArgumentError(f"region of {len(region)} sites exceeds block limit {max_size}")
    _check_connected(peps.lattice, region)

    out, crossing = _single_layer(peps, region)
    phys = math.prod(peps.tensors[s].phys_dim for s in region)
    out = out.reshape((phys,) + out.shape[len(region):])
    return BlockedTensor(sites=tuple(region), tensor=out, crossing=crossing)


def kappa_star(peps: PepsState, blocking=None, max_block_size: int = MAX_BLOCK_SIZE) -> float:
    """Largest condition number over all (blocked) site maps.

    ``blocking`` partitions the sites into regions; ``None`` means single
    sites. Raises NotInjectiveError naming the first non-injective block.
    """
    if blocking is None:
        blocking = [[s] for s in peps.lattice.sites()]
    covered: list[Site] = []
    for region in blocking:
        covered.extend(tuple(s) for s in region)
    if sorted(covered) != sorted(peps.lattice.sites()):
        raise ArgumentError("blocking is not a partition of the lattice sites")
    worst = 1.0
    for region in blocking:
        rep = injectivity_check(block(peps, region, max_size=max_block_size))
        if not rep.injective:
            raise NotInjectiveError(
                f"block {rep.site} is not injective (sigma_min={rep.sigma_min:.3e})",
                sigma_min=rep.sigma_min,
            )
        worst = max(worst, rep.kappa)
    return worst
