"""PEPS state representation, injectivity analysis, blocking, disentangling.

A PEPS assigns one tensor per lattice site, axis 0 physical and the
remaining axes following the lattice leg-order convention. Edges carry
maximally entangled pairs ``D**-0.5 * sum_i |i,i>``; the pair weights are
applied inside :func:`build_state_vector` and :func:`block`, so every
physically meaningful quantity downstream is a ratio.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ArgumentError, ModelError, NotInjectiveError, SizeBudgetError
from .lattice import Edge, LatticeSpec, Site, canonical_edge
from .network import contract_network
from .tensor import as_tensor

__all__ = [
    "SiteTensor",
    "BlockedTensor",
    "PepsState",
    "InjectivityReport",
    "build_state_vector",
    "injectivity_check",
    "block",
    "kappa_star",
    "disentangle_site",
    "entangled_pairs_vector",
]

# sigma_min > INJECTIVITY_RTOL * sigma_max declares a map injective.
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
    bond_dim: int = 0

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

    @property
    def phys_dims(self) -> dict[Site, int]:
        return {s: t.phys_dim for s, t in self.tensors.items()}

    def total_phys_dim(self) -> int:
        n = 1
        for t in self.tensors.values():
            n *= t.phys_dim
        return n


def build_state_vector(peps: PepsState, cutoff: int = STATE_VECTOR_CUTOFF) -> np.ndarray:
    """Contract the full PEPS into its (unnormalised) state vector.

    The result has one axis per site in row-major coordinate order. Pair
    weights ``D**-0.5`` are included, so a bond-dimension-1 product PEPS of
    unit vectors comes out with norm 1.
    """
    peps.lattice.require_engine_dimension()
    total = peps.total_phys_dim()
    if total > cutoff:
        raise SizeBudgetError(
            f"state vector needs {total} amplitudes, cutoff is {cutoff}", predicted_size=total
        )
    sites = peps.lattice.sites()
    tensors, labels = [], []
    for s in sites:
        tensors.append(peps.tensors[s].tensor)
        labels.append([("p", s)] + [("e", e) for e in peps.lattice.virtual_legs(s)])
    out = contract_network(tensors, labels, output=[("p", s) for s in sites], budget=None)
    weight = 1.0
    for e in peps.lattice.edges():
        weight *= peps._edge_extent(e[0], e) ** -0.5
    return out * weight


def injectivity_check(t: SiteTensor | BlockedTensor) -> InjectivityReport:
    """Singular-value test of the virtual-to-physical map.

    The map is matrixized with the physical leg as rows. Missing singular
    values (physical dimension smaller than the virtual space) count as
    exact zeros.
    """
    virt = int(np.prod(t.bond_dims, dtype=np.int64)) if t.bond_dims else 1
    m = t.tensor.reshape(t.phys_dim, virt)
    s = np.linalg.svd(m, compute_uv=False)
    if len(s) < virt:
        s = np.concatenate([s, np.zeros(virt - len(s))])
    sigma_max = float(s[0]) if len(s) else 0.0
    sigma_min = float(s[-1]) if len(s) else 0.0
    injective = sigma_min > INJECTIVITY_RTOL * sigma_max and sigma_max > 0
    kappa = sigma_max / sigma_min if injective else None
    who = t.site if isinstance(t, SiteTensor) else t.sites
    return InjectivityReport(site=who, injective=injective, sigma_min=sigma_min, kappa=kappa)


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

    region_set = set(region)
    internal, crossing = [], []
    for s in region:
        for e in peps.lattice.virtual_legs(s):
            other = e[0] if e[1] == s else e[1]
            if other in region_set:
                if e not in internal:
                    internal.append(e)
            else:
                crossing.append(e)

    tensors, labels = [], []
    for s in region:
        tensors.append(peps.tensors[s].tensor)
        labels.append(
            [("p", s)]
            + [("e", e, s) if e in crossing else ("e", e) for e in peps.lattice.virtual_legs(s)]
        )
    # crossing legs tagged with their endpoint so parallel edges stay distinct
    out_labels = [("p", s) for s in region]
    cross_order = []
    for s in region:
        for e in peps.lattice.virtual_legs(s):
            other = e[0] if e[1] == s else e[1]
            if other not in region_set:
                out_labels.append(("e", e, s))
                cross_order.append(e)
    out = contract_network(tensors, labels, output=out_labels, budget=None)
    for e in internal:
        out = out * (peps._edge_extent(e[0], e) ** -0.5)
    phys = 1
    for s in region:
        phys *= peps.tensors[s].phys_dim
    out = out.reshape((phys,) + out.shape[len(region):])
    return BlockedTensor(sites=tuple(region), tensor=out, crossing=tuple(cross_order))


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


def disentangle_site(state: np.ndarray, peps: PepsState, site: Site) -> np.ndarray:
    """Apply the site map's left-inverse to its physical index and renormalise.

    ``state`` must have one axis per site in row-major order; the chosen
    site's physical axis is replaced by its merged virtual legs. Only used
    at oracle scale.
    """
    site = tuple(site)
    t = peps.tensors[site]
    rep = injectivity_check(t)
    if not rep.injective:
        raise NotInjectiveError(
            f"site {site} is not injective (sigma_min={rep.sigma_min:.3e})",
            sigma_min=rep.sigma_min,
        )
    virt = int(np.prod(t.bond_dims, dtype=np.int64)) if t.bond_dims else 1
    a = t.tensor.reshape(t.phys_dim, virt)
    a_inv = np.linalg.pinv(a)
    axis = peps.lattice.site_index(site)
    out = np.tensordot(a_inv, state, axes=([1], [axis]))
    out = np.moveaxis(out, 0, axis)
    norm = np.linalg.norm(out)
    if norm == 0:
        raise ModelError(f"state vanished while disentangling site {site}")
    return out / norm


def entangled_pairs_vector(lattice: LatticeSpec, bond_dim: int) -> np.ndarray:
    """The bare pair state on all edges, with one merged axis per site.

    Axis ordering matches the state produced by disentangling every site:
    row-major sites, each axis running over that site's virtual legs in leg
    order. Sites with no legs get a trivial axis of extent 1.
    """
    tensors, labels = [], []
    for e in lattice.edges():
        pair = np.eye(bond_dim, dtype=np.complex128) * bond_dim**-0.5
        tensors.append(pair)
        labels.append([("end", e, e[0]), ("end", e, e[1])])
    output = []
    for s in lattice.sites():
        for e in lattice.virtual_legs(s):
            output.append(("end", e, s))
    if not tensors:
        return np.ones([1] * lattice.n_sites, dtype=np.complex128)
    out = contract_network(tensors, labels, output=output, budget=None)
    shape = []
    for s in lattice.sites():
        dims = [bond_dim] * len(lattice.virtual_legs(s))
        shape.append(int(np.prod(dims)) if dims else 1)
    return out.reshape(shape)
