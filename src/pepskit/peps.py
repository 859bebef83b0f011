"""PEPS state representation and the two network layers over it.

A PEPS is a lattice plus one array per site, axis 0 physical and the
remaining axes following the lattice leg-order convention. Edges carry
maximally entangled pairs ``D**-0.5 * sum_i |i,i>``; every pair weight is
read from :meth:`PepsState.edge_volume`, so every physically meaningful
quantity downstream is a ratio.

This module builds both networks the package contracts over a region with
its entangled pairs closed:

- the single layer |w>, :func:`_single_layer`, contracted here with its
  internal pair weights; :func:`build_state_vector` takes it over the whole
  lattice and :func:`block` over a window of sites, one merged site array;
- the double layer, :func:`_doubled_network`, returned uncontracted with
  one fused node per site: ket (x) conj(ket), its physical leg summed
  unless the site is in the support X, whose open legs make the network the
  unnormalised reduced density matrix rho_X. ``patch.patch_rdm`` takes
  rho_X over a patch for the estimator, and over the whole lattice
  (covering radius) for the oracle; the strip transfer operator takes the
  norm network over one column.

The double layer is real. Each fused node is a Hermitian positive
semi-definite matrix from its bra legs to its ket legs, so written in a
Hermitian basis of every doubled index (:func:`_hermitian_basis`: the D
diagonal units, then a symmetric and an antisymmetric element per pair
i < j) its coefficients are real, and a doubled bond is one real index of
extent D^2. :func:`_hermitian_node` computes them in complex arithmetic,
c_a = tr(s_a X) one leg at a time, and keeps the real part. Contracting a
bond pairs coefficients through a +-1 metric, which one of its two nodes
absorbs. The contraction then runs in float64: each multiply-add is one
real multiply-add, where a complex one costs four, on entries of half the
bytes. :func:`_hermitian_operator` maps the open indices back to ket and
bra: rho_X = sum_a r_a s_a over the product basis of the support.

Injectivity is decided where it is used: ``parent`` takes the SVD of each
blocked chain window.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ModelError, SizeBudgetError
from .lattice import Edge, LatticeSpec, Site
from .network import as_tensor, contract_network

__all__ = ["PepsState", "build_state_vector", "block"]

# Cap on state-vector amplitudes, d^N <= STATE_VECTOR_CUTOFF.
STATE_VECTOR_CUTOFF = 2**20


@dataclass(frozen=True)
class PepsState:
    """Lattice geometry plus one array per site.

    Each site's array has axis 0 physical, then one virtual axis per
    lattice leg of the site in leg order. Construction stores every array
    as a C-contiguous complex128 ndarray (``network.as_tensor``; no copy
    when it already is one) and checks the state in one pass over each
    site's legs, in row-major site order: the site has one virtual axis
    per leg and no zero extent, and each edge's extent, recorded at its
    first endpoint, is the one its second endpoint has. The recorded
    extents are the state's bond table, which :meth:`edge_volume` reads.
    A wrong leg count or a zero extent is reported first, at the first
    such site; else the smallest edge whose two extents differ. No code
    writes into the arrays afterwards: ``fileio.read_peps`` gives
    read-only views of a file's decoded bytes.
    """

    lattice: LatticeSpec
    tensors: dict[Site, np.ndarray] = field(repr=False)
    _bond_dims: dict[Edge, int] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        sites = self.lattice.sites()
        if set(self.tensors) != set(sites):
            missing = set(sites) - set(self.tensors)
            extra = set(self.tensors) - set(sites)
            raise ModelError(f"tensor/site mismatch: missing {missing}, extra {extra}")
        tensors, bond_dims, differ = {}, {}, []
        for s in sites:
            t = tensors[s] = as_tensor(self.tensors[s])
            legs = self.lattice.virtual_legs(s)
            if t.ndim != 1 + len(legs):
                raise ModelError(f"site {s}: expected {1 + len(legs)} legs, tensor has {t.ndim}")
            if 0 in t.shape:
                raise ModelError(f"site {s}: zero extent in shape {t.shape}")
            for e, d in zip(legs, t.shape[1:]):
                if e[0] == s:
                    bond_dims[e] = d
                elif bond_dims[e] != d:
                    differ.append((e, bond_dims[e], d))
        if differ:
            (u, v), du, dv = min(differ)
            raise ModelError(f"edge {(u, v)}: bond dims differ, {du} vs {dv}")
        object.__setattr__(self, "tensors", tensors)
        object.__setattr__(self, "_bond_dims", bond_dims)

    def edge_volume(self, edges) -> int:
        """Product of the bond extents of ``edges``, an exact integer.

        ``edges`` are lattice edges ``(u, v)``, ``u < v``, as
        ``lattice.edges()`` and ``lattice.virtual_legs`` give them.

        The pairs on these edges carry the joint weight ``volume**-0.5`` in
        the single layer and ``1/volume`` in the double layer.
        """
        return math.prod(self._bond_dims[e] for e in edges)


def _single_layer(peps: PepsState, region) -> np.ndarray:
    """Contract |w> over ``region`` with its internal pairs applied.

    The axes of the result are the physical legs in region order, then one
    leg per edge crossing out of the region, in site then per-site leg
    order. The joint pair weight ``edge_volume(internal)**-0.5`` scales the
    smallest input tensor before the contraction, not its result, which
    over a whole lattice is the full state vector.
    """
    inside = set(region)
    tensors, labels, internal, crossing = [], [], [], []
    for s in region:
        legs = peps.lattice.virtual_legs(s)
        tensors.append(peps.tensors[s])
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
    return contract_network(tensors, labels, output=output)


@functools.lru_cache(maxsize=None)
def _hermitian_basis(dim: int) -> np.ndarray:
    """The Hermitian basis s_a of dim x dim matrices, shape ``(dim**2, dim, dim)``.

    First the dim diagonal units E_ii, then for each i < j the pair
    (E_ij + E_ji) / sqrt(2) and i (E_ji - E_ij) / sqrt(2). The basis is
    orthonormal, tr(s_a s_b) = delta_ab, so a Hermitian matrix H is
    sum_a tr(s_a H) s_a with real coefficients. Contracting two matrices
    index by index pairs their coefficients through the metric
    tr(s_a s_b^T) = +delta_ab, or -delta_ab for the antisymmetric kind.
    """
    basis = np.zeros((dim * dim, dim, dim), dtype=np.complex128)
    for i in range(dim):
        basis[i, i, i] = 1
    a = dim
    for i in range(dim):
        for j in range(i + 1, dim):
            basis[a, i, j] = basis[a, j, i] = 2**-0.5
            basis[a + 1, j, i], basis[a + 1, i, j] = 1j * 2**-0.5, -1j * 2**-0.5
            a += 2
    basis.setflags(write=False)
    return basis


@functools.lru_cache(maxsize=None)
def _coefficient_map(dim: int, metric: bool) -> np.ndarray:
    """(dim**2, dim**2) map from a (ket, bra) index pair to basis coefficients.

    Column a is conj(s_a) flattened, so a matrix X flattened row-major maps
    to tr(s_a X). With ``metric`` the antisymmetric columns change sign,
    which absorbs the metric of a contracted bond.
    """
    w = _hermitian_basis(dim).conj().reshape(dim * dim, dim * dim).T.copy()
    if metric:
        w[:, dim + 1 :: 2] *= -1
    w.setflags(write=False)
    return w


def _hermitian_node(ket: np.ndarray, kept: list[int], metric: list[bool]) -> np.ndarray:
    """Real coefficients of the fused node ket (x) conj(ket) in the Hermitian basis.

    The axes of ``ket`` not in ``kept`` are summed between ket and bra.
    The node, a Hermitian matrix from its kept bra legs to its kept ket
    legs, is one matrix product, transposed so that each leg's ket and bra
    indices are adjacent. One matrix product per leg maps the leading pair
    to its d^2 coefficients and leaves them as the last axis, with the
    metric on the legs flagged in ``metric``. The coefficients of a
    Hermitian matrix are real, so the imaginary part, rounding only, is
    dropped, and the real part is copied out so that the complex product
    can be freed. The result has one axis of extent d^2 per kept axis, in
    ``kept`` order.
    """
    dims = [ket.shape[ax] for ax in kept]
    summed = [ax for ax in range(ket.ndim) if ax not in kept]
    m = ket.transpose(summed + kept).reshape(-1, math.prod(dims))
    n = len(dims)
    x = (m.T @ m.conj()).reshape(dims + dims)
    x = x.transpose([ax + half for ax in range(n) for half in (0, n)])
    for d, flip in zip(dims, metric):
        x = np.dot(x.reshape(d * d, -1).T, _coefficient_map(d, flip))
    return np.ascontiguousarray(x.real).reshape([d * d for d in dims])


def _hermitian_operator(coefficients: np.ndarray) -> np.ndarray:
    """The operator sum_a c_a s_a1 (x) ... (x) s_an of real coefficients c.

    ``coefficients`` has one axis of extent d^2 per leg. The result has the
    ket index of every leg, then the bra index of every leg, each in leg
    order.
    """
    dims = [math.isqrt(extent) for extent in coefficients.shape]
    op = coefficients
    # As in _hermitian_node, each product maps the leading axis and leaves
    # the result last, so the legs come back in order.
    for d in dims:
        op = np.dot(op.reshape(d * d, -1).T, _hermitian_basis(d).reshape(d * d, d * d))
    n = len(dims)
    op = op.reshape([x for d in dims for x in (d, d)])
    return op.transpose(list(range(0, 2 * n, 2)) + list(range(1, 2 * n, 2)))


def _doubled_network(peps: PepsState, support, patch, closure):
    """Assemble the double-layer network, one real fused node per site.

    Each site's node is ket (x) conj(ket): a site outside ``support`` sums
    its physical leg inside the node, a support site keeps it open, so the
    network is the unnormalised reduced density matrix rho_X of ``support``
    (the norm <w|w> when ``support`` is empty). The nodes are the sites
    ``patch``, in that order; the edges in ``closure`` are closed
    ket-against-bra (the whole lattice is ``lattice.sites()`` with nothing
    closed). A closed edge is traced inside its node.

    Every other leg pair, ket index against bra index, is written in the
    Hermitian basis of ``_hermitian_basis``. The fused node is a Hermitian
    matrix from its bra legs to its ket legs, so its coefficients are real:
    a bond ``e`` becomes one label ``("e", e)`` of extent D^2 and a support
    site's physical pair one label ``("p", s)`` of extent d^2, in lattice
    leg order after the physical one. The planner sees the same sizes as
    with separate ket and bra legs. A bond between two nodes pairs the
    coefficients through the metric, +1 or -1 per basis element, which the
    node at ``e[0]`` absorbs; an edge leaving the patch unclosed stays open
    with no metric, and ``_hermitian_operator`` maps the open labels back
    to ket and bra indices. The fusion and the basis change run here,
    outside the contraction plan. Pair weights are left to the caller.
    """
    closure = set(closure)
    support = set(support)
    inside = set(patch)
    tensors, labels = [], []
    for s in patch:
        legs = peps.lattice.virtual_legs(s)
        names = [("p", s)] + [("e", e) for e in legs]
        keep = [s in support] + [e not in closure for e in legs]
        metric = [False] + [e[0] == s and e[1] in inside for e in legs]
        kept = [ax for ax in range(len(names)) if keep[ax]]
        tensors.append(_hermitian_node(peps.tensors[s], kept, [metric[ax] for ax in kept]))
        labels.append([names[ax] for ax in kept])
    return tensors, labels


def build_state_vector(peps: PepsState) -> np.ndarray:
    """Contract the full PEPS into its (unnormalised) state vector.

    The result has one axis per site in row-major coordinate order. Pair
    weights ``D**-0.5`` are included, so a bond-dimension-1 product PEPS of
    unit vectors comes out with norm 1; ``_single_layer`` folds them into
    its smallest input tensor, so no pass over the amplitudes applies them.
    A state of more than ``STATE_VECTOR_CUTOFF`` amplitudes is refused
    before any contraction.

    The axes are in site order but, in general, the memory is not: the
    array is the permuted view left by the contraction's last transpose,
    not C-contiguous. Flattening it, or ``np.vdot`` on it, costs a strided
    copy of every amplitude; ``oracle.state_rdm`` reads it in memory order.
    """
    total = math.prod(t.shape[0] for t in peps.tensors.values())
    if total > STATE_VECTOR_CUTOFF:
        raise SizeBudgetError(
            f"state vector needs {total} amplitudes, cutoff is {STATE_VECTOR_CUTOFF}",
            predicted_size=total,
        )
    return _single_layer(peps, peps.lattice.sites())


def block(peps: PepsState, region) -> np.ndarray:
    """Merge the sites of ``region`` into one effective site's array.

    Internal edges are contracted with their ``D**-0.5`` pair weights. Axis
    0 is the merged physical leg, over the sites in ``region`` order; one
    axis per edge crossing out of the region follows, in site then per-site
    leg order. ``parent`` blocks its consecutive chain windows with it.
    """
    out = _single_layer(peps, region)
    n = len(region)
    return out.reshape((math.prod(out.shape[:n]),) + out.shape[n:])
