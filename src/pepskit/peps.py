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

A network's nodes are built per class: the sites whose arrays have one
shape and whose patterns agree, the axes kept and which of them carry the
metric. A class is built in stacks of at most ``STACK_ENTRIES`` entries of
X = m^T conj(m) by one chain of products, :func:`_hermitian_nodes`: one
batched product forms every X of the stack, one copy lays the stack out
with each leg's (ket, bra) pair leading and the stack axis last, and one
product per kept leg maps its pair for the whole stack. Built alone, a
D=2 node is about 25 NumPy calls on a few hundred entries; in a stack the
calls are shared, and a D=2 bulk node costs a fifth of its time alone
(``STACK_ENTRIES``). A stack of one site is built by
``_hermitian_node``, with no copy of its array, and so is every node of a
class that keeps fewer than two axes of extent above 1. Every node is
bit-for-bit ``_hermitian_node`` of its site, so the plans and the values
do not depend on the stacking. A node too large for a stack of two is
built as its site is met, in patch order: building the D=3 bulk nodes
class by class was 4-6% slower.

Injectivity is decided where it is used: ``parent`` takes the SVD of each
blocked chain window.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Mapping, Sequence
from dataclasses import dataclass, field

import numpy as np

from .errors import ArgumentError, ModelError, SizeBudgetError
from .lattice import Edge, LatticeSpec, Site
from .network import as_tensor, contract_network

__all__ = ["PepsState", "SiteArrays", "build_state_vector", "block"]

# Cap on state-vector amplitudes, d^N <= STATE_VECTOR_CUTOFF.
STATE_VECTOR_CUTOFF = 2**20
# Entries of X per stack. Per node: D=2 bulk (X of 256) 31 us alone, 6 us in a stack of 32;
# D=3 bulk (6,561) 204 us alone, 248 us in a stack of two, so it is never stacked.
STACK_ENTRIES = 8192


class SiteArrays(Mapping):
    """A state's site arrays, each read from its store the first time it is used.

    ``ndim`` and ``shapes`` hold each site's number of axes and its shape,
    zero-padded, one row per site in row-major order; they are known
    before any array is read. ``read(k)`` returns the array of row-major
    site ``k``, which is then kept. ``fileio.open_peps`` makes one from a
    state file's index.
    """

    def __init__(self, lattice: LatticeSpec, ndim: np.ndarray, shapes: np.ndarray, read):
        self.lattice, self.ndim, self.shapes = lattice, ndim, shapes
        self._read = read
        self._arrays: dict[Site, np.ndarray] = {}

    def __getitem__(self, site: Site) -> np.ndarray:
        t = self._arrays.get(site)
        if t is None:
            try:
                k = self.lattice.site_index(site)
            except ArgumentError:
                raise KeyError(site) from None
            t = self._arrays[site] = as_tensor(self._read(k))
        return t

    def __iter__(self):
        return iter(self.lattice.sites())

    def __len__(self) -> int:
        return self.lattice.n_sites


@functools.cache
def _shape_layout(extents: tuple[int, ...]) -> tuple[np.ndarray, ...]:
    """The lattice-only arrays of the shape check, built once per lattice shape.

    Returns each row-major site's expected number of axes, then the edges
    in sorted order as four index arrays: the row of the edge's lower site
    and the shape column of its leg there, then the same for its upper
    site. The legs are read off the coordinates, all sites at once; every
    array is read-only.
    """
    coords = np.indices(extents).reshape(len(extents), -1)
    minus = coords > 0
    plus = coords < np.array(extents)[:, None] - 1
    count = minus + plus.astype(np.int64)  # legs per axis and site
    # Shape column of each axis's first leg at each site: the legs of lower axes come first.
    first = 1 + np.cumsum(count, axis=0) - count
    strides = np.cumprod((1,) + extents[:0:-1])[::-1]
    axis, u = np.nonzero(plus)  # each edge's axis and lower site
    v = u + strides[axis]
    # Row-major order of the sites is their lexicographic order, so this sorts the edges.
    order = np.lexsort((v, u))
    layout = (1 + count.sum(axis=0), u[order], (first[axis, u] + minus[axis, u])[order],
              v[order], first[axis, v][order])
    for a in layout:
        a.setflags(write=False)
    return layout


def _check_shapes(lattice: LatticeSpec, ndim: np.ndarray, shapes: np.ndarray):
    """Refuse site shapes that do not fit the lattice, on integers only.

    ``ndim`` and ``shapes`` are as in :class:`SiteArrays`. Each site needs
    one axis per leg after the physical one, and no zero extent; the first
    site, row-major, that breaks either is reported, a wrong axis count
    before a zero extent. Else each edge must have one extent at both
    ends, and the smallest edge that does not is reported. The lattice's
    part of the check, :func:`_shape_layout`, is built once per lattice
    shape; a call compares the file's integers against it.
    """
    expected, u, cu, v, cv = _shape_layout(lattice.extents)
    wrong = ndim != expected
    bad = wrong | ((shapes == 0) & (np.arange(shapes.shape[1]) < ndim[:, None])).any(axis=1)
    if bad.any():
        k = int(np.argmax(bad))
        s = lattice.site_at(k)
        if wrong[k]:
            raise ModelError(f"site {s}: expected {expected[k]} legs, tensor has {ndim[k]}")
        raise ModelError(f"site {s}: zero extent in shape {tuple(int(d) for d in shapes[k, : ndim[k]])}")
    du, dv = shapes[u, cu], shapes[v, cv]
    differ = np.flatnonzero(du != dv)
    if differ.size:
        k = differ[0]
        edge = (lattice.site_at(u[k]), lattice.site_at(v[k]))
        raise ModelError(f"edge {edge}: bond dims differ, {du[k]} vs {dv[k]}")


@dataclass(frozen=True)
class PepsState:
    """Lattice geometry plus one array per site.

    Each site's array has axis 0 physical, then one virtual axis per
    lattice leg of the site in leg order. ``tensors`` is a dict of the
    arrays, stored on construction as C-contiguous complex128 ndarrays
    (``network.as_tensor``; no copy when one already is), or a
    :class:`SiteArrays`, whose arrays are read on first use; a state file's
    arrays are read-only views of the bytes read (``fileio.open_peps``).
    No code writes into the arrays.

    Construction checks the site shapes, from the dict's arrays or the
    ``SiteArrays`` table, without reading an array: each site has one
    virtual axis per leg and no zero extent, and each edge has the same
    extent at both ends. :meth:`edge_volume` reads the bond extents off the
    shape table.
    """

    lattice: LatticeSpec
    tensors: Mapping[Site, np.ndarray] = field(repr=False)
    _shapes: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if isinstance(self.tensors, SiteArrays):
            ndim, shapes = self.tensors.ndim, self.tensors.shapes
        else:
            sites = self.lattice.sites()
            if set(self.tensors) != set(sites):
                missing = set(sites) - set(self.tensors)
                extra = set(self.tensors) - set(sites)
                raise ModelError(f"tensor/site mismatch: missing {missing}, extra {extra}")
            tensors = {s: as_tensor(self.tensors[s]) for s in sites}
            ndim = np.array([t.ndim for t in tensors.values()], dtype=np.int64)
            shapes = np.zeros((len(sites), ndim.max()), dtype=np.int64)
            for row, t in zip(shapes, tensors.values()):
                row[: t.ndim] = t.shape
            object.__setattr__(self, "tensors", tensors)
        _check_shapes(self.lattice, ndim, shapes)
        object.__setattr__(self, "_shapes", shapes)

    @functools.cached_property
    def _bond_dims(self) -> dict[Edge, int]:
        # Each edge's extent at its first endpoint, read off the shape table on
        # first use; the patch estimator never asks, so it never builds this.
        shapes = self._shapes.tolist()
        return {e: shapes[k][1 + j] for k, s in enumerate(self.lattice.sites())
                for j, e in enumerate(self.lattice.virtual_legs(s)) if e[0] == s}

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


def _hermitian_node(ket: np.ndarray, kept: Sequence[int], metric: Sequence[bool]) -> np.ndarray:
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
    ``kept`` order. :func:`_hermitian_nodes` is the same chain of products
    over a stack of arrays.
    """
    dims = [ket.shape[ax] for ax in kept]
    summed = [ax for ax in range(ket.ndim) if ax not in kept]
    m = ket.transpose(summed + list(kept)).reshape(-1, math.prod(dims))
    n = len(dims)
    x = (m.T @ m.conj()).reshape(dims + dims)
    x = x.transpose([ax + half for ax in range(n) for half in (0, n)])
    for d, flip in zip(dims, metric):
        x = np.dot(x.reshape(d * d, -1).T, _coefficient_map(d, flip))
    return np.ascontiguousarray(x.real).reshape([d * d for d in dims])


def _hermitian_nodes(kets: np.ndarray, kept: Sequence[int], metric: Sequence[bool]) -> np.ndarray:
    """:func:`_hermitian_node` of each array stacked on axis 0 of ``kets``, one node per row.

    ``kept`` and ``metric`` are as there, on the axes of one array. The
    products are those of ``_hermitian_node`` with the stack as one more
    row index: one batched product forms every X, one copy lays the stack
    out with each leg's (ket, bra) pair leading and the stack axis last,
    and each per-leg product maps the leading pair over the whole stack.
    The rows of every product are those of the one-array products, so each
    node is bit-for-bit the same when every per-leg product of one array
    has more than one row (``_class_layout``); the last product leaves the
    stack axis first, so each node is a C-contiguous row of the result.
    """
    g = kets.shape[0]
    dims = [kets.shape[1 + ax] for ax in kept]
    summed = [1 + ax for ax in range(kets.ndim - 1) if ax not in kept]
    m = kets.transpose([0] + summed + [1 + ax for ax in kept]).reshape(g, -1, math.prod(dims))
    n = len(dims)
    x = np.matmul(m.transpose(0, 2, 1), m.conj()).reshape([g] + dims + dims)
    x = x.transpose([1 + ax + half for ax in range(n) for half in (0, n)] + [0])
    for d, flip in zip(dims, metric):
        x = np.dot(x.reshape(d * d, -1).T, _coefficient_map(d, flip))
    return np.ascontiguousarray(x.real).reshape([g] + [d * d for d in dims])


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


@functools.cache
def _site_layout(extents: tuple[int, ...], site: Site) -> tuple:
    """A site's labels, legs, neighbours and interior leg pattern, kept per lattice shape.

    The labels are ``("p", site)`` then ``("e", e)`` per leg, and the
    neighbours follow the legs. The interior pattern, as in
    :func:`_doubled_network` but for the legs only, is that of a site whose
    neighbours are all in the patch: every leg kept, with the metric where
    the site is the leg's lower end ``e[0]``.
    """
    lattice = LatticeSpec(extents)
    legs = tuple(lattice.virtual_legs(site))
    names = (("p", site),) + tuple(("e", e) for e in legs)
    others = tuple(lattice.neighbors(site))
    return names, legs, others, tuple(2 if u == site else 1 for u, _ in legs)


@functools.cache
def _class_layout(shape: tuple[int, ...], pattern: tuple[int, ...]) -> tuple:
    """The kept axes of a site class, the metric flag of each, and the entries of its X.

    The entries are None for a class that is never stacked: one with fewer
    than two kept axes of extent above 1. One of its per-leg products in
    ``_hermitian_node`` then has a single row, which NumPy computes as a
    vector product, and a stacked matrix product need not round alike.
    """
    kept = tuple(ax for ax, p in enumerate(pattern) if p)
    wide = sum(shape[ax] > 1 for ax in kept) >= 2
    entries = math.prod(shape[ax] for ax in kept) ** 2 if wide else None
    return kept, tuple(p == 2 for p in pattern if p), entries


def _doubled_network(peps: PepsState, support, patch, closure, nodes: dict | None = None):
    """Assemble the double-layer network, one real fused node per site.

    Each site's node is ket (x) conj(ket): a site outside ``support`` sums
    its physical leg inside the node, a support site keeps it open, so the
    network is the unnormalised reduced density matrix rho_X of ``support``
    (the norm <w|w> when ``support`` is empty). The nodes are the sites
    ``patch``, in that order; the edges in ``closure``, each leaving the
    patch, are closed ket-against-bra (the whole lattice is
    ``lattice.sites()`` with nothing closed). A closed edge is traced
    inside its node.

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

    A site's node depends on its array and its pattern, which axes it
    keeps and which carry the metric. Sites of one array shape and pattern
    form a class, and each class is built in stacks of at most
    ``STACK_ENTRIES`` entries of X (module docstring); a node that no stack
    holds is ``_hermitian_node`` of its array. ``nodes``, when given, maps
    ``(site, pattern)`` to a node built before: such a node is reused, not
    built, and each node built here is added to it.
    """
    closure = set(closure)
    support = set(support)
    inside = set(patch)
    extents = peps.lattice.extents
    nodes = {} if nodes is None else nodes
    tensors, labels, classes = [], [], {}
    for s in patch:
        names, legs, others, interior = _site_layout(extents, s)
        phys = int(s in support)
        # Pattern per axis: 0 summed, 1 kept, 2 kept with the metric. Only a
        # site with a neighbour outside the patch can have a closed leg.
        if inside.issuperset(others):
            pattern = (phys,) + interior
        else:
            pattern = (phys,) + tuple(
                0 if e in closure else p if o in inside else 1 for e, p, o in zip(legs, interior, others))
        labels.append([name for name, p in zip(names, pattern) if p])
        key = (s, pattern)
        node = nodes.get(key)
        if node is None:
            ket = peps.tensors[s]
            group = (ket.shape, pattern)
            kept, metric, entries = _class_layout(*group)
            if entries is None or 2 * entries > STACK_ENTRIES:
                # Never stacked: built at once, in patch order (module docstring).
                node = nodes[key] = _hermitian_node(ket, kept, metric)
            else:
                classes.setdefault(group, []).append((len(tensors), key, ket))
        tensors.append(node)
    for group, members in classes.items():
        kept, metric, entries = _class_layout(*group)
        step = STACK_ENTRIES // entries
        for i in range(0, len(members), step):
            chunk = members[i : i + step]
            if len(chunk) == 1:
                ((at, key, ket),) = chunk
                tensors[at] = nodes[key] = _hermitian_node(ket, kept, metric)
                continue
            stacked = _hermitian_nodes(np.array([ket for _, _, ket in chunk]), kept, metric)
            for k, (at, key, _) in enumerate(chunk):
                tensors[at] = nodes[key] = stacked[k]
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
    not C-contiguous, so flattening it costs a strided copy of every
    amplitude. ``parent`` flattens it for the fidelity of a gap scan's
    ground state, and the tests compare against it. The oracle does not
    call it: it contracts the single layers of two halves of the lattice
    (``oracle._state_halves``) under the same cutoff.
    """
    _check_state_vector_size(peps)
    return _single_layer(peps, peps.lattice.sites())


def _check_state_vector_size(peps: PepsState) -> None:
    """Refuse a state of more than ``STATE_VECTOR_CUTOFF`` amplitudes, read at the call."""
    total = math.prod(t.shape[0] for t in peps.tensors.values())
    if total > STATE_VECTOR_CUTOFF:
        raise SizeBudgetError(
            f"state vector needs {total} amplitudes, cutoff is {STATE_VECTOR_CUTOFF}",
            predicted_size=total,
        )


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
