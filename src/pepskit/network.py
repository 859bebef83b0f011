"""Dense tensor network contraction with deterministic greedy planning.

A network is a list of tensors with one hashable label per leg. A label
appearing on exactly two legs marks a contracted index; a label appearing
once stays open. The planner works on shapes only, so the peak intermediate
size is known (and checked against the budget) before any arithmetic runs.

Planning picks, at each step, the pair of connected tensors whose
contraction yields the smallest intermediate, with ties broken by node ids
(inputs in order, then intermediates in creation order): the key is
``(result size, ids)``. Candidate pairs are kept in a heap and updated
incrementally after each merge, so planning costs roughly
O(steps * degree * log(pairs)) rather than rescanning every pair per step.
Disconnected components are combined by outer products at the end,
smallest first.
"""

from __future__ import annotations

import heapq
from typing import Hashable, Sequence

import numpy as np

from .errors import ArgumentError, SizeBudgetError

__all__ = ["as_tensor", "contract_network"]

# Largest intermediate allowed by default, in complex entries.
DEFAULT_BUDGET = 2**26


def as_tensor(data) -> np.ndarray:
    """Coerce to a C-contiguous complex128 ndarray of the same rank (0-d stays 0-d)."""
    return np.asarray(data, dtype=np.complex128, order="C")


def _pair_result(labels_a, dims_a, labels_b, dims_b):
    """Labels and extents of contracting two nodes over their shared labels."""
    shared = set(labels_a) & set(labels_b)
    out_labels = [l for l in labels_a if l not in shared] + [l for l in labels_b if l not in shared]
    dims = {**dims_a, **dims_b}
    size = 1
    for l in out_labels:
        size *= dims[l]
    return out_labels, {l: dims[l] for l in out_labels}, size


class _Node:
    __slots__ = ("order", "tensor", "labels")

    def __init__(self, order, tensor, labels):
        self.order = order
        self.tensor = tensor
        self.labels = labels

    @property
    def dims(self):
        return dict(zip(self.labels, self.tensor.shape))


def _trace_repeats(tensor: np.ndarray, labels: list) -> tuple[np.ndarray, list]:
    """Sum out any label appearing twice on the same tensor."""
    while True:
        seen = {}
        dup = None
        for ax, l in enumerate(labels):
            if l in seen:
                dup = (seen[l], ax)
                break
            seen[l] = ax
        if dup is None:
            return tensor, labels
        i, j = dup
        tensor = np.trace(tensor, axis1=i, axis2=j)
        labels = [l for ax, l in enumerate(labels) if ax not in (i, j)]


def contract_network(
    tensors: Sequence[np.ndarray],
    labels: Sequence[Sequence[Hashable]],
    output: Sequence[Hashable] | None = None,
    budget: int | None = DEFAULT_BUDGET,
) -> np.ndarray:
    """Contract a labelled tensor network.

    Args:
        tensors: the network tensors.
        labels: per-tensor leg labels, aligned with tensor axes. Every label
            must occur at most twice across the whole network; paired legs
            must have equal extents.
        output: the open labels in the desired output axis order. Required
            whenever open labels exist; a scalar network may omit it.
        budget: cap on the number of complex entries of any intermediate;
            ``None`` disables the check.

    Returns:
        The contracted tensor with axes ordered as ``output`` (a 0-d array
        for scalar networks).
    """
    if len(tensors) != len(labels):
        raise ArgumentError("tensors and labels must have equal length")
    if not tensors:
        raise ArgumentError("empty network")

    nodes = []
    for k, (t, ls) in enumerate(zip(tensors, labels)):
        t = as_tensor(t)
        if t.ndim != len(ls):
            raise ArgumentError(f"tensor {k} has rank {t.ndim} but {len(ls)} labels")
        t, ls = _trace_repeats(t, list(ls))
        nodes.append(_Node(k, t, ls))

    counts: dict = {}
    extents: dict = {}
    for node in nodes:
        for l, d in zip(node.labels, node.tensor.shape):
            counts[l] = counts.get(l, 0) + 1
            if counts[l] > 2:
                raise ArgumentError(f"label {l!r} appears more than twice")
            if l in extents and extents[l] != d:
                raise ArgumentError(f"label {l!r} has mismatched extents {extents[l]} vs {d}")
            extents[l] = d

    open_labels = [l for l, c in counts.items() if c == 1]
    if output is None:
        if open_labels:
            raise ArgumentError(f"network has open labels {open_labels!r}; pass output order")
        output = []
    else:
        output = list(output)
        if sorted(map(repr, output)) != sorted(map(repr, open_labels)):
            raise ArgumentError("output labels do not match the network's open labels")

    # Plan on shapes only, then execute the recorded steps.
    plan = _plan([list(n.labels) for n in nodes], extents, budget)
    live: dict[int, _Node] = {n.order: n for n in nodes}
    next_id = len(nodes)
    for i, j in plan:
        a, b = live.pop(i), live.pop(j)
        b_labels = set(b.labels)
        shared = [l for l in a.labels if l in b_labels]
        axes_a = [a.labels.index(l) for l in shared]
        axes_b = [b.labels.index(l) for l in shared]
        out = np.tensordot(a.tensor, b.tensor, axes=(axes_a, axes_b))
        out_labels = [l for l in a.labels if l not in shared] + [l for l in b.labels if l not in shared]
        live[next_id] = _Node(next_id, out, out_labels)
        next_id += 1

    (final,) = live.values()
    result, result_labels = final.tensor, final.labels
    if output:
        perm = [result_labels.index(l) for l in output]
        result = np.transpose(result, perm)
    return result


def _plan(node_labels: list[list], extents: dict, budget: int | None) -> list[tuple[int, int]]:
    """Greedy pairwise contraction order over shapes; returns node-id pairs.

    Candidate pairs are the live nodes that share a label. They sit in a
    heap keyed by ``(result size, a, b)`` with ``a < b``, so each step takes
    the pair with the smallest intermediate and breaks ties by node ids. A
    pair's key never changes while both its nodes live, so a merge pushes
    only the new node's pairs with its neighbours, and entries naming a
    merged node are skipped when popped. When no connected pair is left,
    the two smallest nodes (ties by id) are joined by an outer product.
    Planning costs roughly O(steps * degree * log(pairs)).
    """
    live: dict[int, set] = {i: set(ls) for i, ls in enumerate(node_labels)}
    sizes = {
        i: int(np.prod([extents[l] for l in ls], dtype=np.float64)) for i, ls in live.items()
    }
    holders: dict = {}
    for i, ls in live.items():
        for l in ls:
            holders.setdefault(l, set()).add(i)
    steps: list[tuple[int, int]] = []
    next_id = len(node_labels)

    def result_size(i, j):
        size = 1
        for l in live[i] ^ live[j]:
            size *= extents[l]
        return size

    pairs = {tuple(sorted(nodes)) for nodes in holders.values() if len(nodes) == 2}
    heap = [(result_size(a, b), a, b) for a, b in pairs]
    heapq.heapify(heap)
    while len(live) > 1:
        while heap and (heap[0][1] not in live or heap[0][2] not in live):
            heapq.heappop(heap)
        if heap:
            size, i, j = heapq.heappop(heap)
        else:
            # Disconnected components: outer-product the two smallest.
            i, j = heapq.nsmallest(2, live, key=lambda k: (sizes[k], k))
            size = result_size(i, j)
        if budget is not None and size > budget:
            raise SizeBudgetError(
                f"contraction intermediate of {size} complex entries exceeds budget {budget}",
                predicted_size=size,
            )
        merged = live[i] ^ live[j]
        neighbours = set()
        for l in live[i] | live[j]:
            holder = holders[l]
            holder.discard(i)
            holder.discard(j)
            if l in merged:
                neighbours |= holder
                holder.add(next_id)
            elif not holder:
                del holders[l]
        del live[i], live[j]
        live[next_id] = merged
        sizes[next_id] = size
        for k in neighbours:
            heapq.heappush(heap, (result_size(k, next_id), k, next_id))
        steps.append((i, j))
        next_id += 1
    return steps
