"""Dense tensor network contraction with deterministic greedy planning.

A network is a list of tensors with one hashable label per leg. A label
appearing on two legs of two different tensors marks a contracted index; a
label appearing once stays open. A label twice on one tensor, a trace
inside a node, is refused: the builder traces it (the fused double layer
closes its edges inside each node). The planner works on shapes only, so
the peak intermediate size is known (and checked against ``DEFAULT_BUDGET``)
before any arithmetic runs.

Planning is greedy. A pass picks, at each step, the pair of connected
tensors with the smallest key, ties broken by node ids (inputs in order,
then intermediates in creation order). Candidate pairs are kept in a heap
and updated incrementally after each merge, so a pass costs roughly
O(steps * degree * log(pairs)) rather than rescanning every pair per step.
Disconnected components are combined by outer products at the end,
smallest first. The first pass is keyed by the result size.

A network whose tensors are all real is contracted in float64; one complex
tensor makes the whole contraction complex128. The fused double layer
(``peps._doubled_network``) is real, the single layer complex.

Every contraction is refused at plan time, before any arithmetic, in two
ways that the first pass alone decides: an intermediate over
``DEFAULT_BUDGET`` entries, or a plan whose multiply-adds, summed over its
steps as (result size) x (contracted extent), exceed ``WORK_BUDGET``; both
are module constants read at each call. Both count entries and
multiply-adds whatever the dtype, so a real network is refused exactly
where the complex network of the same shapes would be. The largest single
layer the benchmark contracts, the seed-1 5x4 D=2 state vector (2**20
entries, 1.79e7 multiply-adds), lies far inside both. The work guard
exists because a fused double layer fits far larger patches into the
size budget than it can contract in reasonable time. On a seed-1 12x12 D=2
state the radius-6 patch around a centre site peaks at exactly 2**26
entries (512 MiB in float64) but needs 9.2e10 multiply-adds. The largest
plan the benchmark workloads answer, a D=3 pair at radius 3, needs 4.4e9;
on one BLAS thread of a 2-core x86 machine (Intel Xeon) its real double
layer runs in 0.30 s (1.5e10 multiply-adds/s), where the complex one took
1.0 s (4.4e9/s). At the real rate the radius-6 plan would take about 6 s.

A first plan that is accepted and costs more than ``REPLAN_MADDS``
multiply-adds is planned twice more: keyed by size(out) - size(a) -
size(b), opt_einsum's greedy default (Smith & Gray, JOSS 3(26) 753, 2018),
and by size(out) / (size(a) + size(b)). Of the three, the plan with the
fewest multiply-adds whose peak is no larger than the first plan's is
returned, the first plan on a tie; choosing among plans by their flops
follows Gray & Kourtis, Quantum 5, 410 (2021). On seed-1 states, the
5x4 D=2 single layer (the oracle's state vector) falls from 1.43e8 to
1.79e7 multiply-adds under the ratio key, at the same 2**20 peak, and the
12x12 D=2 radius-5 patch around a centre site from 6.94e8 to 4.65e8 under
the difference key. The refused radius-6 centre patch would still need
2.7e10 (under the ratio key), above ``WORK_BUDGET``.
"""

from __future__ import annotations

import heapq
import math
from typing import Hashable, Sequence

import numpy as np

from .errors import ArgumentError, SizeBudgetError

__all__ = ["as_tensor", "contract_network"]

# Largest intermediate of any contraction, in entries of either dtype.
DEFAULT_BUDGET = 2**26
# Largest plan, in multiply-adds of either dtype, that a contraction may run
# (about 1.7e10: about 1.1 s real and 3.9 s complex at the rates in the
# module docstring).
WORK_BUDGET = 2**34
# A first plan above this many multiply-adds is planned again under two
# more greedy keys (see the module docstring). Measured on each distinct
# network that the benchmark's seed-1 patch-2d and oracle-2d queries
# contract (one BLAS thread of a 2-core x86 machine): the two passes take
# 1.8-8.4 ms on 20-61 nodes. Each of the nine networks between 2**23 and
# 2**26 multiply-adds lost 1.4-6.0 ms to them, an l=4 pair at 6.3e7
# included. Above 2**26 the 5x4 D=2 single layer gained 39 ms and each
# radius-5 centre patch 25 ms; the worst case lost 6 ms of a 170 ms
# contraction.
REPLAN_MADDS = 2**26


def as_tensor(data) -> np.ndarray:
    """Coerce to a C-contiguous complex128 ndarray of the same rank (0-d stays 0-d)."""
    return np.asarray(data, dtype=np.complex128, order="C")


class _Node:
    __slots__ = ("order", "tensor", "labels")

    def __init__(self, order, tensor, labels):
        self.order = order
        self.tensor = tensor
        self.labels = labels


def contract_network(
    tensors: Sequence[np.ndarray],
    labels: Sequence[Sequence[Hashable]],
    output: Sequence[Hashable] | None = None,
) -> np.ndarray:
    """Contract a labelled tensor network.

    A plan with an intermediate over ``DEFAULT_BUDGET`` entries, or over
    ``WORK_BUDGET`` multiply-adds, is refused with ``SizeBudgetError``
    before any arithmetic.

    Args:
        tensors: the network tensors.
        labels: per-tensor leg labels, aligned with tensor axes. Every label
            must occur at most twice across the whole network, never twice
            on one tensor; paired legs must have equal extents.
        output: the open labels in the desired output axis order. Required
            whenever open labels exist; a scalar network may omit it.

    Returns:
        The contracted tensor with axes ordered as ``output`` (a 0-d array
        for scalar networks), float64 if every input is real, else
        complex128.
    """
    if len(tensors) != len(labels):
        raise ArgumentError("tensors and labels must have equal length")
    if not tensors:
        raise ArgumentError("empty network")

    dtype = np.float64 if all(map(np.isrealobj, tensors)) else np.complex128
    nodes = []
    for k, (t, ls) in enumerate(zip(tensors, labels)):
        t = np.asarray(t, dtype=dtype, order="C")
        if t.ndim != len(ls):
            raise ArgumentError(f"tensor {k} has rank {t.ndim} but {len(ls)} labels")
        if len(set(ls)) != len(ls):
            raise ArgumentError(f"tensor {k} repeats a label in {list(ls)!r}")
        nodes.append(_Node(k, t, list(ls)))

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
    plan = _plan([list(n.labels) for n in nodes], extents, DEFAULT_BUDGET)
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

    The first pass is keyed by result size and alone decides refusal: with
    a budget, an intermediate above it or a plan above ``WORK_BUDGET``
    multiply-adds raises ``SizeBudgetError``. An accepted first plan above
    ``REPLAN_MADDS`` multiply-adds is planned again under the keys
    size(out) - size(a) - size(b) and size(out) / (size(a) + size(b)); the
    plan returned is the one with the fewest multiply-adds among those
    whose peak intermediate is no larger than the first plan's, the first
    plan on a tie.
    """
    steps, peak, madds = _greedy(node_labels, extents, budget, _by_size)
    if budget is not None and madds > WORK_BUDGET:
        msg = f"contraction plan of {madds} multiply-adds exceeds work budget {WORK_BUDGET}"
        raise SizeBudgetError(msg, predicted_size=madds)
    if madds <= REPLAN_MADDS:
        return steps
    best = (madds, steps)
    for key in (_by_size_removed, _by_size_ratio):
        other, other_peak, other_madds = _greedy(node_labels, extents, None, key)
        if other_peak <= peak and other_madds < best[0]:
            best = (other_madds, other)
    return best[1]


def _by_size(out: int, a: int, b: int):
    return out


def _by_size_removed(out: int, a: int, b: int):
    return out - a - b


def _by_size_ratio(out: int, a: int, b: int):
    return out / max(a + b, 1)  # two zero-extent nodes have a + b == 0


def _greedy(node_labels: list[list], extents: dict, budget: int | None, key) -> tuple[list, int, int]:
    """One greedy pass: ``(steps, peak intermediate, multiply-adds)``.

    Candidate pairs are the live nodes that share a label. They sit in a
    heap keyed by ``(key(result size, size a, size b), a, b)`` with
    ``a < b``, so each step takes the pair with the smallest key and breaks
    ties by node ids. A pair's key never changes while both its nodes live,
    so a merge pushes only the new node's pairs with its neighbours, and
    entries naming a merged node are skipped when popped. When no connected
    pair is left, the two smallest nodes (ties by id) are joined by an
    outer product. A pass costs roughly O(steps * degree * log(pairs)).
    With a budget, an intermediate above it raises ``SizeBudgetError``.
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
    peak = madds = 0

    def result_size(i, j):
        size = 1
        for l in live[i] ^ live[j]:
            size *= extents[l]
        return size

    def entry(a, b):
        size = result_size(a, b)
        return key(size, sizes[a], sizes[b]), a, b, size

    pairs = {tuple(sorted(nodes)) for nodes in holders.values() if len(nodes) == 2}
    heap = [entry(a, b) for a, b in pairs]
    heapq.heapify(heap)
    while len(live) > 1:
        while heap and (heap[0][1] not in live or heap[0][2] not in live):
            heapq.heappop(heap)
        if heap:
            _, i, j, size = heapq.heappop(heap)
        else:
            # Disconnected components: outer-product the two smallest.
            i, j = heapq.nsmallest(2, live, key=lambda k: (sizes[k], k))
            size = result_size(i, j)
        if budget is not None and size > budget:
            raise SizeBudgetError(
                f"contraction intermediate of {size} entries exceeds budget {budget}",
                predicted_size=size,
            )
        peak = max(peak, size)
        madds += size * math.prod(extents[l] for l in live[i] & live[j])
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
            heapq.heappush(heap, entry(k, next_id))
        steps.append((i, j))
        next_id += 1
    return steps, peak, madds
