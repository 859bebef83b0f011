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
layer the benchmark contracts, the 12-site half of the seed-1 5x4 D=2
state that the oracle cuts in two (2**16 entries, 1.13e6 multiply-adds),
lies far inside both. The work guard exists because a fused double layer
fits far larger patches into the size budget than it can contract in
reasonable time. On a seed-1 12x12 D=2 state the radius-6 patch around a
centre site peaks at exactly 2**26 entries (512 MiB in float64) but
needs 9.2e10 multiply-adds. The largest plan the benchmark workloads
answer, a D=3 pair at radius 3, needs 4.4e9; on one BLAS thread of a
2-core x86 machine (Intel Xeon) its real double layer runs in 0.30 s
(1.5e10 multiply-adds/s), where the complex one took 1.0 s (4.4e9/s). At
the real rate the radius-6 plan would take about 6 s.

A first plan that is accepted and costs more than ``REPLAN_MADDS``
multiply-adds is planned twice more: keyed by size(out) - size(a) -
size(b), opt_einsum's greedy default (Smith & Gray, JOSS 3(26) 753, 2018),
and by size(out) / (size(a) + size(b)). Of the three, the plan with the
fewest multiply-adds whose peak is no larger than the first plan's is
returned, the first plan on a tie; choosing among plans by their flops
follows Gray & Kourtis, Quantum 5, 410 (2021). On seed-1 states, the
whole 5x4 D=2 single layer (``peps.build_state_vector``) falls from 1.43e8
to 1.79e7 multiply-adds under the ratio key, at the same 2**20 peak, and the
12x12 D=2 radius-5 patch around a centre site from 6.94e8 to 4.65e8 under
the difference key. The refused radius-6 centre patch would still need
2.7e10 (under the ratio key), above ``WORK_BUDGET``.

Each network structure is checked, planned and compiled once per process.
``contract_network`` renames the labels to integers in order of first
appearance, in one pass. Its key is the renamed node labels, the tensor
shapes, the renamed output and the three limits ``DEFAULT_BUDGET``,
``WORK_BUDGET`` and ``REPLAN_MADDS``, read at each call. Every check is a
function of that key, so the checks run on a miss only and a hit has
their verdict. ``_plan``, called once per contraction, remembers its
steps under its own key: the renamed labels, their extents, the budget
and the two other limits. A failed check or a ``SizeBudgetError`` is
never remembered, and its message names the caller's labels. Each of the
two memos holds at most ``MEMO_SIZE`` structures and, when full, evicts
the one it stored first. They hold integers and tuples, never an array.
A compiled step is the arithmetic ``np.tensordot`` runs, with its axes
worked out once: transpose each operand, reshape it to a matrix, ``np.dot``
them and reshape the product. Each popped operand is dropped once
reshaped, before its product is allocated. The gain needs a structure to
repeat within one process, as translated patches do in a sweep over
sites; a one-shot command meets each structure once.
"""

from __future__ import annotations

import heapq
import math
from collections import OrderedDict
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
# included. Above 2**26 the whole 5x4 D=2 single layer, which the oracle
# then contracted, gained 39 ms and each radius-5 centre patch 25 ms; the
# worst case lost 6 ms of a 170 ms contraction.
REPLAN_MADDS = 2**26
# Network structures each memo below remembers; a full memo evicts its
# oldest entry. Both memos full of seed-1 12x12 D=2 patch networks (10-50
# nodes, median 26) hold 5.2 MB by tracemalloc, about 750 bytes a node.
MEMO_SIZE = 256

# Plan key -> the steps ``_plan`` returned, as a tuple.
_plans: OrderedDict = OrderedDict()
# Contraction key -> ``(dims, steps, perm)``, as ``_compile`` returns it.
_programs: OrderedDict = OrderedDict()


def as_tensor(data) -> np.ndarray:
    """Coerce to a C-contiguous complex128 ndarray of the same rank (0-d stays 0-d)."""
    return np.asarray(data, dtype=np.complex128, order="C")


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
    arrays = [np.asarray(t, dtype=dtype, order="C") for t in tensors]
    ids, rename = _renamed(labels)
    out_ids = None if output is None else tuple([rename.get(l, -1) for l in output])
    key = (ids, tuple([t.shape for t in arrays]), out_ids, DEFAULT_BUDGET, WORK_BUDGET, REPLAN_MADDS)
    program = _programs.get(key)
    dims = _checked_dims(arrays, labels, ids, out_ids, list(rename)) if program is None else program[0]
    steps = _plan(ids, dims, DEFAULT_BUDGET)
    if program is None:
        program = _compile(ids, dims, steps, out_ids)
        _remember(_programs, key, program)

    _, compiled, perm = program
    live = dict(enumerate(arrays))
    for n, (i, j, perm_a, shape_a, perm_b, shape_b, shape) in enumerate(compiled, len(arrays)):
        # The popped arrays are dropped once reshaped (a copy unless the
        # layout already fits), before np.dot allocates their product.
        a = live.pop(i).transpose(perm_a).reshape(shape_a)
        b = live.pop(j).transpose(perm_b).reshape(shape_b)
        live[n] = np.dot(a, b).reshape(shape)
    (result,) = live.values()
    return result if perm is None else result.transpose(perm)


def _renamed(labels) -> tuple[tuple, dict]:
    """Labels renamed to integers in order of first appearance, and the renaming."""
    rename: dict = {}
    ids = tuple([tuple([rename.setdefault(l, len(rename)) for l in ls]) for ls in labels])
    return ids, rename


def _remember(memo: OrderedDict, key, value) -> None:
    memo[key] = value
    while len(memo) > MEMO_SIZE:
        memo.popitem(last=False)


def _checked_dims(arrays, labels, ids, out_ids, names) -> tuple:
    """Validate a network on its renamed labels; return each label id's extent.

    Every verdict is a function of the contraction key (``ids``, the
    shapes, ``out_ids``); the messages name the caller's labels, ``names``
    being indexed by label id.
    """
    for k, (t, ls) in enumerate(zip(arrays, ids)):
        if t.ndim != len(ls):
            raise ArgumentError(f"tensor {k} has rank {t.ndim} but {len(ls)} labels")
        if len(set(ls)) != len(ls):
            raise ArgumentError(f"tensor {k} repeats a label in {list(labels[k])!r}")
    counts = [0] * len(names)
    dims = [None] * len(names)
    for t, ls in zip(arrays, ids):
        for l, d in zip(ls, t.shape):
            counts[l] += 1
            if counts[l] > 2:
                raise ArgumentError(f"label {names[l]!r} appears more than twice")
            if dims[l] is not None and dims[l] != d:
                raise ArgumentError(f"label {names[l]!r} has mismatched extents {dims[l]} vs {d}")
            dims[l] = d

    open_ids = [l for l, c in enumerate(counts) if c == 1]
    if out_ids is None:
        if open_ids:
            open_labels = [names[l] for l in open_ids]
            raise ArgumentError(f"network has open labels {open_labels!r}; pass output order")
    elif sorted(out_ids) != open_ids:
        raise ArgumentError("output labels do not match the network's open labels")
    return tuple(dims)


def _compile(ids, dims, steps, out_ids) -> tuple:
    """``(dims, compiled steps, output permutation)`` of a planned network; no arrays.

    A compiled step ``(i, j, perm_a, shape_a, perm_b, shape_b, shape)``
    transposes node ``i`` by ``perm_a`` and reshapes it to the matrix shape
    ``shape_a``, node ``j`` likewise, and reshapes their ``np.dot`` to
    ``shape``, the new node: the layouts ``np.tensordot`` derives. The
    labels two nodes share are contracted in the first node's order; the
    product keeps the first node's other labels, then the second's. The
    permutation orders the last node's axes as the output (``None`` when
    there is no output order).
    """
    live = dict(enumerate(ids))
    compiled = []
    for n, (i, j) in enumerate(steps, len(ids)):
        a, b = live.pop(i), live.pop(j)
        shared = [l for l in a if l in b]
        free_a = [l for l in a if l not in shared]
        free_b = [l for l in b if l not in shared]
        inner = math.prod(dims[l] for l in shared)
        compiled.append((
            i, j,
            tuple(map(a.index, free_a + shared)), (math.prod(dims[l] for l in free_a), inner),
            tuple(map(b.index, shared + free_b)), (inner, math.prod(dims[l] for l in free_b)),
            tuple(dims[l] for l in free_a + free_b),
        ))
        live[n] = free_a + free_b
    (final,) = live.values()
    perm = tuple(map(final.index, out_ids)) if out_ids else None
    return dims, tuple(compiled), perm


def _plan(node_labels: Sequence[Sequence[Hashable]], extents, budget: int | None) -> list[tuple[int, int]]:
    """Greedy pairwise contraction order over shapes; returns node-id pairs.

    The steps are remembered per structure key: the labels renamed to
    integers in order of first appearance, their extents, ``budget``,
    ``WORK_BUDGET`` and ``REPLAN_MADDS``. A refusal is never remembered.
    ``extents`` maps each label to its extent (``contract_network`` passes
    integer labels and a tuple indexed by them).
    """
    ids, rename = _renamed(node_labels)
    key = (ids, tuple([extents[l] for l in rename]), budget, WORK_BUDGET, REPLAN_MADDS)
    steps = _plans.get(key)
    if steps is None:
        steps = tuple(_search(ids, key[1], budget))
        _remember(_plans, key, steps)
    return list(steps)


def _search(node_labels, extents, budget: int | None) -> list[tuple[int, int]]:
    """The plan of one structure, searched anew.

    The first pass is keyed by result size and alone decides refusal: with
    a budget, an intermediate above it or a plan above ``WORK_BUDGET``
    multiply-adds raises ``SizeBudgetError``. An accepted first plan above
    ``REPLAN_MADDS`` multiply-adds is planned again under the keys
    size(out) - size(a) - size(b) and size(out) / (size(a) + size(b)); the
    plan returned is the one with the fewest multiply-adds among those
    whose peak intermediate is no larger than the first plan's, the first
    plan on a tie.
    """
    sizes = [math.prod(extents[l] for l in ls) for ls in node_labels]
    steps, peak, madds = _greedy(node_labels, sizes, extents, budget, _by_size)
    if budget is not None and madds > WORK_BUDGET:
        msg = f"contraction plan of {madds} multiply-adds exceeds work budget {WORK_BUDGET}"
        raise SizeBudgetError(msg, predicted_size=madds)
    if madds <= REPLAN_MADDS:
        return steps
    best = (madds, steps)
    for key in (_by_size_removed, _by_size_ratio):
        other, other_peak, other_madds = _greedy(node_labels, sizes, extents, None, key)
        if other_peak <= peak and other_madds < best[0]:
            best = (other_madds, other)
    return best[1]


def _by_size(out: int, a: int, b: int):
    return out


def _by_size_removed(out: int, a: int, b: int):
    return out - a - b


def _by_size_ratio(out: int, a: int, b: int):
    return out / max(a + b, 1)  # two zero-extent nodes have a + b == 0


def _greedy(
    node_labels, node_sizes: list[int], extents: Sequence[int], budget: int | None, key
) -> tuple[list, int, int]:
    """One greedy pass: ``(steps, peak intermediate, multiply-adds)``.

    ``node_sizes`` are the input nodes' entry counts, exact integers that
    ``_plan`` computes once for all its passes.

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
    sizes = dict(enumerate(node_sizes))
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
