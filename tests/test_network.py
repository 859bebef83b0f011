import itertools
import math
import string
from collections import OrderedDict

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from pepskit import network
from pepskit.errors import ArgumentError, SizeBudgetError
from pepskit.generators import random_injective_peps
from pepskit.lattice import LatticeSpec
from pepskit.network import DEFAULT_BUDGET, REPLAN_MADDS, _plan, contract_network
from pepskit.observables import PAULI, Observable
from pepskit.peps import _doubled_network
from pepskit.patch import select_patch


def _rand(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def test_matrix_chain_matches_einsum():
    rng = np.random.default_rng(0)
    a, b, c = _rand(rng, (3, 4)), _rand(rng, (4, 5)), _rand(rng, (5, 6))
    out = contract_network(
        [a, b, c],
        [["i", "j"], ["j", "k"], ["k", "l"]],
        output=["i", "l"],
    )
    np.testing.assert_allclose(out, a @ b @ c, rtol=1e-12)


def test_scalar_network():
    rng = np.random.default_rng(1)
    v = _rand(rng, (7,))
    out = contract_network([v, v.conj()], [["i"], ["i"]])
    assert out.shape == ()
    assert complex(out) == pytest.approx(np.vdot(v, v).conjugate())


def test_zero_dim_tensor_stays_scalar():
    v = np.array([1.0, -2.0, 3.0j])
    out = contract_network([np.array(2.0), v], [[], ["a"]], output=["a"])
    np.testing.assert_array_equal(out, 2.0 * v)


def test_output_order_respected():
    rng = np.random.default_rng(2)
    a = _rand(rng, (2, 3, 4))
    out = contract_network([a], [["x", "y", "z"]], output=["z", "x", "y"])
    np.testing.assert_array_equal(out, np.transpose(a, (2, 0, 1)))


def test_disconnected_components_outer_product():
    rng = np.random.default_rng(3)
    a, b = _rand(rng, (2,)), _rand(rng, (3,))
    out = contract_network([a, b], [["i"], ["j"]], output=["i", "j"])
    np.testing.assert_allclose(out, np.outer(a, b), rtol=1e-12)


def test_same_tensor_trace():
    # A trace inside one tensor is the builder's job; the label would
    # otherwise be left on the result.
    rng = np.random.default_rng(4)
    a = _rand(rng, (3, 4, 3))
    with pytest.raises(ArgumentError, match="repeats a label"):
        contract_network([a], [["i", "j", "i"]], output=["j"])


def test_five_tensor_grid_matches_einsum():
    rng = np.random.default_rng(5)
    shapes = [(2, 3), (3, 4, 2), (4, 5), (2, 5, 2), (2, 2)]
    labels = [["a", "b"], ["b", "c", "d"], ["c", "e"], ["d", "e", "f"], ["f", "g"]]
    tensors = [_rand(rng, s) for s in shapes]
    out = contract_network(tensors, labels, output=["a", "g"])
    ref = np.einsum("ab,bcd,ce,def,fg->ag", *tensors)
    np.testing.assert_allclose(out, ref, rtol=1e-12)


def test_budget_checked_before_execution(monkeypatch):
    monkeypatch.setattr(network, "DEFAULT_BUDGET", 32)
    a = np.ones((8, 8))
    b = np.ones((8, 8))
    with pytest.raises(SizeBudgetError) as err:
        contract_network([a, b], [["i", "j"], ["j", "k"]], output=["i", "k"])
    assert err.value.predicted_size == 64


def test_label_appearing_three_times_rejected():
    a = np.ones((2,))
    with pytest.raises(ArgumentError, match="more than twice"):
        contract_network([a, a, a], [["i"], ["i"], ["i"]])


def test_extent_mismatch_rejected():
    with pytest.raises(ArgumentError, match="mismatched extents"):
        contract_network([np.ones((2,)), np.ones((3,))], [["i"], ["i"]])


def test_open_labels_require_output():
    with pytest.raises(ArgumentError, match="open labels"):
        contract_network([np.ones((2,))], [["i"]])


def test_wrong_output_labels_rejected():
    with pytest.raises(ArgumentError, match="output labels"):
        contract_network([np.ones((2,))], [["i"]], output=["j"])


def test_output_labels_compare_by_equality():
    # np.str_("b") == "b", as every other label test in contract_network counts it.
    rng = np.random.default_rng(9)
    a, b = rng.standard_normal((2, 3)), rng.standard_normal((3, 4))
    out = contract_network([a, b], [["a", "x"], ["x", "b"]], output=[np.str_("b"), "a"])
    np.testing.assert_array_equal(out, np.tensordot(a, b, axes=([1], [0])).T)


def test_deterministic_result_repeated_runs():
    rng = np.random.default_rng(6)
    tensors = [_rand(rng, (2, 2, 2)) for _ in range(4)]
    labels = [["a", "b", "x1"], ["b", "c", "x2"], ["c", "d", "x3"], ["d", "a", "x4"]]
    out1 = contract_network(tensors, labels, output=["x1", "x2", "x3", "x4"])
    out2 = contract_network(tensors, labels, output=["x1", "x2", "x3", "x4"])
    np.testing.assert_array_equal(out1, out2)


def test_contract_basis_inner_product():
    e0 = np.array([1.0, 0.0])
    out = contract_network([e0, e0], [["i"], ["i"]])
    assert out.shape == ()
    assert out == pytest.approx(1.0)


def test_contract_identity_is_identity_map():
    rng = np.random.default_rng(1)
    b = rng.standard_normal((2, 5)) + 1j * rng.standard_normal((2, 5))
    out = contract_network([np.eye(2), b], [["i", "j"], ["j", "k"]], output=["i", "k"])
    np.testing.assert_array_equal(out, b)


def test_contract_ones_matrices():
    out = contract_network(
        [np.ones((2, 3)), np.ones((3, 2))], [["i", "j"], ["j", "k"]], output=["i", "k"]
    )
    np.testing.assert_allclose(out, np.full((2, 2), 3.0))


def test_contract_extent_mismatch_names_axes():
    with pytest.raises(ArgumentError, match="label 'j' has mismatched extents 3 vs 4"):
        contract_network(
            [np.ones((2, 3)), np.ones((4, 2))], [["i", "j"], ["j", "k"]], output=["i", "k"]
        )


def test_contract_axis_out_of_bounds():
    with pytest.raises(ArgumentError, match="rank 2 but 3 labels"):
        contract_network([np.ones((2, 2)), np.ones((2, 2))], [["i", "j", "k"], ["i", "j"]])


def test_contract_result_axis_order():
    rng = np.random.default_rng(2)
    a = rng.standard_normal((2, 3, 4))
    b = rng.standard_normal((4, 5))
    out = contract_network([a, b], [["x", "y", "j"], ["j", "z"]], output=["x", "y", "z"])
    assert out.shape == (2, 3, 5)
    np.testing.assert_allclose(out, np.tensordot(a, b, axes=([2], [0])))


def test_contraction_order_independence():
    rng = np.random.default_rng(8)
    a = rng.standard_normal((3, 4)) + 1j * rng.standard_normal((3, 4))
    b = rng.standard_normal((4, 5)) + 1j * rng.standard_normal((4, 5))
    c = rng.standard_normal((5, 3)) + 1j * rng.standard_normal((5, 3))
    labels = [["i", "j"], ["j", "k"], ["k", "i"]]
    forward = contract_network([a, b, c], labels)
    backward = contract_network([c, b, a], labels[::-1])
    assert abs(forward - backward) < 1e-10 * max(abs(forward), 1.0)
    assert abs(forward - np.trace(a @ b @ c)) < 1e-10 * max(abs(forward), 1.0)


def test_tensor_product_scalars():
    out = contract_network([np.array(2.0), np.array(3.0)], [[], []])
    assert out.shape == ()
    assert out == pytest.approx(6.0)


def test_tensor_product_basis_vectors():
    out = contract_network(
        [np.array([1.0, 0.0]), np.array([0.0, 1.0])], [["i"], ["j"]], output=["i", "j"]
    )
    expected = np.zeros((2, 2))
    expected[0, 1] = 1.0
    np.testing.assert_array_equal(out, expected)


def test_tensor_product_pair_norms_multiply():
    phi = np.array([[1.0, 0.0], [0.0, 1.0]]) / np.sqrt(2.0)  # norm-1 pair
    out = contract_network([phi, phi], [["a", "b"], ["c", "d"]], output=["a", "b", "c", "d"])
    assert out.shape == (2, 2, 2, 2)
    assert np.linalg.norm(out) == pytest.approx(1.0)


# The planner as it was before candidate pairs moved into a heap: every step
# rebuilds all connected pairs and sizes each one. Kept verbatim as the
# reference that the incremental planner's first pass must match step for
# step, in its plans and in its size refusals.
def _reference_plan(node_labels: list[list], extents: dict, budget: int | None) -> list[tuple[int, int]]:
    """Greedy pairwise contraction order over shapes; returns node-id pairs.

    Candidate pairs are only nodes sharing a label, found through a
    label-to-node index, so planning stays fast on large networks.
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
        shared = live[i] & live[j]
        size = 1
        for l in (live[i] | live[j]) - shared:
            size *= extents[l]
        return size

    while len(live) > 1:
        pairs = set()
        for l, nodes in holders.items():
            if len(nodes) == 2:
                a, b = sorted(nodes)
                pairs.add((a, b))
        if pairs:
            best = min(pairs, key=lambda p: (result_size(*p), p))
            i, j = best
        else:
            # Disconnected components: outer-product the two smallest.
            i, j = sorted(live, key=lambda k: (sizes[k], k))[:2]
        size = result_size(i, j)
        if budget is not None and size > budget:
            raise SizeBudgetError(
                f"contraction intermediate of {size} complex entries exceeds budget {budget}",
                predicted_size=size,
            )
        merged = (live[i] | live[j]) - (live[i] & live[j])
        for l in live[i] | live[j]:
            holder = holders[l]
            holder.discard(i)
            holder.discard(j)
            if l in merged:
                holder.add(next_id)
            elif not holder:
                del holders[l]
        del live[i], live[j]
        live[next_id] = merged
        sizes[next_id] = size
        steps.append((i, j))
        next_id += 1
    return steps


@st.composite
def networks(draw, max_nodes=12, max_extent=4, max_bonds=24, max_open=2):
    """Node label lists and extents of a random network.

    Connected draws start from a random spanning tree; every draw adds
    random bonds, and a bond may carry several labels between one pair of
    nodes. Each label appears on at most two nodes, as in contract_network.
    A node may be left without labels, which makes it a 0-d tensor.
    """
    n = draw(st.integers(2, max_nodes))
    node = st.integers(0, n - 1)
    bonds = []
    if draw(st.booleans()):
        bonds += [(draw(st.integers(0, k - 1)), k) for k in range(1, n)]
    bonds += draw(
        st.lists(st.tuples(node, node).filter(lambda p: p[0] != p[1]), max_size=max_bonds - len(bonds))
    )
    labels = [[] for _ in range(n)]
    extents = {}
    for b, (i, j) in enumerate(bonds):
        for k in range(draw(st.integers(1, 3))):
            labels[i].append(("b", b, k))
            labels[j].append(("b", b, k))
    for i in range(n):
        for k in range(draw(st.integers(0, max_open))):
            labels[i].append(("o", i, k))
    for ls in labels:
        for l in ls:
            extents[l] = draw(st.integers(1, max_extent))
    labels = [draw(st.permutations(ls)) for ls in labels]
    return labels, extents


def _plan_or_refusal(plan, labels, extents, budget):
    try:
        return plan(labels, extents, budget)
    except SizeBudgetError as exc:
        return ("refused", exc.predicted_size)


def _replay(node_labels, extents, steps):
    """(peak intermediate, multiply-adds) of executing ``steps`` on shapes."""
    live = {i: set(ls) for i, ls in enumerate(node_labels)}
    peak = madds = 0
    for k, (i, j) in enumerate(steps):
        a, b = live.pop(i), live.pop(j)
        size = math.prod(extents[l] for l in a ^ b)
        peak = max(peak, size)
        madds += size * math.prod(extents[l] for l in a & b)
        live[len(node_labels) + k] = a ^ b
    return peak, madds


def _assert_plan_against_reference(labels, extents, budget):
    """The reference steps at or under REPLAN_MADDS, else no more work and no larger peak."""
    steps = _plan(labels, extents, budget)
    reference = _reference_plan(labels, extents, budget)
    ref_peak, ref_madds = _replay(labels, extents, reference)
    if ref_madds <= REPLAN_MADDS:
        assert steps == reference
    else:
        peak, madds = _replay(labels, extents, steps)
        assert madds <= ref_madds and peak <= ref_peak
    return steps


@given(networks())
def test_plan_matches_reference(net):
    labels, extents = net
    _assert_plan_against_reference(labels, extents, None)


@given(networks(), st.integers(1, 256))
def test_plan_refuses_like_reference_under_tight_budget(net, budget):
    labels, extents = net
    assert _plan_or_refusal(_plan, labels, extents, budget) == _plan_or_refusal(
        _reference_plan, labels, extents, budget
    )


def _rho_network_12x12(ell):
    """Labels and extents of the seed-1 12x12 D=2 rho_X network at (6,6), radius ``ell``."""
    lat = LatticeSpec((12, 12))
    peps = random_injective_peps(lat, 2, 2, 0.3, 1)
    obs = Observable(sites=((6, 6),), matrix=PAULI["pauli-z"])
    patch = select_patch(lat, obs.sites, ell)
    tensors, labels = _doubled_network(
        peps, obs.sites, patch=patch.sites, closure=patch.crossing_edges
    )
    extents = {l: d for t, ls in zip(tensors, labels) for l, d in zip(ls, t.shape)}
    return labels, extents


def test_plan_matches_reference_on_12x12_patch_networks():
    labels, extents = _rho_network_12x12(4)
    steps = _plan(labels, extents, DEFAULT_BUDGET)
    assert len(steps) == len(labels) - 1
    assert steps == _reference_plan(labels, extents, DEFAULT_BUDGET)


def test_plan_of_12x12_radius_5_network_takes_the_cheaper_order():
    labels, extents = _rho_network_12x12(5)
    steps = _assert_plan_against_reference(labels, extents, DEFAULT_BUDGET)
    assert _replay(labels, extents, steps)[1] <= 4.7e8  # the first pass alone: 6.94e8


def test_plan_of_5x4_single_layer_takes_the_cheaper_order():
    lat = LatticeSpec((5, 4))
    peps = random_injective_peps(lat, 2, 2, 0.3, 1)
    labels = [[("p", s)] + [("e", e) for e in lat.virtual_legs(s)] for s in lat.sites()]
    extents = {
        l: d for s, ls in zip(lat.sites(), labels) for l, d in zip(ls, peps.tensors[s].shape)
    }
    steps = _assert_plan_against_reference(labels, extents, None)
    peak, madds = _replay(labels, extents, steps)
    assert peak == 2**20 and madds <= 1.8e7  # the first pass alone: 1.43e8


@given(
    networks(max_nodes=5, max_extent=3, max_bonds=4, max_open=1),
    st.integers(0, 2**32 - 1),
    st.booleans(),
)
def test_contract_network_matches_einsum(net, seed, real):
    labels, extents = net
    rng = np.random.default_rng(seed)
    draw = rng.standard_normal if real else lambda shape: _rand(rng, shape)
    tensors = [draw([extents[l] for l in ls]) for ls in labels]
    output = sorted((l for ls in labels for l in ls if l[0] == "o"), key=repr)
    letter = dict(zip(extents, string.ascii_letters))
    subscripts = ",".join("".join(letter[l] for l in ls) for ls in labels)
    subscripts += "->" + "".join(letter[l] for l in output)
    out = contract_network(tensors, labels, output=output or None)
    assert out.dtype == (np.float64 if real else np.complex128)
    ref = np.einsum(subscripts, *tensors, optimize=True)
    np.testing.assert_allclose(out, ref, rtol=1e-10, atol=1e-10 * max(1.0, np.abs(ref).max()))


@pytest.fixture
def fresh_memo(monkeypatch):
    """Empty plan and program memos for one test."""
    monkeypatch.setattr(network, "_plans", OrderedDict())
    monkeypatch.setattr(network, "_programs", OrderedDict())


def _seed1_12x12_rho_network(site, ell):
    """Tensors, labels and output of the seed-1 12x12 D=2 rho_X network at ``site``."""
    lat = LatticeSpec((12, 12))
    peps = random_injective_peps(lat, 2, 2, 0.3, 1)
    patch = select_patch(lat, (site,), ell)
    tensors, labels = _doubled_network(peps, (site,), patch=patch.sites, closure=patch.crossing_edges)
    counts = {}
    for l in itertools.chain.from_iterable(labels):
        counts[l] = counts.get(l, 0) + 1
    return tensors, labels, [l for l, c in counts.items() if c == 1]


def test_translated_networks_plan_once(fresh_memo, monkeypatch):
    greedy_calls = []
    greedy = network._greedy
    monkeypatch.setattr(network, "_greedy", lambda *a: greedy_calls.append(1) or greedy(*a))
    first = _seed1_12x12_rho_network((6, 6), 3)
    second = _seed1_12x12_rho_network((5, 6), 3)
    contract_network(*first)
    assert greedy_calls
    greedy_calls.clear()
    hit = contract_network(*second)
    assert not greedy_calls
    network._plans.clear()
    network._programs.clear()
    cold = contract_network(*second)
    assert greedy_calls
    assert hit.dtype == cold.dtype and hit.shape == cold.shape
    assert np.array_equal(hit, cold)


def test_memoised_structure_still_reads_the_limits(fresh_memo, monkeypatch):
    # A 5-matrix chain whose plan changes once every plan is replanned.
    dims = [7, 5, 4, 3, 4, 4]
    labels = [[f"l{k}", f"l{k + 1}"] for k in range(5)]
    rng = np.random.default_rng(10)
    tensors = [rng.standard_normal((dims[k], dims[k + 1])) for k in range(5)]
    plans, dots = [], []
    plan, dot = network._plan, np.dot
    monkeypatch.setattr(network, "_plan", lambda *a: plans.append(plan(*a)) or plans[-1])
    monkeypatch.setattr(np, "dot", lambda a, b: dots.append((a.shape, b.shape)) or dot(a, b))
    first = contract_network(tensors, labels, output=["l0", "l5"])
    first_dots = dots[:]
    np.testing.assert_array_equal(contract_network(tensors, labels, output=["l0", "l5"]), first)
    assert plans[0] == plans[1] and dots == 2 * first_dots

    # The new plan is the one executed: its products have other shapes.
    dots.clear()
    with monkeypatch.context() as m:
        m.setattr(network, "REPLAN_MADDS", 0)
        replanned = contract_network(tensors, labels, output=["l0", "l5"])
    assert plans[-1] != plans[0] and dots != first_dots
    np.testing.assert_allclose(replanned, first, rtol=1e-12)

    for name, match in (("DEFAULT_BUDGET", "entries exceeds budget 8"), ("WORK_BUDGET", "multiply-adds")):
        with monkeypatch.context() as m:
            m.setattr(network, name, 8)
            for _ in range(2):
                with pytest.raises(SizeBudgetError, match=match):
                    contract_network(tensors, labels, output=["l0", "l5"])
    np.testing.assert_array_equal(contract_network(tensors, labels, output=["l0", "l5"]), first)


@pytest.mark.parametrize(
    "tensors, labels, output, match",
    [
        ([np.ones((2, 3)), np.ones((3, 4)), np.ones(3)], [["i", "j"], ["j", "k"], ["j"]], ["i", "k"],
         "label 'j' appears more than twice"),
        ([np.ones((2, 3)), np.ones((5, 4))], [["i", "j"], ["j", "k"]], ["i", "k"],
         "label 'j' has mismatched extents 3 vs 5"),
        ([np.ones((2, 3)), np.ones((3, 4))], [["i", "j"], ["j", "k"]], ["i", "j"], "output labels"),
        ([np.ones((2, 3)), np.ones((3, 4))], [["i", "j"], ["j", "k"]], ["i", "k", "k"], "output labels"),
        ([np.ones((2, 3)), np.ones((3, 4))], [["i", "j"], ["j", "k"]], None, "open labels \\['i', 'k'\\]"),
        ([np.ones((2, 3)), np.ones((3, 4, 1))], [["i", "j"], ["j", "k"]], ["i", "k"], "rank 3 but 2 labels"),
    ],
)
def test_invalid_network_refused_on_every_call(fresh_memo, tensors, labels, output, match):
    valid = contract_network([np.ones((2, 3)), np.ones((3, 4))], [["i", "j"], ["j", "k"]], output=["i", "k"])
    for _ in range(3):
        with pytest.raises(ArgumentError, match=match):
            contract_network(tensors, labels, output=output)
    np.testing.assert_array_equal(
        contract_network([np.ones((2, 3)), np.ones((3, 4))], [["i", "j"], ["j", "k"]], output=["i", "k"]), valid
    )


def test_memo_holds_at_most_its_bound(fresh_memo, monkeypatch):
    monkeypatch.setattr(network, "MEMO_SIZE", 4)
    for n in range(1, 8):
        v = np.arange(float(n))
        assert contract_network([v, v], [["i"], ["i"]]) == v @ v
        assert len(network._plans) == len(network._programs) == min(n, 4)
    # The oldest structures were evicted first: lengths 4 to 7 remain.
    assert [key[1] for key in network._programs] == [((n,), (n,)) for n in range(4, 8)]


def test_every_output_order_matches_einsum(fresh_memo):
    rng = np.random.default_rng(11)
    shapes = [(2, 3, 4), (4, 5), (5, 3, 6)]
    labels = [["a", "x", "y"], ["y", "z"], ["z", "x", "b"]]
    tensors = [_rand(rng, s) for s in shapes]
    for _ in range(2):
        for output in itertools.permutations(["a", "b"]):
            ref = np.einsum(f"axy,yz,zxb->{''.join(output)}", *tensors)
            out = contract_network(tensors, labels, output=list(output))
            np.testing.assert_allclose(out, ref, rtol=1e-12)
    tensors, labels = [_rand(rng, (2, 3, 4))], [["p", "q", "r"]]
    for output in itertools.permutations("pqr"):
        out = contract_network(tensors, labels, output=list(output))
        np.testing.assert_array_equal(out, np.einsum(f"pqr->{''.join(output)}", tensors[0]))


def test_each_contraction_calls_plan_once_with_its_structure(monkeypatch):
    """The profiler's contract: one ``_plan(node_labels, extents, budget)`` call a contraction.

    Its arguments describe the network up to relabelling, and it returns a
    list of ``(i, j)`` node-id pairs, the order the contraction runs.
    """
    calls = []
    plan = network._plan

    def spy(*args):
        calls.append((args, plan(*args)))
        return calls[-1][1]

    monkeypatch.setattr(network, "_plan", spy)
    tensors, labels, output = _seed1_12x12_rho_network((6, 6), 2)
    extents = {l: d for t, ls in zip(tensors, labels) for l, d in zip(ls, t.shape)}
    for k in range(3):
        contract_network(tensors, labels, output=output)
        assert len(calls) == k + 1
        (node_labels, plan_extents, budget), steps = calls[-1]
        assert budget == DEFAULT_BUDGET
        assert type(steps) is list and len(steps) == len(tensors) - 1
        assert all(type(step) is tuple and len(step) == 2 for step in steps)
        assert steps == plan(labels, extents, DEFAULT_BUDGET)
        rename = {}
        for ls, renamed in zip(labels, node_labels):
            assert [rename.setdefault(l, r) for l, r in zip(ls, renamed)] == list(renamed)
        assert len(set(rename.values())) == len(rename)
        assert all(plan_extents[rename[l]] == d for l, d in extents.items())
        assert _replay(node_labels, plan_extents, steps) == _replay(labels, extents, steps)
