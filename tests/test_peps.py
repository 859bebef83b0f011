import math
import re

import numpy as np
import pytest

from pepskit import network, parent
from pepskit import peps as peps_module
from pepskit.errors import ArgumentError, ModelError, NotInjectiveError
from pepskit.generators import aklt_chain, product_peps, random_injective_peps
from pepskit.lattice import LatticeSpec
from pepskit.network import contract_network
from pepskit.patch import select_patch
from pepskit.peps import PepsState, block, build_state_vector


def identity_pair_peps():
    """1x2 lattice, both tensors the identity map virtual -> physical."""
    lat = LatticeSpec((1, 2))
    tensors = {
        (0, 0): np.eye(2),
        (0, 1): np.eye(2),
    }
    return PepsState(lattice=lat, tensors=tensors)


class TestLattice:
    def test_sites_row_major(self):
        lat = LatticeSpec((2, 3))
        assert lat.sites()[:4] == [(0, 0), (0, 1), (0, 2), (1, 0)]

    def test_edge_count_open_boundary(self):
        lat = LatticeSpec((3, 3))
        assert len(lat.edges()) == 12  # 2 * 3 * 2 per axis, no wraparound

    def test_leg_order_minus_before_plus(self):
        lat = LatticeSpec((3, 3))
        nbs = lat.neighbors((1, 1))
        assert nbs == [(0, 1), (2, 1), (1, 0), (1, 2)]

    def test_engine_rejects_3d(self):
        for extents in [(2, 2, 2), ()]:
            with pytest.raises(ArgumentError, match=f"dimensions 1 and 2, got {len(extents)}"):
                LatticeSpec(extents)

    def test_diameter(self):
        assert LatticeSpec((3, 4)).diameter == 5

    @pytest.mark.parametrize("extents", [(1,), (5,), (1, 4), (3, 4), (4, 1)])
    def test_geometry_matches_coordinate_scan(self, extents):
        lat = LatticeSpec(extents)

        def scan(site):
            out = []
            for axis in range(len(extents)):
                for sign in (-1, 1):
                    nb = list(site)
                    nb[axis] += sign
                    if all(0 <= c < e for c, e in zip(nb, extents)):
                        out.append(tuple(nb))
            return out

        for site in lat.sites():
            assert lat.neighbors(site) == scan(site)
            assert lat.virtual_legs(site) == [tuple(sorted((site, nb))) for nb in scan(site)]
        plus = [(s, nb) for s in lat.sites() for nb in scan(s) if nb > s]
        assert lat.edges() == sorted(plus)

    @pytest.mark.parametrize("site", [(3, 0), (0, -1), (1,), (1, 1, 1)])
    def test_geometry_refuses_a_site_outside(self, site):
        lat = LatticeSpec((3, 3))
        for ask in (lat.neighbors, lat.virtual_legs):
            with pytest.raises(ArgumentError, match="outside lattice with extents"):
                ask(site)

    def test_geometry_results_are_fresh_lists(self):
        lat = LatticeSpec((3, 3))
        lat.neighbors((1, 1)).clear()
        lat.virtual_legs((1, 1)).clear()
        lat.edges().clear()
        assert len(lat.neighbors((1, 1))) == 4
        assert len(lat.virtual_legs((1, 1))) == 4
        assert len(lat.edges()) == 12


class TestBuildStateVector:
    def test_product_peps_is_product_vector(self):
        lat = LatticeSpec((2, 2))
        peps = product_peps(lat, bond_dim=1, phys_dim=2)
        psi = build_state_vector(peps)
        expected = np.zeros((2,) * 4)
        expected[0, 0, 0, 0] = 1.0
        np.testing.assert_allclose(psi, expected, atol=1e-14)

    def test_identity_pair_gives_bell_state(self):
        psi = build_state_vector(identity_pair_peps()).reshape(-1)
        bell = np.array([1.0, 0.0, 0.0, 1.0]) / np.sqrt(2.0)
        np.testing.assert_allclose(psi, bell, atol=1e-14)

    def test_norm_matches_double_layer(self):
        lat = LatticeSpec((2, 2))
        peps = random_injective_peps(lat, 2, 4, 0.3, 11)
        psi = build_state_vector(peps)
        sv_norm = float(np.vdot(psi, psi).real)
        # independent double-layer contraction of <w|w>
        from pepskit.peps import _doubled_network

        t, l = _doubled_network(peps, (), lat.sites(), ())
        raw = complex(contract_network(t, l))
        weight = 1.0
        for e in lat.edges():
            weight /= 2.0
        assert sv_norm == pytest.approx(raw.real * weight, rel=1e-10)

    def test_cutoff_enforced(self, monkeypatch):
        monkeypatch.setattr(network, "DEFAULT_BUDGET", 100)
        lat = LatticeSpec((8,))
        peps = product_peps(lat, 1, 2)
        from pepskit.errors import SizeBudgetError

        with pytest.raises(SizeBudgetError) as err:
            build_state_vector(peps)
        assert err.value.predicted_size == 2**8

    def test_tensors_stored_as_c_contiguous_complex128(self):
        lat = LatticeSpec((2,))
        fortran = np.asfortranarray(np.arange(6.0).reshape(2, 3))
        nested = [[1, 0, 0], [0, 1, 0]]
        peps = PepsState(lattice=lat, tensors={(0,): fortran, (1,): nested})
        for s, given in zip(lat.sites(), (fortran, nested)):
            t = peps.tensors[s]
            assert isinstance(t, np.ndarray)
            assert t.dtype == np.complex128 and t.flags.c_contiguous
            np.testing.assert_array_equal(t, np.asarray(given))
        with pytest.raises(ModelError, match="expected 2 legs, tensor has 3"):
            PepsState(lattice=lat, tensors={(0,): np.ones((2, 3, 1)), (1,): nested})

    def test_mismatched_bond_rejected(self):
        lat = LatticeSpec((2,))
        tensors = {
            (0,): np.ones((2, 2)),
            (1,): np.ones((2, 3)),
        }
        with pytest.raises(ModelError, match="bond dims differ"):
            PepsState(lattice=lat, tensors=tensors)


def _grid_tensors(lat, extent_of, rng):
    """Random site arrays whose leg extents are ``extent_of(edge)``."""
    return {
        s: rng.standard_normal((2,) + tuple(extent_of(e) for e in lat.virtual_legs(s)))
        for s in lat.sites()
    }


def _fused_matrix(ket, kept):
    """ket (x) conj(ket) with the unkept axes summed: kept ket axes, then kept bra axes."""
    letters = "abcdefgh"
    ket_idx = letters[: ket.ndim]
    bra_idx = "".join(c.upper() if ax in kept else c for ax, c in enumerate(ket_idx))
    out = "".join(ket_idx[ax] for ax in kept) + "".join(bra_idx[ax] for ax in kept)
    return np.einsum(f"{ket_idx},{bra_idx}->{out}", ket, ket.conj())


class TestHermitianNode:
    """The fused node's coefficients by their definition, independent of how they are computed.

    With X the fused node as a matrix from bra to ket indices, the
    coefficient of the basis product s_a1 (x) ... (x) s_an is
    c_a = tr((s_a1 (x) ... (x) s_an) X), times -1 per metric leg whose s_ak
    is antisymmetric (s^T = -s).
    """

    KEPT = {"all": [0, 1, 2, 3], "physical-summed": [1, 2, 3], "closed-leg": [0, 1, 3],
            "both": [1, 3]}

    @staticmethod
    def _definition(x, dims, metric):
        n = len(dims)
        ket, bra, coef = "abcd"[:n], "efgh"[:n], "ijkl"[:n]
        terms = [f"{coef[k]}{bra[k]}{ket[k]}" for k in range(n)]
        bases = [peps_module._hermitian_basis(d) for d in dims]
        c = np.einsum(f"{ket}{bra}," + ",".join(terms) + f"->{coef}", x, *bases, optimize=True)
        for k, (s, flip) in enumerate(zip(bases, metric)):
            if flip:
                sign = np.where([np.array_equal(m.T, -m) for m in s], -1.0, 1.0)
                c = c * sign.reshape([-1 if j == k else 1 for j in range(n)])
        return c

    @pytest.mark.parametrize("kept", KEPT.values(), ids=KEPT.keys())
    @pytest.mark.parametrize("d, D", [(2, 2), (2, 3), (3, 2), (3, 3)])
    def test_coefficients_match_the_definition(self, d, D, kept):
        rng = np.random.default_rng(10 * d + D)
        ket = rng.standard_normal((d, D, D, D)) + 1j * rng.standard_normal((d, D, D, D))
        dims = [ket.shape[ax] for ax in kept]
        x = _fused_matrix(ket, kept)
        for metric in ([False] * len(kept), [k % 2 == 1 for k in range(len(kept))], [True] * len(kept)):
            node = peps_module._hermitian_node(ket, kept, metric)
            assert node.dtype == np.float64
            assert node.shape == tuple(n * n for n in dims)
            expected = self._definition(x, dims, metric)
            np.testing.assert_allclose(expected.imag, 0, atol=1e-12 * np.abs(expected).max())
            np.testing.assert_allclose(node, expected.real, rtol=1e-12, atol=1e-13 * np.abs(node).max())

    @pytest.mark.parametrize("kept", KEPT.values(), ids=KEPT.keys())
    @pytest.mark.parametrize("d, D", [(2, 2), (2, 3), (3, 2), (3, 3)])
    def test_hermitian_operator_inverts_the_node(self, d, D, kept):
        rng = np.random.default_rng(10 * d + D + 1)
        ket = rng.standard_normal((d, D, D, D)) + 1j * rng.standard_normal((d, D, D, D))
        x = _fused_matrix(ket, kept)
        op = peps_module._hermitian_operator(peps_module._hermitian_node(ket, kept, [False] * len(kept)))
        np.testing.assert_allclose(op, x, rtol=1e-12, atol=1e-13 * np.abs(x).max())


def _per_site_network(peps, support, patch, closure):
    """The double layer built one ``_hermitian_node`` per site, the reference for the stacks."""
    closure, support, inside = set(closure), set(support), set(patch)
    tensors, labels = [], []
    for s in patch:
        legs = peps.lattice.virtual_legs(s)
        names = [("p", s)] + [("e", e) for e in legs]
        keep = [s in support] + [e not in closure for e in legs]
        metric = [False] + [e[0] == s and e[1] in inside for e in legs]
        kept = [ax for ax in range(len(names)) if keep[ax]]
        tensors.append(peps_module._hermitian_node(peps.tensors[s], kept, [metric[ax] for ax in kept]))
        labels.append([names[ax] for ax in kept])
    return tensors, labels


def _assert_same_network(got, expected):
    assert got[1] == expected[1]
    for node, ref in zip(got[0], expected[0], strict=True):
        assert node.dtype == ref.dtype and node.flags.c_contiguous
        assert np.array_equal(node, ref)


class TestStackedNodes:
    """Stacked fused nodes are bit-for-bit those of ``_hermitian_node``, one site at a time."""

    @pytest.mark.parametrize("d, D", [(2, 2), (2, 3), (3, 2), (3, 3)])
    def test_every_kept_subset_and_metric(self, d, D):
        # Every subset of two or more of the physical axis and four legs, so
        # every closed-leg position, with no, alternating and full metric;
        # stacks of 2 and 3. A class keeping one axis is never stacked.
        rng = np.random.default_rng(10 * d + D)
        shape = (d,) + (D,) * 4
        kets = rng.standard_normal((3,) + shape) + 1j * rng.standard_normal((3,) + shape)
        for mask in range(1, 2**5):
            kept = [ax for ax in range(5) if mask >> ax & 1]
            if len(kept) == 1:
                assert peps_module._class_layout(shape, tuple(mask >> ax & 1 for ax in range(5)))[2] is None
                continue
            for metric in ([False] * len(kept), [k % 2 == 1 for k in range(len(kept))], [True] * len(kept)):
                for g in (2, 3):
                    nodes = peps_module._hermitian_nodes(kets[:g], kept, metric)
                    for k in range(g):
                        assert np.array_equal(nodes[k], peps_module._hermitian_node(kets[k], kept, metric))

    @pytest.mark.parametrize("d, D", [(2, 2), (2, 3), (3, 2), (3, 3)])
    @pytest.mark.parametrize("extents", [(6, 5), (9,)], ids=["2d", "1d"])
    def test_patches_equal_the_per_site_build(self, extents, d, D):
        # Every radius from 0 to the diameter around a corner, an edge site, a
        # bulk site and a pair: support sites keep their physical leg, and
        # every boundary site closes its own set of legs.
        lat = LatticeSpec(extents)
        peps = random_injective_peps(lat, D, d, 0.5, 3)
        sites = lat.sites()
        supports = [[sites[0]], [sites[len(sites) // 2]], [sites[-2], sites[-1]]]
        if len(extents) == 2:
            # An edge site, a bulk pair, and two sites apart, whose small
            # patches have tips alike that keep one leg each: a class that is
            # built one site at a time.
            supports += [[(0, 2)], [(2, 2), (2, 3)], [(2, 0), (2, 4)]]
        for support in supports:
            for ell in range(lat.diameter + 1):
                patch = select_patch(lat, support, ell)
                args = (peps, support, patch.sites, patch.crossing_edges)
                _assert_same_network(peps_module._doubled_network(*args), _per_site_network(*args))

    @pytest.mark.parametrize("D", [2, 3])
    def test_transfer_strips_keep_their_open_legs(self, D):
        # A strip's left and right legs leave the patch unclosed, with no metric.
        lat = LatticeSpec((5, 4))
        peps = random_injective_peps(lat, D, 2, 0.5, 4)
        for width in range(1, 6):
            sites = [(r, 2) for r in range(width)]
            leaving = [(sites[-1], (width, 2))] if width < 5 else []
            args = (peps, (), sites, leaving)
            _assert_same_network(peps_module._doubled_network(*args), _per_site_network(*args))

    def test_class_splits_at_the_stack_bound(self, monkeypatch):
        # The 4 x 4 bulk of a 6 x 6 grid outside the support: 15 sites of one
        # class, each X of 256 entries. A bound of 7 such X gives stacks of 7
        # and 7, and the last site is built alone. Each edge's 4 sites are a
        # class; the corners and the support are built alone.
        lat = LatticeSpec((6, 6))
        peps = random_injective_peps(lat, 2, 2, 0.5, 5)
        args = (peps, [(2, 2)], lat.sites(), ())
        stacks, singles = [], []
        stacked, single = peps_module._hermitian_nodes, peps_module._hermitian_node
        monkeypatch.setattr(peps_module, "_hermitian_nodes", lambda k, *a: stacks.append(len(k)) or stacked(k, *a))
        monkeypatch.setattr(peps_module, "_hermitian_node", lambda k, *a: singles.append(k.shape) or single(k, *a))
        monkeypatch.setattr(peps_module, "STACK_ENTRIES", 7 * 256)
        got = peps_module._doubled_network(*args)
        assert sorted(stacks) == [4, 4, 4, 4, 7, 7]
        assert sorted(singles) == [(2, 2, 2)] * 4 + [(2, 2, 2, 2, 2)] * 2
        monkeypatch.setattr(peps_module, "_hermitian_node", single)
        _assert_same_network(got, _per_site_network(*args))

    def test_a_node_table_is_reused_and_filled(self):
        lat = LatticeSpec((5, 5))
        peps = random_injective_peps(lat, 2, 2, 0.5, 6)
        nodes = {}
        patch = select_patch(lat, [(2, 2)], 1)
        first = peps_module._doubled_network(peps, [(2, 2)], patch.sites, patch.crossing_edges, nodes=nodes)
        assert len(nodes) == 5
        again = peps_module._doubled_network(peps, [(2, 2)], patch.sites, patch.crossing_edges, nodes=nodes)
        assert all(a is b for a, b in zip(first[0], again[0], strict=True))
        assert len(nodes) == 5


def _with_axis(tensors, site, axis, extent):
    """``tensors`` with one axis of one site's array resized to ``extent``."""
    shape = list(tensors[site].shape)
    shape[axis] = extent
    return {**tensors, site: np.ones(shape)}


def _reference_check(lat, tensors):
    """The state check as one loop over each site's legs: the first fault's message, or None."""
    bond_dims, differ = {}, []
    for s in lat.sites():
        t, legs = tensors[s], lat.virtual_legs(s)
        if t.ndim != 1 + len(legs):
            return f"site {s}: expected {1 + len(legs)} legs, tensor has {t.ndim}"
        if 0 in t.shape:
            return f"site {s}: zero extent in shape {t.shape}"
        for e, d in zip(legs, t.shape[1:]):
            if e[0] == s:
                bond_dims[e] = d
            elif bond_dims[e] != d:
                differ.append((e, bond_dims[e], d))
    if differ:
        (u, v), du, dv = min(differ)
        return f"edge {(u, v)}: bond dims differ, {du} vs {dv}"
    return None


class TestStateCheck:
    """The check of leg counts, zero extents and shared bond extents on a grid."""

    @pytest.mark.parametrize("extents", [(7,), (3, 4), (4, 1)])
    def test_vectorised_check_matches_the_loop(self, extents):
        lat = LatticeSpec(extents)
        rng = np.random.default_rng(sum(extents))
        for _ in range(60):
            extent = {e: int(rng.integers(1, 4)) for e in lat.edges()}
            tensors = {s: np.ones((2,) + tuple(extent[e] for e in lat.virtual_legs(s))) for s in lat.sites()}
            for _ in range(int(rng.integers(0, 4))):
                s = lat.sites()[rng.integers(lat.n_sites)]
                shape = list(tensors[s].shape)
                fault = rng.integers(3)
                if fault == 0:
                    shape.append(2)  # one axis too many
                elif fault == 1 or len(shape) == 1:
                    shape[rng.integers(len(shape))] = 0
                else:
                    shape[rng.integers(1, len(shape))] += 1
                tensors[s] = np.ones(shape)
            expected = _reference_check(lat, tensors)
            if expected is None:
                PepsState(lattice=lat, tensors=tensors)
            else:
                with pytest.raises(ModelError) as err:
                    PepsState(lattice=lat, tensors=tensors)
                assert str(err.value) == expected

    def test_lattice_arrays_built_once_per_shape(self):
        layout = peps_module._shape_layout((3, 4))
        assert peps_module._shape_layout((3, 4)) is layout
        assert not any(a.flags.writeable for a in layout)

    lat = LatticeSpec((3, 3))
    # Leg order of (1, 1): up, down, left, right, after the physical axis.
    UP, LEFT = 1, 3

    def _uniform(self):
        return _grid_tensors(self.lat, lambda e: 2, np.random.default_rng(0))

    @pytest.mark.parametrize(
        "axis, message",
        [
            (LEFT, "edge ((1, 0), (1, 1)): bond dims differ, 2 vs 3"),
            (UP, "edge ((0, 1), (1, 1)): bond dims differ, 2 vs 3"),
        ],
        ids=["horizontal", "vertical"],
    )
    def test_mismatch_names_the_edge(self, axis, message):
        tensors = _with_axis(self._uniform(), (1, 1), axis, 3)
        with pytest.raises(ModelError) as err:
            PepsState(lattice=self.lat, tensors=tensors)
        assert str(err.value) == message

    def test_smallest_mismatched_edge_is_reported(self):
        # ((0, 1), (0, 2)) is met first in site order, ((0, 0), (1, 0)) sorts first.
        tensors = _with_axis(self._uniform(), (0, 2), 2, 3)  # (0, 2): down, left, ...
        tensors = _with_axis(tensors, (1, 0), 1, 4)
        with pytest.raises(ModelError) as err:
            PepsState(lattice=self.lat, tensors=tensors)
        assert str(err.value) == "edge ((0, 0), (1, 0)): bond dims differ, 2 vs 4"

    def test_leg_count_is_reported_before_a_bond(self):
        tensors = _with_axis(self._uniform(), (0, 1), 1, 3)
        tensors[(2, 2)] = np.ones((2, 2, 2, 2))
        with pytest.raises(ModelError) as err:
            PepsState(lattice=self.lat, tensors=tensors)
        assert str(err.value) == "site (2, 2): expected 3 legs, tensor has 4"

    @pytest.mark.parametrize("axis", [0, UP], ids=["physical", "bond"])
    def test_zero_extent_refused(self, axis):
        tensors = _with_axis(self._uniform(), (1, 1), axis, 0)
        with pytest.raises(ModelError) as err:
            PepsState(lattice=self.lat, tensors=tensors)
        assert str(err.value).startswith("site (1, 1): zero extent in shape")

    def test_edge_volume_reads_the_arrays(self):
        edges = self.lat.edges()
        extent = {e: 1 + k % 3 for k, e in enumerate(edges)}
        tensors = _grid_tensors(self.lat, extent.get, np.random.default_rng(1))
        peps = PepsState(lattice=self.lat, tensors=tensors)

        def read_off(e):
            u, v = e
            du = peps.tensors[u].shape[1 + self.lat.virtual_legs(u).index(e)]
            dv = peps.tensors[v].shape[1 + self.lat.virtual_legs(v).index(e)]
            assert du == dv
            return du

        assert peps.edge_volume(edges) == math.prod(read_off(e) for e in edges) == 2**4 * 3**4
        for e in edges:
            assert peps.edge_volume([e]) == read_off(e)
        assert peps.edge_volume([]) == 1


class TestInjectivity:
    # The injectivity rule lives in the parent-Hamiltonian window terms.
    def test_duplicated_columns_not_injective(self):
        col = np.array([1.0, 2.0, 3.0])
        m = np.stack([col, col], axis=1)
        chain = PepsState(lattice=LatticeSpec((2,)), tensors={(0,): m, (1,): np.eye(2)})
        with pytest.raises(NotInjectiveError, match=r"window 0\.\.0 not injective") as exc:
            parent._window_term(chain, 0, 1)
        sigma_min = float(re.search(r"sigma_min=([^,]+),", str(exc.value)).group(1))
        assert sigma_min < 1e-12

    def test_aklt_injective_only_after_blocking(self):
        chain = aklt_chain(6)
        with pytest.raises(NotInjectiveError):  # d=3 < D^2=4
            parent._window_term(chain, 2, 1)
        term = parent._window_term(chain, 2, 2)
        assert term.support == (2, 3)
        bt = block(chain, [(2,), (3,)])
        s = np.linalg.svd(bt.reshape(bt.shape[0], -1), compute_uv=False)
        assert s[0] / s[-1] == pytest.approx(np.sqrt(1.5), rel=1e-10)


class TestBlock:
    def test_single_site_unchanged(self):
        lat = LatticeSpec((3,))
        peps = random_injective_peps(lat, 2, 2, 0.1, 3)
        bt = block(peps, [(1,)])
        np.testing.assert_array_equal(bt, peps.tensors[(1,)])

    def test_two_product_sites_tensor_product(self):
        lat = LatticeSpec((2,))
        peps = product_peps(lat, bond_dim=1, phys_dim=2)
        bt = block(peps, [(0,), (1,)])
        chi = np.array([1.0, 0.0])
        np.testing.assert_allclose(bt.reshape(2, 2), np.outer(chi, chi), atol=1e-14)

    def test_two_aklt_sites_full_virtual_rank(self):
        chain = aklt_chain(6)
        bt = block(chain, [(2,), (3,)])
        m = bt.reshape(bt.shape[0], -1)
        s = np.linalg.svd(m, compute_uv=False)
        assert int(np.sum(s > 1e-8 * s[0])) == 4

    def test_blocked_dominoes_reproduce_state(self):
        # rebuilding from 1x2 blocks must give the same physical state
        lat = LatticeSpec((4,))
        peps = random_injective_peps(lat, 2, 2, 0.2, 9)
        full = build_state_vector(peps).reshape(-1)
        blocks = [block(peps, [(2 * i,), (2 * i + 1,)]) for i in range(2)]
        coarse_lat = LatticeSpec((2,))
        coarse = {(i,): blocks[i] for i in range(2)}
        coarse_state = build_state_vector(
            PepsState(lattice=coarse_lat, tensors=coarse)
        ).reshape(-1)
        assert np.linalg.norm(coarse_state - full) <= 1e-10 * np.linalg.norm(full)


class TestGenerators:
    def test_product_expectation(self):
        lat = LatticeSpec((3, 3))
        peps = random_injective_peps(lat, 2, 2, 0.0, 0)
        psi = build_state_vector(peps)
        assert np.linalg.norm(psi) == pytest.approx(1.0, abs=1e-12)

    def test_seed_determinism(self):
        lat = LatticeSpec((2, 3))
        a = random_injective_peps(lat, 2, 2, 0.1, 7)
        b = random_injective_peps(lat, 2, 2, 0.1, 7)
        c = random_injective_peps(lat, 2, 2, 0.1, 8)
        for s in lat.sites():
            np.testing.assert_array_equal(a.tensors[s], b.tensors[s])
        assert any(
            not np.array_equal(a.tensors[s], c.tensors[s]) for s in lat.sites()
        )

    def test_eta_must_be_nonnegative(self):
        with pytest.raises(ArgumentError):
            random_injective_peps(LatticeSpec((2,)), 2, 2, -0.1, 0)

    def test_aklt_shape(self):
        chain = aklt_chain(5)
        assert chain.tensors[(0,)].shape == (3, 2)
        assert chain.tensors[(2,)].shape == (3, 2, 2)
        assert chain.tensors[(4,)].shape == (3, 2)

    def test_aklt_rejects_short_chain(self):
        with pytest.raises(ArgumentError):
            aklt_chain(1)
