import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from pepskit import parent
from pepskit.errors import ArgumentError, NotInjectiveError, NumericalError
from pepskit.generators import aklt_chain, product_peps, random_injective_peps
from pepskit.lattice import LatticeSpec
from pepskit.parent import parent_terms, uniform_gap_scan
from pepskit.peps import build_state_vector


def test_aklt8_scan_has_unique_gapped_ground_state():
    rep = uniform_gap_scan(aklt_chain(8), 8)
    assert rep.chain_length == 8
    assert rep.ground_energy == pytest.approx(0.0, abs=1e-10)
    assert rep.ground_fidelity == pytest.approx(1.0, abs=1e-10)
    assert rep.gap > 0
    assert rep.uniform_min_gap > 0
    assert rep.warning is None


def test_aklt_terms_project_out_the_two_site_image():
    terms = parent_terms(aklt_chain(8))
    assert [t.support for t in terms] == [(i, i + 1) for i in range(7)]
    for t in terms[1:-1]:
        p = t.projector
        np.testing.assert_allclose(p @ p, p, atol=1e-12)
        # two bulk spin-1 sites (dim 9) minus the 4-dim image of the virtual legs
        assert round(np.trace(p).real) == 5


@pytest.mark.parametrize("block_size", [None, 2, 3])
def test_product_chain_is_not_injective(block_size):
    chain = product_peps(LatticeSpec(1, (6,)), bond_dim=2, phys_dim=2)
    with pytest.raises(NotInjectiveError, match="not injective"):
        parent_terms(chain, block_size=block_size)


def test_two_dimensional_state_rejected():
    with pytest.raises(ArgumentError, match="1D"):
        parent_terms(product_peps(LatticeSpec(2, (2, 2))))


# Per-prefix gaps of the two benchmark scans (prefixes 2, 3, ...), as the
# dense solver below dimension 4,096 and ARPACK above computed them.
AKLT8_GAPS = [
    0.999999999999999, 0.6666666666666664, 0.5168367524056058, 0.45394058907057033,
    0.42124291824043475, 0.4020631661257027, 0.38977801311598775,
]
RANDOM7_GAPS = [
    0.9999999999999981, 0.47674242611798706, 0.2476163795262615, 0.11964412765288543,
    0.07798398379332758, 0.03287736725585873,
]


def _random_chain(n=8, bond_dim=2, phys_dim=3):
    return random_injective_peps(LatticeSpec(1, (n,)), bond_dim, phys_dim, eta=1.0, seed=1)


def _prefix_hamiltonian(mps, t):
    prefix = parent._prefix_chain(mps, t)
    dims = [prefix.tensors[(i,)].shape[0] for i in range(t)]
    return parent._assemble_sparse(parent_terms(prefix), dims), prefix


@pytest.mark.parametrize("t", [2, 3, 4, 5])
@pytest.mark.parametrize("model", ["aklt", "random"])
def test_dense_and_iterative_solvers_agree(model, t, monkeypatch):
    """Dims 18 to 486; dense eigh at 1,458 already takes seconds."""
    mps = aklt_chain(8) if model == "aklt" else _random_chain()
    h, prefix = _prefix_hamiltonian(mps, t)
    psi = build_state_vector(prefix).reshape(-1)
    psi = psi / np.linalg.norm(psi)
    results = {}
    for cutoff in (10**9, 0):
        monkeypatch.setattr(parent, "DENSE_CUTOFF", cutoff)
        vals, vecs, solver = parent._two_lowest(h)
        results[solver] = vals, abs(np.vdot(vecs[:, 0], psi)) ** 2
    (dense_vals, dense_fid), (iter_vals, iter_fid) = results["dense"], results["iterative"]
    np.testing.assert_allclose(iter_vals, dense_vals, rtol=0, atol=1e-12)
    assert iter_fid == pytest.approx(dense_fid, abs=1e-12)


@pytest.mark.parametrize(
    "model, max_n, gaps", [("aklt", 8, AKLT8_GAPS), ("random", 7, RANDOM7_GAPS)], ids=["aklt", "random"]
)
def test_benchmark_scans_keep_their_gaps(model, max_n, gaps):
    mps = aklt_chain(8) if model == "aklt" else _random_chain()
    for t, expected in zip(range(2, max_n + 1), gaps, strict=True):
        prefix = parent._prefix_chain(mps, t)
        rep = parent.assemble_and_gap(parent_terms(prefix), prefix)
        assert rep.gap == pytest.approx(expected, abs=1e-12)
        assert rep.ground_energy == pytest.approx(0.0, abs=1e-12)
        assert rep.ground_fidelity == pytest.approx(1.0, abs=1e-12)


def test_aklt8_scan_solves_densely_only_below_cutoff(monkeypatch):
    dims = []
    eigh = np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh", lambda a: dims.append(a.shape[0]) or eigh(a))
    rep = uniform_gap_scan(aklt_chain(8), 8)
    assert dims == [18, 54]
    assert all(d <= parent.DENSE_CUTOFF for d in dims)
    assert rep.solvers == {"dense": 2, "iterative": 5}


def _singlet_chain_terms(n):
    singlet = np.array([0.0, 1.0, -1.0, 0.0]) / np.sqrt(2.0)
    projector = np.outer(singlet, singlet).astype(np.complex128)
    return [parent.LocalTerm(projector=projector, support=(i, i + 1)) for i in range(n - 1)]


def test_degenerate_singlet_chain_seen_on_sparse_path():
    # Sum of nearest-neighbour singlet projectors on 8 spins 1/2: the ground
    # space is the spin-4 multiplet (dim 9) at energy 0.
    chain = product_peps(LatticeSpec(1, (8,)), bond_dim=1, phys_dim=2)
    rep = parent.assemble_and_gap(_singlet_chain_terms(8), chain)
    assert 256 > parent.DENSE_CUTOFF
    assert rep.ground_energy == pytest.approx(0.0, abs=1e-12)
    assert rep.gap < parent.DEGENERACY_TOL
    assert rep.warning == "degenerate ground space"
    assert rep.ground_fidelity is None


@pytest.mark.parametrize("t", [4, 5, 6])
def test_degenerate_random_prefixes_seen_on_sparse_path(t):
    mps = _random_chain(n=7, bond_dim=3, phys_dim=3)
    h, prefix = _prefix_hamiltonian(mps, t)
    assert h.shape[0] > parent.DENSE_CUTOFF
    rep = parent.assemble_and_gap(parent_terms(prefix), prefix)
    assert rep.solvers == {"iterative": 1}
    assert rep.gap < parent.DEGENERACY_TOL
    assert rep.warning == "degenerate ground space"
    assert rep.ground_fidelity is None


def test_degenerate_scan_reports_no_fidelity():
    rep = uniform_gap_scan(_random_chain(n=7, bond_dim=3, phys_dim=3), 4)
    assert rep.warning == "prefix 4: degenerate ground space"
    assert rep.ground_fidelity is None
    assert rep.solvers == {"dense": 2, "iterative": 1}


@pytest.mark.parametrize("dim", [2, 3])
def test_smallest_dimensions_take_the_dense_path(dim, monkeypatch):
    monkeypatch.setattr(parent, "DENSE_CUTOFF", 0)
    rng = np.random.default_rng(dim)
    a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    h = a + a.conj().T
    vals, vecs, solver = parent._two_lowest(sp.csr_matrix(h))
    assert solver == "dense"
    np.testing.assert_allclose(vals, np.linalg.eigvalsh(h)[:2], atol=1e-12)


def _no_convergence(*args, **kwargs):
    raise spla.ArpackNoConvergence("no convergence", np.zeros(0), np.zeros((0, 0)))


def test_arpack_stall_falls_back_to_dense(monkeypatch):
    expected = uniform_gap_scan(aklt_chain(8), 5)
    monkeypatch.setattr(spla, "eigsh", _no_convergence)
    rep = uniform_gap_scan(aklt_chain(8), 5)
    assert rep.solvers == {"dense": 4, "iterative": 0}
    assert rep.gap == pytest.approx(expected.gap, abs=1e-12)
    assert rep.uniform_min_gap == pytest.approx(expected.uniform_min_gap, abs=1e-12)


def test_arpack_stall_above_fallback_is_numerical_error(monkeypatch):
    monkeypatch.setattr(spla, "eigsh", _no_convergence)
    monkeypatch.setattr(parent, "DENSE_FALLBACK_MAX", parent.DENSE_CUTOFF)
    with pytest.raises(NumericalError, match="did not converge"):
        uniform_gap_scan(aklt_chain(8), 4)


def test_one_dimensional_hilbert_space_rejected():
    chain = product_peps(LatticeSpec(1, (3,)), bond_dim=1, phys_dim=1)
    with pytest.raises(ArgumentError, match="no gap"):
        uniform_gap_scan(chain, 3)


def test_zero_hamiltonian_needs_no_solver():
    chain = product_peps(LatticeSpec(1, (2,)), bond_dim=1, phys_dim=2)
    zero = parent.LocalTerm(projector=np.zeros((4, 4), dtype=np.complex128), support=(0, 1))
    rep = parent.assemble_and_gap([zero], chain)
    assert rep.solvers == {"none": 1}
    assert rep.ground_energy == 0.0 and rep.gap == 0.0
    assert rep.ground_fidelity == 1.0  # every state is a ground state of H = 0
    assert rep.warning == "degenerate ground space"
