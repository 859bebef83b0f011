import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from pepskit import parent
from pepskit.errors import ArgumentError, NotInjectiveError, NumericalError
from pepskit.generators import aklt_chain, product_peps, random_injective_peps
from pepskit.lattice import LatticeSpec
from pepskit.parent import parent_terms, uniform_gap_scan
from pepskit.peps import PepsState, build_state_vector


def test_aklt8_scan_has_unique_gapped_ground_state():
    rep = uniform_gap_scan(aklt_chain(8), 8)
    assert rep.chain_length == 8
    assert rep.ground_energy == pytest.approx(0.0, abs=1e-10)
    assert rep.ground_fidelity == pytest.approx(1.0, abs=1e-10)
    assert rep.gap > 0
    assert rep.uniform_min_gap > 0
    assert rep.warning is None


def test_aklt_terms_project_out_the_two_site_image():
    chain = aklt_chain(8)
    # A bulk site maps D^2 = 4 virtual states into d = 3: not injective alone.
    assert chain.tensors[(3,)].shape == (3, 2, 2)
    terms = parent_terms(chain)
    assert [t.support for t in terms] == [(i, i + 1) for i in range(7)]
    for t in terms[1:-1]:
        p = t.projector
        np.testing.assert_allclose(p @ p, p, atol=1e-12)
        # two bulk spin-1 sites (dim 9) minus the 4-dim image of the virtual legs
        assert round(np.trace(p).real) == 5


def test_product_chain_is_not_injective():
    chain = product_peps(LatticeSpec((6,)), bond_dim=2, phys_dim=2)
    # Both window sizes are tried; the error is the 3-site window's.
    with pytest.raises(NotInjectiveError, match=r"window 0\.\.2 not injective"):
        parent_terms(chain)


def _three_site_chain(middle):
    tensors = {(0,): np.eye(2), (1,): middle, (2,): np.eye(2)}
    return PepsState(lattice=LatticeSpec((3,)), tensors=tensors)


@pytest.mark.parametrize(
    "ratio, supports", [(1e-10, [(0, 1, 2)]), (1e-6, [(0, 1), (1, 2)])], ids=["1e-10", "1e-06"]
)
def test_windows_at_the_injectivity_tolerance(ratio, supports):
    # Each 2-site window map is diag(1, ratio) up to a scale, so sigma_min /
    # sigma_max = ratio, either side of INJECTIVITY_RTOL; the 3-site window
    # has one virtual dimension and is injective.
    middle = np.zeros((2, 2, 2))
    middle[0, 0, 0], middle[0, 1, 1] = 1.0, ratio
    terms = parent_terms(_three_site_chain(middle))
    assert [t.support for t in terms] == supports


def test_zero_and_nan_windows_are_refused():
    with pytest.raises(NotInjectiveError, match=r"window 0\.\.2 .*sigma_min=0\.000e\+00"):
        parent_terms(_three_site_chain(np.zeros((2, 2, 2))))
    # LAPACK may fail on NaN or return NaN singular values; either refuses.
    with pytest.raises((NumericalError, NotInjectiveError)):
        parent_terms(_three_site_chain(np.full((2, 2, 2), np.nan)))


def test_gauged_chain_keeps_its_window_terms():
    # An invertible g on one bond, g^-1 on its other end, changes the window
    # maps but neither the state nor any window's image.
    mps = random_injective_peps(LatticeSpec((5,)), 2, 3, eta=1.0, seed=1)
    g = np.array([[2.0, 1.0], [0.5, 1.5]])
    tensors = dict(mps.tensors)
    tensors[(1,)] = np.einsum("pab,bc->pac", mps.tensors[(1,)], g)
    tensors[(2,)] = np.einsum("cb,pba->pca", np.linalg.inv(g), mps.tensors[(2,)])
    gauged = parent_terms(PepsState(lattice=mps.lattice, tensors=tensors))
    terms = parent_terms(mps)
    assert [t.support for t in gauged] == [t.support for t in terms] == [(i, i + 1) for i in range(4)]
    for a, b in zip(gauged, terms):
        np.testing.assert_allclose(a.projector, b.projector, atol=1e-10)


def test_two_dimensional_state_rejected():
    with pytest.raises(ArgumentError, match="1D"):
        parent_terms(product_peps(LatticeSpec((2, 2))))


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
    return random_injective_peps(LatticeSpec((n,)), bond_dim, phys_dim, eta=1.0, seed=1)


def _kronecker_sum(terms, dims):
    """Reference H = sum of 1 (x) P (x) 1 as a sparse matrix, one Kronecker product per term."""
    total = int(np.prod(dims))
    h = sp.csr_matrix((total, total), dtype=np.complex128)
    for term in terms:
        lo, hi = term.support[0], term.support[-1]
        left = sp.identity(int(np.prod(dims[:lo])), format="csr")
        right = sp.identity(int(np.prod(dims[hi + 1 :])), format="csr")
        h = h + sp.kron(sp.kron(left, sp.csr_matrix(term.projector)), right, format="csr")
    return h


def _prefix_hamiltonian(mps, t):
    prefix = parent._prefix_chain(mps, t)
    dims = [prefix.tensors[(i,)].shape[0] for i in range(t)]
    return parent._assemble_sparse(parent_terms(prefix), dims), prefix


# (chain, prefix length): 2-site windows with a merged last site, real (AKLT)
# and complex (random); the whole AKLT chain, whose last site is not merged;
# 3-site windows (D^2 = 16 > d^2 = 9) with a merged last site.
OPERATOR_CASES = {
    "aklt-prefix": (lambda: aklt_chain(6), 4),
    "aklt-whole": (lambda: aklt_chain(5), 5),
    "random-prefix": (lambda: _random_chain(n=6), 4),
    "three-site-windows": (lambda: random_injective_peps(LatticeSpec((6,)), 4, 3, eta=1.0, seed=1), 4),
}


@pytest.mark.parametrize("case", list(OPERATOR_CASES))
def test_operator_equals_kronecker_sum(case):
    make, t = OPERATOR_CASES[case]
    h, prefix = _prefix_hamiltonian(make(), t)
    dims = [prefix.tensors[(i,)].shape[0] for i in range(t)]
    reference = _kronecker_sum(parent_terms(prefix), dims)
    rng = np.random.default_rng(7)
    dim = h.shape[0]
    real_vector = rng.standard_normal(dim)
    complex_block = rng.standard_normal((dim, 3)) + 1j * rng.standard_normal((dim, 3))
    for x in (real_vector, real_vector + 1j * rng.standard_normal(dim), real_vector[:, None], complex_block):
        np.testing.assert_allclose(h @ x, reference @ x, rtol=0, atol=1e-12)
    np.testing.assert_allclose(h @ np.eye(dim), reference.toarray(), rtol=0, atol=1e-12)


def test_operator_is_real_exactly_when_every_projector_is():
    chain = aklt_chain(6)
    terms = parent_terms(chain)
    dims = [3] * 6
    # _window_term stores complex projectors; the AKLT ones have zero imaginary parts.
    assert all(t.projector.dtype == np.complex128 for t in terms)
    assert parent._assemble_sparse(terms, dims).dtype == np.float64
    # A diagonal phase conjugation keeps one term a projector but makes it complex.
    phase = np.diag(np.exp(1j * np.arange(9)))
    rotated = parent.LocalTerm(projector=phase @ terms[2].projector @ phase.conj().T, support=terms[2].support)
    mixed = terms[:2] + [rotated] + terms[3:]
    h = parent._assemble_sparse(mixed, dims)
    assert h.dtype == np.complex128
    x = np.random.default_rng(3).standard_normal(3**6)
    np.testing.assert_allclose(h @ x, _kronecker_sum(mixed, dims) @ x, rtol=0, atol=1e-12)
    assert parent._assemble_sparse(parent_terms(_random_chain(n=6)), dims).dtype == np.complex128


@pytest.mark.parametrize("t", [2, 3, 4, 5])
@pytest.mark.parametrize("model", ["aklt", "random"])
def test_dense_and_iterative_solvers_agree(model, t):
    """Dims 18 to 486, against the Kronecker sum's dense spectrum."""
    mps = aklt_chain(8) if model == "aklt" else _random_chain()
    h, prefix = _prefix_hamiltonian(mps, t)
    psi = build_state_vector(prefix).reshape(-1)
    psi = psi / np.linalg.norm(psi)
    terms = parent_terms(prefix)
    e0, e1, residual = parent._two_lowest(h, psi, float(len(terms)))
    assert residual <= parent.RESIDUAL_TOL
    dims = [prefix.tensors[(i,)].shape[0] for i in range(t)]
    vals = np.linalg.eigvalsh(_kronecker_sum(terms, dims).toarray())
    np.testing.assert_allclose([e0, e1], vals[:2], rtol=0, atol=1e-12)


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


def test_three_site_windows_give_a_frustration_free_scan():
    # D^2 = 16 exceeds d^2 = 9, so 2-site windows cannot be injective; d^3 = 27 can.
    mps = random_injective_peps(LatticeSpec((6,)), 4, 3, eta=1.0, seed=1)
    assert {len(t.support) for t in parent_terms(mps)} == {3}
    rep = uniform_gap_scan(mps, 5)
    assert rep.ground_energy == pytest.approx(0.0, abs=1e-10)
    assert rep.ground_fidelity == pytest.approx(1.0, abs=1e-10)
    prefix = parent._prefix_chain(mps, 5)
    terms = parent_terms(prefix)
    assert {len(t.support) for t in terms} == {3}
    dims = [prefix.tensors[(i,)].shape[0] for i in range(5)]
    vals = np.linalg.eigvalsh(_kronecker_sum(terms, dims).toarray())
    assert rep.gap == pytest.approx(vals[1] - vals[0], abs=1e-10)


def test_aklt8_scan_solves_every_prefix_iteratively(monkeypatch):
    dims = []
    lanczos = parent._lanczos_lowest

    def counted(op, v0):
        dims.append(op.shape[0])
        return lanczos(op, v0)

    monkeypatch.setattr(parent, "_lanczos_lowest", counted)
    uniform_gap_scan(aklt_chain(8), 8)
    # Prefix t < 8 keeps its right bond (D = 2) in its last site: dim 3^t x 2.
    assert dims == [2 * 3**t for t in range(2, 8)] + [3**8]


def _singlet_chain_terms(n):
    singlet = np.array([0.0, 1.0, -1.0, 0.0]) / np.sqrt(2.0)
    projector = np.outer(singlet, singlet).astype(np.complex128)
    return [parent.LocalTerm(projector=projector, support=(i, i + 1)) for i in range(n - 1)]


def test_degenerate_singlet_chain_seen_on_sparse_path():
    # Sum of nearest-neighbour singlet projectors on 8 spins 1/2: the ground
    # space is the spin-4 multiplet (dim 9) at energy 0.
    chain = product_peps(LatticeSpec((8,)), bond_dim=1, phys_dim=2)
    rep = parent.assemble_and_gap(_singlet_chain_terms(8), chain)
    assert rep.ground_energy == pytest.approx(0.0, abs=1e-12)
    assert rep.gap < parent.DEGENERACY_TOL
    assert rep.warning == "degenerate ground space"
    assert rep.ground_fidelity is None


@pytest.mark.parametrize("t", [4, 5, 6])
def test_degenerate_random_prefixes_seen_on_sparse_path(t):
    mps = _random_chain(n=7, bond_dim=3, phys_dim=3)
    prefix = parent._prefix_chain(mps, t)
    rep = parent.assemble_and_gap(parent_terms(prefix), prefix)
    assert rep.gap < parent.DEGENERACY_TOL
    assert rep.warning == "degenerate ground space"
    assert rep.ground_fidelity is None


def test_degenerate_scan_solves_without_stall_or_fallback():
    # Degenerate ground spaces from prefix 4 on (9 states at prefix 4, 27 at
    # 5): a two-lowest ARPACK solve could stall on them or not, depending on
    # its earlier calls in the process, and fall back to dense.
    mps = random_injective_peps(LatticeSpec((7,)), 3, 3, eta=1.0, seed=1)
    for _ in range(3):
        rep = uniform_gap_scan(mps, 6)
        assert rep.ground_fidelity is None
        assert rep.warning == "prefix 4: degenerate ground space"


def test_degenerate_scan_reports_no_fidelity():
    rep = uniform_gap_scan(_random_chain(n=7, bond_dim=3, phys_dim=3), 4)
    assert rep.warning == "prefix 4: degenerate ground space"
    assert rep.ground_fidelity is None


@pytest.mark.parametrize(
    "levels",
    [
        [0.0, 0.4],
        [0.0, 0.4, 0.9],
        np.linspace(0.0, 0.9, parent.LANCZOS_BASIS),
        np.linspace(0.0, 0.9, parent.LANCZOS_BASIS + 1),
        [0.0, 0.0, 0.9],
    ],
    ids=["2", "3", "20", "21", "degenerate"],
)
def test_smallest_dimensions_are_solved_exactly(levels):
    # Up to LANCZOS_BASIS one Lanczos cycle spans the space; dim 21 needs a restart.
    dim = len(levels)
    rng = np.random.default_rng(dim)
    # A complex Hermitian h >= 0 with kernel vector psi = q[:, 0].
    q, _ = np.linalg.qr(rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim)))
    h = (q * np.asarray(levels)) @ q.conj().T
    e0, e1, residual = parent._two_lowest(spla.aslinearoperator(h), q[:, 0], 1.0)
    np.testing.assert_allclose([e0, e1], np.linalg.eigvalsh(h)[:2], rtol=0, atol=1e-12)


def test_iterative_solve_survives_a_kernel_start_vector():
    # On the 8-spin singlet chain the uniform vector is a ground vector; with
    # psi = (|0...0> - |1...1>)/sqrt(2) it is orthogonal to psi, so it is an
    # eigenvector of the deflated operator, on which ARPACK breaks down.
    h = parent._assemble_sparse(_singlet_chain_terms(8), [2] * 8)
    psi = np.zeros(256)
    psi[0], psi[-1] = 2**-0.5, -(2**-0.5)
    uniform = np.full(256, 1 / 16)
    assert abs(np.vdot(psi, uniform)) < 1e-15 and np.linalg.norm(h @ uniform) < 1e-15
    e0, e1, residual = parent._two_lowest(h, psi, 7.0)
    assert abs(e0) < 1e-12 and abs(e1) < 1e-12 and residual < 1e-12


def test_state_outside_the_kernel_is_refused():
    # |00> is not annihilated by the projector onto it, so psi is no ground vector.
    chain = product_peps(LatticeSpec((2,)), bond_dim=1, phys_dim=2)
    projector = np.zeros((4, 4), dtype=np.complex128)
    projector[0, 0] = 1.0
    with pytest.raises(NumericalError, match="not annihilated"):
        parent.assemble_and_gap([parent.LocalTerm(projector=projector, support=(0, 1))], chain)


def test_lanczos_stall_is_numerical_error(monkeypatch):
    # With no restart, the random chain's solve of dim 162 (30 products)
    # ends with its basis full and unconverged.
    monkeypatch.setattr(parent, "LANCZOS_MAX_RESTARTS", 0)
    with pytest.raises(NumericalError, match="did not converge"):
        uniform_gap_scan(_random_chain(), 4)


@pytest.mark.parametrize("model, t", [("aklt", 8), ("random", 7)], ids=["real", "complex"])
def test_lanczos_matches_arpack_above_the_dense_fallback(model, t):
    # Dims 6,561 and 4,374, the largest benchmark prefixes. The reference is
    # ARPACK's lowest eigenvalue of the deflated Kronecker sum.
    mps = aklt_chain(8) if model == "aklt" else _random_chain()
    h, prefix = _prefix_hamiltonian(mps, t)
    dim = h.shape[0]
    assert h.dtype == (np.float64 if model == "aklt" else np.complex128)
    psi = build_state_vector(prefix).reshape(-1)
    psi = psi / np.linalg.norm(psi)
    terms = parent_terms(prefix)
    shift = float(len(terms))
    e0, e1, residual = parent._two_lowest(h, psi, shift)
    kron = _kronecker_sum(terms, [prefix.tensors[(i,)].shape[0] for i in range(t)])
    deflated = spla.LinearOperator(
        kron.shape, matvec=lambda x: kron @ x + shift * psi * np.vdot(psi, x), dtype=np.complex128
    )
    vals, _ = spla.eigsh(deflated, k=1, which="SA", v0=np.random.default_rng(0).standard_normal(dim))
    assert e1 == pytest.approx(vals[0], abs=1e-12)
    assert e0 == pytest.approx(0.0, abs=1e-12)


def test_one_dimensional_hilbert_space_rejected():
    chain = product_peps(LatticeSpec((3,)), bond_dim=1, phys_dim=1)
    with pytest.raises(ArgumentError, match="no gap"):
        uniform_gap_scan(chain, 3)


def test_zero_hamiltonian_needs_no_solver(monkeypatch):
    chain = product_peps(LatticeSpec((2,)), bond_dim=1, phys_dim=2)
    zero = parent.LocalTerm(projector=np.zeros((4, 4), dtype=np.complex128), support=(0, 1))
    monkeypatch.setattr(parent, "_lanczos_lowest", None)  # a solve would fail on the call
    rep = parent.assemble_and_gap([zero], chain)
    assert rep.ground_energy == 0.0 and rep.gap == 0.0
    assert rep.ground_fidelity == 1.0  # every state is a ground state of H = 0
    assert rep.warning == "degenerate ground space"
