import json
import math

import numpy as np
import pytest

from pepskit import cli, transfer
from pepskit.errors import ArgumentError
from pepskit.fileio import write_peps
from pepskit.generators import aklt_chain, random_injective_peps
from pepskit.lattice import LatticeSpec
from pepskit.observables import SPIN1, Observable
from pepskit.oracle import exact_correlation
from pepskit.patch import patch_expectation
from pepskit.peps import PepsState
from pepskit.transfer import (
    decay_fit,
    dressed_transfer,
    site_transfer_operator,
    spectrum,
    strip_transfer_operator,
    transfer_correlation,
)


@pytest.fixture
def aklt_ops():
    t = aklt_chain(8).tensors[(3,)]
    return site_transfer_operator(t), dressed_transfer(t, SPIN1["s_z"])


class TestAkltClosedForms:
    def test_spectrum_ratio_one_third(self, aklt_ops):
        rep = spectrum(aklt_ops[0])
        assert rep.unique_top
        assert rep.ratio == pytest.approx(1.0 / 3.0, abs=1e-12)
        assert rep.decay_rate == pytest.approx(math.log(3.0), abs=1e-12)

    def test_correlations(self, aklt_ops):
        op, sz = aklt_ops
        for x in range(8):
            value = transfer_correlation(op, sz, sz, x, 64)
            assert abs(value - (4.0 / 3.0) * (-1.0 / 3.0) ** (x + 1)) <= 1e-10

    def test_decay_rate_ln3(self, aklt_ops):
        op, sz = aklt_ops
        xs = range(0, 6)
        joints = [transfer_correlation(op, sz, sz, x, 64) for x in xs]
        rate, r_squared = decay_fit(op, sz, sz, xs, joints, 64)
        assert rate == pytest.approx(math.log(3.0), abs=1e-8)
        assert r_squared == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("name", ["s_x", "s_z"])
    @pytest.mark.parametrize("a, b", [(2, 3), (2, 5), (1, 6), (3, 7)])
    def test_correlation_matches_oracle(self, name, a, b):
        # The open chain's boundary maps are isometries, so the ring trace
        # at L=64 equals the open 9-site chain's two-point function.
        chain = aklt_chain(9)
        t = chain.tensors[(4,)]
        dressed = dressed_transfer(t, SPIN1[name])
        value = transfer_correlation(site_transfer_operator(t), dressed, dressed, b - a - 1, 64)
        oa, ob = (Observable(sites=((s,),), matrix=SPIN1[name]) for s in (a, b))
        joint, _ = exact_correlation(chain, oa, ob)
        assert abs(value - joint) <= 1e-12

    def test_one_eigendecomposition_per_call(self, aklt_ops, monkeypatch):
        op, sz = aklt_ops
        calls = []
        eigvals = np.linalg.eigvals
        monkeypatch.setattr(np.linalg, "eigvals", lambda m: calls.append(1) or eigvals(m))
        joints = [transfer_correlation(op, sz, sz, x, 64) for x in range(0, 6)]
        assert len(calls) == 1
        decay_fit(op, sz, sz, range(0, 6), joints, 64)
        spectrum(op)
        assert len(calls) == 1


def test_complex_dressing_matches_the_open_chain_centre():
    """<S^y> and an S^y S^z correlation on the ring equal those at the centre of an open chain.

    S^y is antisymmetric, so a dressing that applied its transpose would flip
    both signs; S^x and S^z are symmetric and could not tell.
    """
    rng = np.random.default_rng(3)
    a = rng.standard_normal((3, 2, 2)) + 1j * rng.standard_normal((3, 2, 2))
    n = 40
    tensors = {(i,): a for i in range(1, n - 1)}
    tensors[(0,)], tensors[(n - 1,)] = a[:, 0, :], a[:, :, 0]
    chain = PepsState(LatticeSpec((n,)), tensors)
    op = site_transfer_operator(a)
    sy, sz = SPIN1["s_y"], SPIN1["s_z"]
    dressed_y, dressed_z = dressed_transfer(a, sy), dressed_transfer(a, sz)
    c = n // 2
    mean = transfer_correlation(op, dressed_y, op, 0, 64)  # an undressed B site
    expected = patch_expectation(chain, Observable(sites=((c,),), matrix=sy), n).value
    assert abs(expected) > 0.2 and abs(mean - expected) <= 1e-5
    joint = transfer_correlation(op, dressed_y, dressed_z, 1, 64)
    pair = Observable(sites=((c,), (c + 2,)), matrix=np.kron(sy, sz))
    expected = patch_expectation(chain, pair, n).value
    assert abs(expected) > 0.05 and abs(joint - expected) <= 1e-5


def test_cli_transfer_query_diagonalises_once(tmp_path, monkeypatch):
    path = tmp_path / "aklt.json"
    write_peps(aklt_chain(8), path)
    out = tmp_path / "result.json"
    calls = []
    eigvals = np.linalg.eigvals
    monkeypatch.setattr(np.linalg, "eigvals", lambda m: calls.append(1) or eigvals(m))
    argv = ["transfer", str(path), "--site-index", "3", "--obs-a", "s_z", "--obs-b", "s_z",
            "--length", "64", "--x-range", "0:5", "-o", str(out)]
    assert cli.main(argv) == cli.EXIT_OK
    assert len(calls) == 1
    results = json.loads(out.read_text())["results"]
    # The reused correlations give the values the public functions give.
    t = aklt_chain(8).tensors[(3,)]
    op, sz = site_transfer_operator(t), dressed_transfer(t, SPIN1["s_z"])
    joints = [transfer_correlation(op, sz, sz, x, 64) for x in range(0, 6)]
    assert [row["value"] for row in results["correlations"]] == [[v.real, v.imag] for v in joints]
    rate, r_squared = decay_fit(op, sz, sz, range(0, 6), joints, 64)
    assert results["decay_fit"] == {"rate": rate, "r_squared": r_squared}


def _peps_3x3(extent_of, seed):
    """3x3 random PEPS whose edge ``e`` has bond extent ``extent_of(e)``."""
    lat = LatticeSpec((3, 3))
    rng = np.random.default_rng(seed)
    tensors = {}
    for s in lat.sites():
        shape = (2,) + tuple(extent_of(e) for e in lat.virtual_legs(s))
        tensors[s] = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    return PepsState(lattice=lat, tensors=tensors)


def _strip_by_einsum(peps):
    """Width-2 strip at column 1, contracted independently of the network code."""
    a0 = peps.tensors[(0, 1)]  # (p, down, left, right)
    a1 = peps.tensors[(1, 1)]  # (p, up, down, left, right)
    out = np.einsum("palr,pALR,qacms,qAcMS->lmLMrsRS", a0, a0.conj(), a1, a1.conj())
    out = out / a0.shape[1]  # pair weight of the one internal vertical bond
    d_left = a0.shape[2] * a1.shape[3]
    d_right = a0.shape[3] * a1.shape[4]
    return out.reshape(d_left**2, d_right**2)


def _vertical_in_column_1(e):
    return e[0][1] == e[1][1] == 1


def _horizontal_in_row_1(e):
    return e[0][0] == e[1][0] == 1


class TestStripTransferOperator:
    @pytest.mark.parametrize(
        "extent_of",
        [
            lambda e: 2,
            lambda e: 3 if _vertical_in_column_1(e) else 2,
            lambda e: 3 if _horizontal_in_row_1(e) else 2,
            lambda e: 3 if e == ((1, 0), (1, 1)) else 2,
        ],
        ids=["uniform", "column-1-vertical-3", "row-1-horizontal-3", "one-left-bond-3"],
    )
    def test_width_2_matches_einsum(self, extent_of):
        peps = _peps_3x3(extent_of, seed=4)
        op = strip_transfer_operator(peps, 1, 2)
        expected = _strip_by_einsum(peps)
        assert op.matrix.shape == expected.shape
        np.testing.assert_allclose(op.matrix, expected, rtol=1e-12, atol=1e-12 * np.abs(expected).max())

    @pytest.mark.parametrize(
        "extents, bond, width, trace, norm, corner",
        [
            ((3, 4), 2, 2, 7.240186115919653, 6.2876009295861115, 5.561865439364372),
            ((4, 4), 3, 3, 25.76722175183101, 72.68337680257738, 51.5977962253767),
        ],
    )
    def test_uniform_bond_regression(self, extents, bond, width, trace, norm, corner):
        peps = random_injective_peps(LatticeSpec(extents), bond, 2, 0.3, 1)
        op = strip_transfer_operator(peps, 1, width)
        assert op.matrix.shape == (bond ** (2 * width),) * 2
        assert np.trace(op.matrix).real == pytest.approx(trace, rel=1e-14)
        assert np.linalg.norm(op.matrix) == pytest.approx(norm, rel=1e-14)
        assert op.matrix[0, 0].real == pytest.approx(corner, rel=1e-14)

    def test_non_square_strip_refused_by_spectrum(self):
        peps = _peps_3x3(lambda e: 3 if e == ((1, 0), (1, 1)) else 2, seed=4)
        with pytest.raises(ArgumentError, match="square"):
            spectrum(strip_transfer_operator(peps, 1, 2))


@pytest.mark.parametrize(
    "extent_of, code",
    [
        (lambda e: 3 if _horizontal_in_row_1(e) else 2, cli.EXIT_OK),
        (lambda e: 3 if e == ((1, 0), (1, 1)) else 2, cli.EXIT_INPUT),
    ],
    ids=["square", "non-square"],
)
def test_cli_transfer_on_mixed_bonds(extent_of, code, tmp_path):
    path, out = tmp_path / "state.json", tmp_path / "result.json"
    write_peps(_peps_3x3(extent_of, seed=4), path)
    assert cli.main(["transfer", str(path), "--width", "2", "-o", str(out)]) == code
    results = json.loads(out.read_text())["results"]
    if code == cli.EXIT_OK:
        assert results["strip"]["d_eff"] == 6
    else:
        assert results["error"]["code"] == "argument"


def test_cli_strip_default_width_reads_the_cutoff(tmp_path, monkeypatch):
    path, out = tmp_path / "state.json", tmp_path / "result.json"
    write_peps(random_injective_peps(LatticeSpec((3, 3)), 2, 2, 0.3, 1), path)
    for cutoff, strip in [(4, (3, True)), (2, (2, False))]:
        monkeypatch.setattr(transfer, "STRIP_WIDTH_CUTOFF", cutoff)
        assert cli.main(["transfer", str(path), "-o", str(out)]) == cli.EXIT_OK
        results = json.loads(out.read_text())["results"]["strip"]
        assert (results["width"], results["full_column"]) == strip


def test_zero_operator_rejected():
    zero = transfer.TransferOperator(matrix=np.zeros((4, 4)))
    with pytest.raises(ArgumentError, match="zero"):
        transfer_correlation(zero, zero, zero, 0, 4)
