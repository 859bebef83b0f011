import numpy as np
import pytest

from pepskit.errors import ArgumentError, NotInjectiveError
from pepskit.generators import aklt_chain, product_peps
from pepskit.lattice import LatticeSpec
from pepskit.parent import parent_terms, uniform_gap_scan


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
