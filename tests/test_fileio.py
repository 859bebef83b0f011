import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pepskit.errors import ArgumentError
from pepskit.fileio import read_observable, read_peps, write_observable, write_peps
from pepskit.generators import aklt_chain, random_injective_peps
from pepskit.lattice import LatticeSpec
from pepskit.observables import Observable
from pepskit.parent import _prefix_chain


@pytest.fixture
def grid_file(tmp_path):
    path = tmp_path / "grid.json"
    write_peps(random_injective_peps(LatticeSpec(2, (12, 12)), 2, 2, 0.3, 1), path)
    return path


@pytest.fixture
def aklt_file(tmp_path):
    path = tmp_path / "aklt.json"
    write_peps(aklt_chain(8), path)
    return path


@pytest.mark.parametrize("name", ["grid_file", "aklt_file"])
def test_write_read_round_trip_is_byte_identical(name, request, tmp_path):
    path = request.getfixturevalue(name)
    again = tmp_path / "again.json"
    write_peps(read_peps(path), again)
    assert again.read_bytes() == path.read_bytes()


def test_read_values_bit_exact(grid_file):
    peps = random_injective_peps(LatticeSpec(2, (12, 12)), 2, 2, 0.3, 1)
    back = read_peps(grid_file)
    for s, t in peps.tensors.items():
        assert back.tensors[s].dtype == np.complex128
        np.testing.assert_array_equal(back.tensors[s], t)


def test_mixed_dimension_round_trip(tmp_path):
    # AKLT prefix of 3 sites: physical dims [3, 3, 6]
    prefix = _prefix_chain(aklt_chain(8), 3)
    path, again = tmp_path / "prefix.json", tmp_path / "again.json"
    write_peps(prefix, path)
    assert json.loads(path.read_text())["phys_dim"] == 6
    back = read_peps(path)
    assert back.phys_dims == {(0,): 3, (1,): 3, (2,): 6}
    for s, t in prefix.tensors.items():
        np.testing.assert_array_equal(back.tensors[s], t)
    write_peps(back, again)
    assert again.read_bytes() == path.read_bytes()


@st.composite
def random_states(draw):
    if draw(st.booleans()):
        lat = LatticeSpec(1, (draw(st.integers(1, 9)),))
    else:
        rows = draw(st.integers(1, 3))
        lat = LatticeSpec(2, (rows, draw(st.integers(1, 9 // rows))))
    bond, phys = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    eta = draw(st.floats(0.0, 1e3))
    return random_injective_peps(lat, bond, phys, eta, draw(st.integers(0, 2**32 - 1)))


@settings(max_examples=30)
@given(random_states())
def test_read_after_write_is_bit_identical(peps):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "state.json"
        write_peps(peps, path)
        back = read_peps(path)
    assert back.lattice == peps.lattice
    for s, t in peps.tensors.items():
        assert back.tensors[s].shape == t.shape
        assert back.tensors[s].tobytes() == t.tobytes()


@pytest.mark.parametrize("key, value", [("bond_dim", 77), ("bond_dim", 1), ("phys_dim", 3)])
def test_wrong_header_rejected(grid_file, key, value):
    _rewrite(grid_file, lambda doc: doc.update({key: value}))
    with pytest.raises(ArgumentError, match=f"header {key} {value} does not match"):
        read_peps(grid_file)


def _rewrite(path, edit):
    doc = json.loads(path.read_text())
    edit(doc)
    path.write_text(json.dumps(doc))


@pytest.mark.parametrize(
    "edit",
    [
        lambda doc: doc["tensors"][3].update(data=[p + [0.0] for p in doc["tensors"][3]["data"]]),
        lambda doc: doc["tensors"][3]["data"][5].append(0.0),
        lambda doc: doc["tensors"][3]["data"][5].pop(),
        lambda doc: doc["tensors"][3]["data"].pop(),
        lambda doc: doc["tensors"][3]["data"].append([0.0, 0.0]),
        lambda doc: doc["tensors"][3].update(data=[x for p in doc["tensors"][3]["data"] for x in p]),
        lambda doc: doc["tensors"][3]["data"][5].__setitem__(0, "0.5"),
    ],
    ids=["inner-3-all", "inner-3-one", "inner-1-one", "count-short", "count-long", "flat", "string"],
)
def test_malformed_pairs_rejected(grid_file, edit):
    _rewrite(grid_file, edit)
    with pytest.raises(ArgumentError):
        read_peps(grid_file)


def test_site_listed_twice_rejected(grid_file):
    # every site is present, and (0, 3) once more with the values of (0, 4)
    def repeat(doc):
        doc["tensors"].append(dict(doc["tensors"][3], data=doc["tensors"][4]["data"]))

    _rewrite(grid_file, repeat)
    with pytest.raises(ArgumentError, match=r"site \(0, 3\) is listed twice"):
        read_peps(grid_file)


def test_observable_round_trip_and_wrong_count(tmp_path):
    path = tmp_path / "obs.json"
    obs = Observable(sites=((1, 2), (1, 3)), matrix=np.arange(16).reshape(4, 4) * (0.5 - 0.25j))
    write_observable(obs, path)
    np.testing.assert_array_equal(read_observable(path).matrix, obs.matrix)
    _rewrite(path, lambda doc: doc["matrix"].pop())
    with pytest.raises(ArgumentError, match="does not match shape"):
        read_observable(path)
