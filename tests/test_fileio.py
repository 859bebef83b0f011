import base64
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
    write_peps(random_injective_peps(LatticeSpec((12, 12)), 2, 2, 0.3, 1), path)
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
    peps = random_injective_peps(LatticeSpec((12, 12)), 2, 2, 0.3, 1)
    back = read_peps(grid_file)
    for s, t in peps.tensors.items():
        assert back.tensors[s].dtype == np.complex128
        np.testing.assert_array_equal(back.tensors[s], t)


def test_mixed_dimension_round_trip(tmp_path):
    # AKLT prefix of 3 sites: physical dims [3, 3, 6], read off the stored shapes
    prefix = _prefix_chain(aklt_chain(8), 3)
    path, again = tmp_path / "prefix.json", tmp_path / "again.json"
    write_peps(prefix, path)
    assert [t["shape"][0] for t in json.loads(path.read_text())["tensors"]] == [3, 3, 6]
    back = read_peps(path)
    assert {s: t.shape[0] for s, t in back.tensors.items()} == {(0,): 3, (1,): 3, (2,): 6}
    for s, t in prefix.tensors.items():
        np.testing.assert_array_equal(back.tensors[s], t)
    write_peps(back, again)
    assert again.read_bytes() == path.read_bytes()


def test_state_document_is_extents_and_one_array_per_site(grid_file):
    doc = json.loads(grid_file.read_text())
    assert set(doc) == {"format_version", "lattice", "tensors"}
    assert doc["format_version"] == 2
    assert doc["lattice"] == {"extents": [12, 12]}
    assert len(doc["tensors"]) == 144
    assert all(set(entry) == {"site", "shape", "data"} for entry in doc["tensors"])
    # each data field is the base64 of the array's little-endian complex128 bytes in C order
    peps = random_injective_peps(LatticeSpec((12, 12)), 2, 2, 0.3, 1)
    entry = doc["tensors"][13]
    t = peps.tensors[tuple(entry["site"])]
    assert entry["shape"] == list(t.shape)
    assert base64.b64decode(entry["data"]) == t.astype("<c16").tobytes()


def test_read_tensors_are_read_only_views(grid_file):
    for t in read_peps(grid_file).tensors.values():
        assert not t.flags.writeable
        with pytest.raises(ValueError):
            t[(0,) * t.ndim] = 0


@st.composite
def random_states(draw):
    if draw(st.booleans()):
        lat = LatticeSpec((draw(st.integers(1, 9)),))
    else:
        rows = draw(st.integers(1, 3))
        lat = LatticeSpec((rows, draw(st.integers(1, 9 // rows))))
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


def _rewrite(path, edit):
    doc = json.loads(path.read_text())
    edit(doc)
    path.write_text(json.dumps(doc))


@pytest.mark.parametrize(
    "data",
    [
        lambda text: text[:-1],
        lambda text: "!" + text[1:],
        lambda text: base64.b64encode(base64.b64decode(text) + bytes(16)).decode("ascii"),
        lambda text: [[0.0, 0.0]] * (len(base64.b64decode(text)) // 16),
        lambda text: 0.5,
    ],
    ids=["truncated", "not-base64", "wrong-length", "v1-pairs", "number"],
)
def test_malformed_data_rejected(grid_file, data):
    _rewrite(grid_file, lambda doc: doc["tensors"][3].update(data=data(doc["tensors"][3]["data"])))
    with pytest.raises(ArgumentError, match="malformed PEPS file|data bytes do not match"):
        read_peps(grid_file)


@pytest.fixture
def obs_file(tmp_path):
    path = tmp_path / "obs.json"
    write_observable(Observable(sites=((1, 2), (1, 3)), matrix=np.eye(4) * (0.5 - 0.25j)), path)
    return path


@pytest.mark.parametrize(
    "edit",
    [
        lambda doc: doc.update(matrix=[p + [0.0] for p in doc["matrix"]]),
        lambda doc: doc["matrix"][5].append(0.0),
        lambda doc: doc["matrix"][5].pop(),
        lambda doc: doc["matrix"].pop(),
        lambda doc: doc["matrix"].append([0.0, 0.0]),
        lambda doc: doc.update(matrix=[x for p in doc["matrix"] for x in p]),
        lambda doc: doc["matrix"][5].__setitem__(0, "0.5"),
        # the identity written in booleans, which NumPy would read as 1 and 0
        lambda doc: doc.update(matrix=[[k % 5 == 0, False] for k in range(16)]),
        lambda doc: doc["matrix"][5].__setitem__(1, True),
    ],
    ids=["inner-3-all", "inner-3-one", "inner-1-one", "count-short", "count-long", "flat", "string",
         "bool", "bool-beside-number"],
)
def test_malformed_pairs_rejected(obs_file, edit):
    # [re, im] pairs remain the encoding of observable files only
    _rewrite(obs_file, edit)
    with pytest.raises(ArgumentError):
        read_observable(obs_file)


@pytest.mark.parametrize(
    "kind, edit, field",
    [
        ("state", lambda doc: doc["lattice"].update(extents="44"), "lattice.extents"),
        ("state", lambda doc: doc["lattice"].update(extents=[4.9, 4]), "lattice.extents"),
        ("state", lambda doc: doc["tensors"][0].update(site=[0.0, 0]), "site"),
        ("state", lambda doc: doc["tensors"][0].update(shape=[True, 2, 2]), "shape"),
        ("observable", lambda doc: doc.update(sites=[[1.9, 1]]), "sites"),
        ("observable", lambda doc: doc.update(sites=["11"]), "sites"),
        ("observable", lambda doc: doc.update(dim=2.0), "dim"),
    ],
    ids=["extents-str", "extents-float", "site-float", "shape-bool", "obs-site-float",
         "obs-site-str", "dim-float"],
)
def test_integer_fields_must_be_json_integers(tmp_path, kind, edit, field):
    path = tmp_path / f"{kind}.json"
    if kind == "state":
        write_peps(random_injective_peps(LatticeSpec((4, 4)), 2, 2, 0.3, 1), path)
    else:
        write_observable(Observable(sites=((1, 1),), matrix=np.diag([1.0, -1.0])), path)
    _rewrite(path, edit)
    with pytest.raises(ArgumentError, match=f"^{field} must be a list of JSON integers"):
        (read_peps if kind == "state" else read_observable)(path)


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
