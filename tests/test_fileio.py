import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pepskit.errors import ArgumentError
from pepskit.fileio import SHAPE_WIDTH, _pack, open_peps, read_observable, read_peps, write_observable, write_peps
from pepskit.generators import aklt_chain, random_injective_peps
from pepskit.lattice import LatticeSpec
from pepskit.observables import Observable
from pepskit.parent import _prefix_chain
from pepskit.patch import adaptive_estimate, patch_expectation, select_patch


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


def _parts(path):
    """A state file's header document, its index as a writable int64 array, and its payload bytes."""
    header, _, rest = path.read_bytes().partition(b"\n")
    doc = json.loads(header)
    n = int(np.prod(doc["lattice"]["extents"]))
    row = 8 * (3 + SHAPE_WIDTH)
    return doc, np.frombuffer(rest[: n * row], "<i8").reshape(n, -1).copy(), rest[n * row :]


def _join(path, doc, index, payload):
    path.write_bytes(json.dumps(doc).encode() + b"\n" + index.astype("<i8").tobytes() + payload)


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
    assert [row[3] for row in _parts(path)[1]] == [3, 3, 6]
    back = read_peps(path)
    assert {s: t.shape[0] for s, t in back.tensors.items()} == {(0,): 3, (1,): 3, (2,): 6}
    for s, t in prefix.tensors.items():
        np.testing.assert_array_equal(back.tensors[s], t)
    write_peps(back, again)
    assert again.read_bytes() == path.read_bytes()


def test_state_document_is_extents_and_one_array_per_site(grid_file):
    doc, index, payload = _parts(grid_file)
    assert doc == {"format_version": 3, "lattice": {"extents": [12, 12]}}
    header_bytes = len(json.dumps(doc)) + 1
    assert index.shape == (144, 3 + SHAPE_WIDTH)
    # each row: offset, byte count, number of axes, shape padded with zeros
    peps = random_injective_peps(LatticeSpec((12, 12)), 2, 2, 0.3, 1)
    offset = header_bytes + index.nbytes
    for (offset_k, nbytes, ndim, *shape), s in zip(index, LatticeSpec((12, 12)).sites()):
        t = peps.tensors[s]
        assert (offset_k, nbytes, ndim) == (offset, 16 * t.size, t.ndim)
        assert shape == list(t.shape) + [0] * (SHAPE_WIDTH - t.ndim)
        # the payload is the arrays' little-endian complex128 bytes in C order, back to back
        start = offset - header_bytes - index.nbytes
        assert payload[start : start + nbytes] == t.astype("<c16").tobytes()
        offset += nbytes
    assert offset == grid_file.stat().st_size


def test_open_peps_reads_each_site_on_first_use(grid_file):
    peps = open_peps(grid_file)
    assert not peps.tensors._arrays
    obs = Observable(sites=((6, 6),), matrix=np.diag([1.0, -1.0]))
    patch_expectation(peps, obs, 2)
    assert set(peps.tensors._arrays) == set(select_patch(peps.lattice, obs.sites, 2).sites)
    # the adaptive ladder reads each rung's new sites as it climbs
    est = adaptive_estimate(peps, obs, 1e-3)
    assert set(peps.tensors._arrays) == set(select_patch(peps.lattice, obs.sites, est.radius_used).sites)
    back = read_peps(grid_file)
    for s in peps.lattice.sites():
        np.testing.assert_array_equal(peps.tensors[s], back.tensors[s])


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


def _index_edit(edit):
    """A whole-file edit that applies ``edit(index, payload)`` and returns the file with its payload."""

    def apply(raw):
        header, _, rest = raw.partition(b"\n")
        index = np.frombuffer(rest, "<i8", count=144 * (3 + SHAPE_WIDTH)).reshape(144, -1).copy()
        payload = edit(index, rest[index.nbytes :])
        return header + b"\n" + index.tobytes() + payload

    return apply


@_index_edit
def _grow_site_3(index, payload):
    # Site (0, 3) claims 16 more bytes than its shape holds; the later offsets follow.
    start = index[3, 0] - index[0, 0]
    index[3, 1] += 16
    index[4:, 0] += 16
    return payload[:start] + bytes(16) + payload[start:]


@_index_edit
def _negative_extents(index, payload):
    # Two negative extents of the top-edge site (0, 3) keep the product and the byte count.
    index[3, 4:6] *= -1
    return payload


@_index_edit
def _offset_gap(index, payload):
    index[40, 0] += 16
    return payload


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda raw: raw[:-1], "the index lists 61952 payload bytes, the file has 61951"),
        (_grow_site_3, r"site \(0, 3\): 272 data bytes do not match shape \(2, 2, 2, 2\)"),
        (_negative_extents, r"site \(0, 3\): 256 data bytes do not match shape \(2, -2, -2, 2\)"),
        (lambda raw: raw + bytes(16), "the index lists 61952 payload bytes, the file has 61968"),
        (_offset_gap, r"site \(3, 4\) has data offset \d+, expected \d+"),
        (lambda raw: b"!" + raw[1:], "cannot read PEPS file"),
        (lambda raw: raw[: raw.index(b"\n") + 100], "the file ends inside the index of 144 sites"),
    ],
    ids=["truncated", "wrong-length", "negative-extent", "extra-bytes", "offset-gap", "header-not-json",
         "index-cut"],
)
def test_malformed_data_rejected(grid_file, edit, message):
    grid_file.write_bytes(edit(grid_file.read_bytes()))
    for read in (open_peps, read_peps):
        with pytest.raises(ArgumentError, match=message):
            read(grid_file)


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
        ("state", lambda doc: doc["lattice"].update(extents=[4.0, 4]), "lattice.extents"),
        ("state", lambda doc: doc["lattice"].update(extents=[True, 4]), "lattice.extents"),
        ("observable", lambda doc: doc.update(sites=[[1.9, 1]]), "sites"),
        ("observable", lambda doc: doc.update(sites=["11"]), "sites"),
        ("observable", lambda doc: doc.update(dim=2.0), "dim"),
    ],
    ids=["extents-str", "extents-float", "extents-whole-float", "extents-bool", "obs-site-float",
         "obs-site-str", "dim-float"],
)
def test_integer_fields_must_be_json_integers(tmp_path, kind, edit, field):
    path = tmp_path / f"{kind}.json"
    if kind == "state":
        write_peps(random_injective_peps(LatticeSpec((4, 4)), 2, 2, 0.3, 1), path)
        doc, index, payload = _parts(path)
        edit(doc)
        _join(path, doc, index, payload)
    else:
        write_observable(Observable(sites=((1, 1),), matrix=np.diag([1.0, -1.0])), path)
        _rewrite(path, edit)
    with pytest.raises(ArgumentError, match=f"^{field} must be a list of JSON integers"):
        (read_peps if kind == "state" else read_observable)(path)


def test_site_listed_twice_rejected(grid_file):
    # every site is present, and (0, 3) once more: the index has one row too many
    peps = read_peps(grid_file)
    arrays = [peps.tensors[s] for s in peps.lattice.sites()]
    grid_file.write_bytes(_pack((12, 12), arrays[:4] + arrays[3:]))
    with pytest.raises(ArgumentError, match="the index lists 145 sites, the lattice has 144"):
        read_peps(grid_file)


def test_observable_round_trip_and_wrong_count(tmp_path):
    path = tmp_path / "obs.json"
    obs = Observable(sites=((1, 2), (1, 3)), matrix=np.arange(16).reshape(4, 4) * (0.5 - 0.25j))
    write_observable(obs, path)
    np.testing.assert_array_equal(read_observable(path).matrix, obs.matrix)
    _rewrite(path, lambda doc: doc["matrix"].pop())
    with pytest.raises(ArgumentError, match="does not match shape"):
        read_observable(path)
