"""File formats for PEPS states, observables, and result documents.

A state file (``format_version`` 3) is binary, in three parts:

- a header, one line of JSON: ``{"format_version": 3, "lattice":
  {"extents": [...]}}`` and a newline;
- an index of one row per site, in row-major site order. A row is
  ``3 + SHAPE_WIDTH`` little-endian int64: the file offset of the site's
  bytes, their count, the array's number of axes, and its shape padded
  with zeros to ``SHAPE_WIDTH``;
- the payload: each site's array as little-endian complex128 bytes in C
  order, back to back in site order from the end of the index to the end
  of the file.

Nothing derived from the arrays is stored beyond their shapes and places,
and :func:`write_peps` is the one writer. :func:`open_peps` is the one
reader. It reads the header and the index whole and checks them on
integers only, all sites at once: each site's number of axes is one plus
its leg count, read off its coordinates; no extent is zero; both ends of
every edge give it one extent; each byte count is 16 times the product of
its shape; and the offsets run back to back from the end of the index to
the end of the file. A file that passes is a well-formed state, so a
site's bytes are read only the first time the site is used: an estimate
reads the payload of its patch and of no other site. :func:`read_peps` is
the same path applied to every site. The arrays are read-only views of
the bytes read, as written, so the round trip is bit-exact by
construction. Formats 1 and 2, one JSON document each, are refused.

An observable file, small and written by hand, is JSON. It keeps flat
row-major ``[re, im]`` pairs in shortest-repr decimals, which also read
back bit-exact. Integers in a state header or an observable file must be
JSON integers: bool, float and str are refused, not coerced. Result
documents are strict JSON: a non-finite float is written as ``"inf"``,
``"-inf"`` or ``"nan"``, which ``float()`` reads back.
"""

from __future__ import annotations

import json
import math
import os
import weakref
from contextlib import ExitStack
from dataclasses import asdict, is_dataclass
from pathlib import Path

import numpy as np

from . import __version__
from .errors import ArgumentError
from .lattice import LatticeSpec
from .observables import Observable
from .peps import PepsState, SiteArrays

__all__ = [
    "write_peps",
    "open_peps",
    "read_peps",
    "write_observable",
    "read_observable",
    "result_document",
    "document_text",
    "write_document",
]

FORMAT_VERSION = 3
SCHEMA_VERSION = 1
# Shape entries in an index row: the most axes a site has, physical and four grid legs.
SHAPE_WIDTH = 5
_ROW_BYTES = 8 * (3 + SHAPE_WIDTH)


def _ints(values, field: str) -> tuple[int, ...]:
    """A JSON list of integers as a tuple; bool, float and str are refused, not coerced."""
    if type(values) is not list or any(type(x) is not int for x in values):
        raise ArgumentError(f"{field} must be a list of JSON integers, got {values!r}")
    return tuple(values)


def _from_pairs(pairs, shape) -> np.ndarray:
    """Decode ``[re, im]`` pairs: one float64 ``(n, 2)`` array viewed as complex128.

    Each entry must be a JSON number; a boolean is refused, also beside
    numbers, where NumPy would read it as 0 or 1.
    """
    floats = np.array(pairs)
    if floats.shape == (0,):
        floats = floats.reshape(0, 2)
    if (
        floats.ndim != 2
        or floats.shape[1] != 2
        or floats.dtype.kind not in "biuf"
        or any(type(x) is bool for pair in pairs for x in pair)
    ):
        raise ArgumentError("complex data must be a list of [re, im] number pairs")
    data = floats.astype(np.float64, copy=False).view(np.complex128).reshape(-1)
    if data.size != math.prod(shape):
        raise ArgumentError(f"data length {data.size} does not match shape {tuple(shape)}")
    return data.reshape(shape)


def _pack(extents, arrays) -> bytes:
    """The bytes of a state file of lattice ``extents``, one array per site in row-major order."""
    header = json.dumps({"format_version": FORMAT_VERSION, "lattice": {"extents": list(extents)}})
    payload = [np.asarray(t, "<c16").tobytes() for t in arrays]
    index = np.zeros((len(payload), 3 + SHAPE_WIDTH), dtype="<i8")
    index[:, 1] = [len(b) for b in payload]
    index[:, 0] = len(header) + 1 + index.nbytes + np.cumsum(index[:, 1]) - index[:, 1]
    for row, t in zip(index, arrays):
        row[2] = t.ndim
        row[3 : 3 + t.ndim] = t.shape
    return b"".join([header.encode("ascii"), b"\n", index.tobytes(), *payload])


def write_peps(peps: PepsState, path):
    Path(path).write_bytes(_pack(peps.lattice.extents, [peps.tensors[s] for s in peps.lattice.sites()]))


def _check_index(path, lattice: LatticeSpec, index_start: int, size: int, index: np.ndarray):
    """Refuse an index whose byte counts or offsets do not describe the payload."""
    offsets, nbytes, ndim, shapes = index[:, 0], index[:, 1], index[:, 2], index[:, 3:]
    n = len(index)
    payload_start = index_start + n * _ROW_BYTES
    # The writer puts the payload after its last row: the first offset counts the rows it wrote.
    rows, rest = divmod(int(offsets[0]) - index_start, _ROW_BYTES)
    if rows != n and rest == 0:
        raise ArgumentError(f"malformed PEPS file {path}: the index lists {rows} sites, the lattice has {n}")
    in_shape = np.arange(SHAPE_WIDTH) < ndim[:, None]
    dims = np.where(in_shape, shapes, 1)
    # Exact in float64: any byte count that can match is at most the file size.
    wrong = (dims < 0).any(axis=1) | (nbytes > size) | (nbytes != 16 * dims.astype(float).prod(axis=1))
    if wrong.any():
        k = int(np.argmax(wrong))
        shape = tuple(int(d) for d in shapes[k][in_shape[k]])
        raise ArgumentError(f"malformed PEPS file {path}: site {lattice.site_at(k)}: "
                            f"{nbytes[k]} data bytes do not match shape {shape}")
    ends = payload_start + np.cumsum(nbytes)
    gap = offsets != ends - nbytes
    if gap.any():
        k = int(np.argmax(gap))
        raise ArgumentError(f"malformed PEPS file {path}: site {lattice.site_at(k)} has data offset "
                            f"{offsets[k]}, expected {ends[k] - nbytes[k]}")
    if ends[-1] != size:
        raise ArgumentError(f"malformed PEPS file {path}: the index lists {ends[-1] - payload_start} "
                            f"payload bytes, the file has {size - payload_start}")


def open_peps(path) -> PepsState:
    """The state of a state file, its index checked whole and each site's array read on first use.

    The file stays open until the state is garbage-collected.
    """
    with ExitStack() as stack:
        try:
            f = stack.enter_context(open(path, "rb"))
            header = f.readline()
            size = os.fstat(f.fileno()).st_size
            try:
                doc = json.loads(header)
            except ValueError:
                # Formats 1 and 2 are one JSON document over many lines.
                doc = json.loads(header + f.read())
        except (OSError, ValueError) as exc:
            raise ArgumentError(f"cannot read PEPS file {path}: {exc}") from exc
        if type(doc) is not dict:
            raise ArgumentError(f"PEPS file {path}: header is not a JSON object")
        version = doc.get("format_version")
        if type(version) is not int or version != FORMAT_VERSION:
            raise ArgumentError(f"unsupported format_version {version!r}")
        try:
            lattice = LatticeSpec(_ints(doc["lattice"]["extents"], "lattice.extents"))
        except (KeyError, TypeError) as exc:
            raise ArgumentError(f"malformed PEPS file {path}: {exc!r}") from exc
        n = lattice.n_sites
        if len(header) + n * _ROW_BYTES > size:
            raise ArgumentError(f"malformed PEPS file {path}: the file ends inside the index of {n} sites")
        index = np.frombuffer(f.read(n * _ROW_BYTES), dtype="<i8").reshape(n, 3 + SHAPE_WIDTH)
        _check_index(path, lattice, len(header), size, index)

        def read(k):
            offset, nbytes, ndim, *shape = index[k].tolist()
            f.seek(offset)
            raw = f.read(nbytes)
            if len(raw) != nbytes:
                raise ArgumentError(f"PEPS file {path} changed after its index was read")
            return np.frombuffer(raw, dtype="<c16").reshape(shape[:ndim])

        tensors = SiteArrays(lattice, index[:, 2], index[:, 3:], read)
        peps = PepsState(lattice=lattice, tensors=tensors)
        weakref.finalize(tensors, f.close)
        stack.pop_all()
    return peps


def read_peps(path) -> PepsState:
    """The state of a state file with every site's array read: :func:`open_peps` applied to all sites."""
    peps = open_peps(path)
    for s in peps.lattice.sites():
        peps.tensors[s]  # read now
    return peps


def write_observable(obs: Observable, path):
    doc = {
        "sites": [list(s) for s in obs.sites],
        "dim": obs.dim,
        "matrix": [[z.real, z.imag] for z in obs.matrix.ravel().tolist()],
    }
    Path(path).write_text(json.dumps(doc, indent=1) + "\n")


def read_observable(path) -> Observable:
    try:
        doc = json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise ArgumentError(f"cannot read observable file {path}: {exc}") from exc
    try:
        sites = tuple(_ints(s, "sites") for s in doc["sites"])
        (dim,) = _ints([doc["dim"]], "dim")
        matrix = _from_pairs(doc["matrix"], (dim, dim))
    except (KeyError, TypeError, ValueError) as exc:
        raise ArgumentError(f"malformed observable file {path}: {exc}") from exc
    return Observable(sites=sites, matrix=matrix)


def jsonify(value):
    """Convert numpy scalars, arrays, complex values and dataclasses to strict JSON types."""
    if is_dataclass(value) and not isinstance(value, type):
        return jsonify(asdict(value))
    if isinstance(value, dict):
        return {str(k): jsonify(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [jsonify(v) for v in value]
    if isinstance(value, (complex, np.complexfloating)):
        return [jsonify(float(value.real)), jsonify(float(value.imag))]
    if isinstance(value, (np.floating, np.integer)):
        return jsonify(value.item())
    if isinstance(value, np.ndarray):
        return jsonify(value.tolist())
    if isinstance(value, float):
        # strict JSON has no inf or nan; str() gives "inf", "-inf" or "nan"
        return value if math.isfinite(value) else str(value)
    if value is None or isinstance(value, (bool, int, str)):
        return value
    return str(value)


def result_document(command: str, config: dict, results: dict, timings: dict | None = None) -> dict:
    """Self-describing result document; complex numbers appear as [re, im]."""
    return {
        "schema_version": SCHEMA_VERSION,
        "library_version": __version__,
        "command": command,
        "config": jsonify(config),
        "results": jsonify(results),
        "timings": jsonify(timings or {}),
    }


def document_text(doc: dict) -> str:
    """The one serialisation of a result document: strict JSON, sorted keys, newline-ended."""
    return json.dumps(doc, indent=1, sort_keys=True, allow_nan=False) + "\n"


def write_document(doc: dict, path):
    Path(path).write_text(document_text(doc))
