"""Text file formats for PEPS states, observables, and result documents.

Both state and observable files are JSON. Complex arrays are stored as flat
row-major ``[re, im]`` pairs in the documented leg order; floats are written
with their shortest exact decimal form (at most 17 significant digits), so
read/write round trips are bit-exact on values and write(read(f)) is
canonical byte-for-byte. A state file's ``phys_dim`` and ``bond_dim``
headers record the largest physical and virtual extents of its tensors;
reading rejects a file whose headers disagree with them.
"""

from __future__ import annotations

import json
from dataclasses import asdict, is_dataclass
from pathlib import Path

import numpy as np

from . import __version__
from .errors import ArgumentError
from .lattice import LatticeSpec
from .observables import Observable
from .peps import PepsState

__all__ = [
    "write_peps",
    "read_peps",
    "write_observable",
    "read_observable",
    "result_document",
    "write_document",
]

FORMAT_VERSION = 1
SCHEMA_VERSION = 1


def _complex_pairs(a: np.ndarray) -> list[list[float]]:
    flat = np.ascontiguousarray(a, dtype=np.complex128).reshape(-1)
    return [[float(z.real), float(z.imag)] for z in flat]


def _from_pairs(pairs, shape) -> np.ndarray:
    """Decode ``[re, im]`` pairs: one float64 ``(n, 2)`` array viewed as complex128."""
    floats = np.array(pairs)
    if floats.shape == (0,):
        floats = floats.reshape(0, 2)
    if floats.ndim != 2 or floats.shape[1] != 2 or floats.dtype.kind not in "biuf":
        raise ArgumentError("complex data must be a list of [re, im] number pairs")
    data = floats.astype(np.float64, copy=False).view(np.complex128).reshape(-1)
    expected = int(np.prod(shape, dtype=np.int64)) if len(shape) else 1
    if data.size != expected:
        raise ArgumentError(f"data length {data.size} does not match shape {tuple(shape)}")
    return data.reshape(shape)


def write_peps(peps: PepsState, path):
    doc = {
        "format_version": FORMAT_VERSION,
        "lattice": {
            "dimension": peps.lattice.dimension,
            "extents": list(peps.lattice.extents),
        },
        "phys_dim": max(peps.phys_dims.values()),
        "bond_dim": peps.bond_dim,
        "tensors": [
            {
                "site": list(s),
                "shape": list(peps.tensors[s].shape),
                "data": _complex_pairs(peps.tensors[s]),
            }
            for s in peps.lattice.sites()
        ],
    }
    Path(path).write_text(json.dumps(doc, indent=1) + "\n")


def read_peps(path) -> PepsState:
    try:
        doc = json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise ArgumentError(f"cannot read PEPS file {path}: {exc}") from exc
    if doc.get("format_version") != FORMAT_VERSION:
        raise ArgumentError(f"unsupported format_version {doc.get('format_version')!r}")
    try:
        lattice = LatticeSpec(
            dimension=int(doc["lattice"]["dimension"]),
            extents=tuple(doc["lattice"]["extents"]),
        )
        header = {"phys_dim": int(doc["phys_dim"]), "bond_dim": int(doc["bond_dim"])}
        tensors = {}
        for entry in doc["tensors"]:
            site = tuple(int(c) for c in entry["site"])
            if site in tensors:
                raise ArgumentError(f"PEPS file {path}: site {site} is listed twice")
            tensors[site] = _from_pairs(entry["data"], tuple(entry["shape"]))
    except (KeyError, TypeError, ValueError) as exc:
        raise ArgumentError(f"malformed PEPS file {path}: {exc}") from exc
    peps = PepsState(lattice=lattice, tensors=tensors)
    found = {"phys_dim": max(peps.phys_dims.values()), "bond_dim": peps.bond_dim}
    for key, value in header.items():
        if value != found[key]:
            raise ArgumentError(
                f"PEPS file {path}: header {key} {value} does not match the tensors' largest, {found[key]}"
            )
    return peps


def write_observable(obs: Observable, path):
    doc = {
        "sites": [list(s) for s in obs.sites],
        "dim": obs.dim,
        "matrix": _complex_pairs(obs.matrix),
    }
    Path(path).write_text(json.dumps(doc, indent=1) + "\n")


def read_observable(path) -> Observable:
    try:
        doc = json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise ArgumentError(f"cannot read observable file {path}: {exc}") from exc
    try:
        sites = tuple(tuple(int(c) for c in s) for s in doc["sites"])
        dim = int(doc["dim"])
        matrix = _from_pairs(doc["matrix"], (dim, dim))
    except (KeyError, TypeError, ValueError) as exc:
        raise ArgumentError(f"malformed observable file {path}: {exc}") from exc
    return Observable(sites=sites, matrix=matrix)


def jsonify(value):
    """Convert numpy scalars, arrays, complex values and dataclasses to JSON types."""
    if is_dataclass(value) and not isinstance(value, type):
        return jsonify(asdict(value))
    if isinstance(value, dict):
        return {str(k): jsonify(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [jsonify(v) for v in value]
    if isinstance(value, (complex, np.complexfloating)):
        return [float(value.real), float(value.imag)]
    if isinstance(value, (np.floating, np.integer)):
        return value.item()
    if isinstance(value, np.ndarray):
        return jsonify(value.tolist())
    if value is None or isinstance(value, (bool, int, float, str)):
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


def write_document(doc: dict, path):
    Path(path).write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
