"""Text file formats for PEPS states, observables, and result documents.

All are JSON. A state file (``format_version`` 2) is its lattice's
``extents`` and, per site, ``site``, ``shape`` and ``data``: the base64 of
the array's little-endian complex128 bytes in C order. Nothing derived from
the arrays is stored, and the bytes are decoded as written, so the round
trip is bit-exact by construction; the one data check is the byte count,
and the arrays read are read-only views of the decoded bytes. An observable
file, small and written by hand, keeps flat row-major ``[re, im]`` pairs in
shortest-repr decimals, which also read back bit-exact. Integers in either
file must be JSON integers: bool, float and str are refused, not coerced.
Result documents are strict JSON: a non-finite float is written as
``"inf"``, ``"-inf"`` or ``"nan"``, which ``float()`` reads back.
"""

from __future__ import annotations

import base64
import json
import math
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
    "document_text",
    "write_document",
]

FORMAT_VERSION = 2
SCHEMA_VERSION = 1


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


def write_peps(peps: PepsState, path):
    doc = {
        "format_version": FORMAT_VERSION,
        "lattice": {"extents": list(peps.lattice.extents)},
        "tensors": [
            {
                "site": list(s),
                "shape": list(peps.tensors[s].shape),
                "data": base64.b64encode(peps.tensors[s].astype("<c16").tobytes()).decode("ascii"),
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
    if type(doc) is not dict:
        raise ArgumentError(f"PEPS file {path} is not a JSON object")
    if doc.get("format_version") != FORMAT_VERSION:
        raise ArgumentError(f"unsupported format_version {doc.get('format_version')!r}")
    try:
        lattice = LatticeSpec(_ints(doc["lattice"]["extents"], "lattice.extents"))
        tensors = {}
        for entry in doc["tensors"]:
            site = _ints(entry["site"], "site")
            if site in tensors:
                raise ArgumentError(f"PEPS file {path}: site {site} is listed twice")
            shape = _ints(entry["shape"], "shape")
            raw = base64.b64decode(entry["data"], validate=True)
            if len(raw) != 16 * math.prod(shape):
                raise ArgumentError(f"site {site}: {len(raw)} data bytes do not match shape {shape}")
            tensors[site] = np.frombuffer(raw, "<c16").reshape(shape)
    except (KeyError, TypeError, ValueError) as exc:
        raise ArgumentError(f"malformed PEPS file {path}: {exc}") from exc
    return PepsState(lattice=lattice, tensors=tensors)


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
