"""Shared text file formats and 17-significant-digit JSON output.

Matrix documents: {"rows": int, "cols": int, "entries": [[re, im], ...]}
row-major; bipartite states add {"m": int, "n": int}. Spectra:
{"values": [real, ...]}. All floats are printed with 17 significant
digits so values round-trip exactly.
"""

from __future__ import annotations

import json

import numpy as np

from .errors import DimensionError
from .linalg import BipartiteState, bipartite, validate_density


def format_float(x: float) -> str:
    if np.isnan(x) or np.isinf(x):
        raise ValueError(f"cannot serialize non-finite value {x}")
    return format(float(x), ".17g")


def dumps(obj) -> str:
    """JSON text with floats at 17 significant digits."""
    if isinstance(obj, dict):
        items = ", ".join(f"{json.dumps(str(k))}: {dumps(v)}" for k, v in obj.items())
        return "{" + items + "}"
    if isinstance(obj, (list, tuple)):
        return "[" + ", ".join(dumps(v) for v in obj) + "]"
    if isinstance(obj, (bool, np.bool_)):
        return "true" if obj else "false"
    if obj is None:
        return "null"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return format_float(float(obj))
    if isinstance(obj, str):
        return json.dumps(obj)
    raise TypeError(f"cannot serialize {type(obj)!r}")


def matrix_to_doc(a, m: int | None = None, n: int | None = None) -> dict:
    a = np.asarray(a, dtype=complex)
    if a.ndim != 2:
        raise DimensionError(f"expected a matrix, got ndim {a.ndim}")
    doc = {
        "rows": a.shape[0],
        "cols": a.shape[1],
        "entries": [[float(z.real), float(z.imag)] for z in a.reshape(-1)],
    }
    if m is not None:
        doc["m"] = int(m)
    if n is not None:
        doc["n"] = int(n)
    return doc


def state_to_doc(state: BipartiteState) -> dict:
    return matrix_to_doc(state.matrix, m=state.m, n=state.n)


def _count(doc: dict, key: str) -> int:
    """The non-negative integer field ``key``; a float is accepted only if integral."""
    value = doc[key]
    if isinstance(value, float) and value.is_integer():
        value = int(value)
    if type(value) is not int or value < 0:
        raise DimensionError(f"{key} must be a non-negative integer, got {value!r}")
    return value


def doc_to_matrix(doc: dict) -> np.ndarray:
    rows, cols = _count(doc, "rows"), _count(doc, "cols")
    entries = doc["entries"]
    if len(entries) != rows * cols:
        raise DimensionError(
            f"entries length {len(entries)} != rows*cols = {rows * cols}"
        )
    flat = np.array([complex(float(re), float(im)) for re, im in entries])
    return flat.reshape(rows, cols)


def spectrum_to_doc(values) -> dict:
    return {"values": [float(v) for v in np.asarray(values, dtype=float).reshape(-1)]}


def doc_to_spectrum(doc: dict) -> np.ndarray:
    values = np.asarray(doc["values"], dtype=float).reshape(-1)
    if values.size == 0:
        raise DimensionError("spectrum document has no values")
    return values


def load_doc(path: str) -> dict:
    with open(path) as fh:
        return json.load(fh)


def save_doc(path: str, doc: dict) -> None:
    with open(path, "w") as fh:
        fh.write(dumps(doc))
        fh.write("\n")


def load_matrix(path: str) -> tuple[np.ndarray, int | None, int | None]:
    doc = load_doc(path)
    mat = doc_to_matrix(doc)
    m = _count(doc, "m") if "m" in doc else None
    n = _count(doc, "n") if "n" in doc else None
    return mat, m, n


def factor_dims(total: int, m: int | None, n: int | None) -> tuple[int, int]:
    """Factor dims (m, n) of a system of dimension ``total``; a missing one is derived."""
    if m is None and n is None:
        raise DimensionError("bipartite input needs factor dims (m, n) in file or flags")
    if m is None or n is None:
        name, given = ("m", m) if n is None else ("n", n)
        if given < 1 or total % given:
            raise DimensionError(f"{name} = {given} does not divide the matrix dimension {total}")
        return (given, total // given) if n is None else (total // given, given)
    if m < 1 or n < 1 or m * n != total:
        raise DimensionError(f"factor dims m={m}, n={n} do not factor the matrix dimension {total}")
    return m, n


def load_state(path: str, m: int | None = None, n: int | None = None) -> BipartiteState:
    mat, file_m, file_n = load_matrix(path)
    m, n = factor_dims(mat.shape[0], file_m if m is None else m, file_n if n is None else n)
    return bipartite(mat, m, n)


def load_density(path: str):
    mat, _, _ = load_matrix(path)
    return validate_density(mat)
