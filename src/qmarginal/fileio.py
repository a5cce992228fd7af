"""Shared text file formats and 17-significant-digit JSON output.

Matrix documents: {"rows": int, "cols": int, "entries": [[re, im], ...]}
row-major; bipartite states add {"m": int, "n": int}. Spectra:
{"values": [real, ...]}. A number is a JSON int or float, never a boolean
(so types are compared exactly: bool is an int subclass). Documents hold
plain Python values; floats print at 17 significant digits to round-trip.
"""

from __future__ import annotations

import json
import math

import numpy as np

from .errors import DimensionError
from .linalg import BipartiteState, bipartite, factor_dims, validate_density


def format_float(x: float) -> str:
    if not math.isfinite(x):
        raise ValueError(f"cannot serialize non-finite value {x}")
    return format(float(x), ".17g")


def _float_items(items) -> str | None:
    """The items' JSON text in one pass if they are all floats or all [re, im]
    pairs of floats, as a spectrum's values or a matrix's entries are; else None."""
    if all(type(x) is float for x in items):
        flat, fmt = items, "%.17g"
    elif all(type(p) in (list, tuple) and len(p) == 2
             and type(p[0]) is float and type(p[1]) is float for p in items):
        flat, fmt = [x for p in items for x in p], "[%.17g, %.17g]"
    else:
        return None
    text = ", ".join([fmt] * len(items)) % tuple(flat)
    if "n" in text:  # inf or nan: raise on the first, as one value at a time would
        for x in flat:
            format_float(x)
    return "[" + text + "]"


def dumps(obj) -> str:
    """JSON text with floats at 17 significant digits; a non-JSON type raises TypeError."""
    if isinstance(obj, dict):
        items = ", ".join(f"{json.dumps(str(k))}: {dumps(v)}" for k, v in obj.items())
        return "{" + items + "}"
    if isinstance(obj, (list, tuple)):
        text = _float_items(obj)
        if text is None:
            text = "[" + ", ".join(dumps(v) for v in obj) + "]"
        return text
    if isinstance(obj, float):
        return format_float(obj)
    if obj is None or isinstance(obj, (bool, int, str)):
        return json.dumps(obj)
    raise TypeError(f"cannot serialize {type(obj)!r}")


def matrix_to_doc(a, m: int | None = None, n: int | None = None) -> dict:
    a = np.asarray(a, dtype=complex)
    if a.ndim != 2:
        raise DimensionError(f"expected a matrix, got ndim {a.ndim}")
    doc = {
        "rows": a.shape[0],
        "cols": a.shape[1],
        "entries": np.ascontiguousarray(a).view(float).reshape(-1, 2).tolist(),
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


def _items(doc, key: str) -> list:
    """The list field ``key`` of a document, which must be a JSON object."""
    if not isinstance(doc, dict):
        raise DimensionError(f"document must be a JSON object, got {type(doc).__name__}")
    items = doc[key]
    if type(items) is not list:
        raise DimensionError(f"{key} must be a list, got {type(items).__name__}")
    return items


def _floats(items: list, key: str) -> np.ndarray:
    """Type-checked JSON numbers, or [re, im] pairs of them, as a float array."""
    try:
        return np.array(items, dtype=float)
    except OverflowError as exc:  # name the first int beyond the float range
        huge = np.abs(np.array(items, dtype=object).reshape(len(items), -1)) > np.finfo(float).max
        i = int(huge.any(axis=1).argmax())
        raise DimensionError(f"{key}[{i}] is out of range: OverflowError: {exc}") from None


def doc_to_matrix(doc: dict) -> np.ndarray:
    entries = _items(doc, "entries")
    rows, cols = _count(doc, "rows"), _count(doc, "cols")
    if len(entries) != rows * cols:
        raise DimensionError(
            f"entries length {len(entries)} != rows*cols = {rows * cols}"
        )
    for i, item in enumerate(entries):
        if not (type(item) is list and len(item) == 2
                and type(item[0]) in (int, float) and type(item[1]) in (int, float)):
            raise DimensionError(f"entries[{i}] must be a [re, im] pair of numbers, got {item!r}")
    return _floats(entries, "entries").view(complex).reshape(rows, cols)


def spectrum_to_doc(values) -> dict:
    return {"values": np.asarray(values, dtype=float).reshape(-1).tolist()}


def doc_to_spectrum(doc: dict) -> np.ndarray:
    values = _items(doc, "values")
    if not values:
        raise DimensionError("spectrum document has no values")
    for i, x in enumerate(values):
        if type(x) not in (int, float):
            raise DimensionError(f"values[{i}] must be a number, got {x!r}")
    return _floats(values, "values")


def load_doc(path: str) -> dict:
    with open(path) as fh:
        return json.load(fh)


def load_spectrum(path: str) -> np.ndarray:
    return doc_to_spectrum(load_doc(path))


def load_matrix(path: str) -> tuple[np.ndarray, int | None, int | None]:
    doc = load_doc(path)
    mat = doc_to_matrix(doc)
    m = _count(doc, "m") if "m" in doc else None
    n = _count(doc, "n") if "n" in doc else None
    return mat, m, n


def load_state(path: str, m: int | None = None, n: int | None = None) -> BipartiteState:
    mat, file_m, file_n = load_matrix(path)
    m, n = factor_dims(mat.shape[0], file_m if m is None else m, file_n if n is None else n)
    return bipartite(mat, m, n)


def load_density(path: str):
    mat, _, _ = load_matrix(path)
    return validate_density(mat)
