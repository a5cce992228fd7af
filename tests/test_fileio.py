import json

import numpy as np
import pytest

import qmarginal as qm
from qmarginal import fileio


def test_matrix_round_trip(tmp_path):
    rng = qm.PortableRng(1)
    a = rng.complex_normal((3, 5))
    path = tmp_path / "mat.json"
    path.write_text(fileio.dumps(fileio.matrix_to_doc(a)) + "\n")
    back = fileio.doc_to_matrix(fileio.load_doc(str(path)))
    assert np.array_equal(a, back)  # 17 significant digits round-trip exactly


def test_bipartite_round_trip(tmp_path):
    state = qm.construct_rank_k(qm.random_density(3, 3, seed=2), 2, 4)
    path = tmp_path / "state.json"
    path.write_text(fileio.dumps(fileio.state_to_doc(state)) + "\n")
    loaded = fileio.load_state(str(path))
    assert loaded.m == 2 and loaded.n == 3
    assert np.array_equal(loaded.matrix, state.matrix)


def test_spectrum_round_trip():
    v = np.array([0.5, 1 / 3, 1 / 6])
    doc = json.loads(fileio.dumps(fileio.spectrum_to_doc(v)))
    assert np.array_equal(fileio.doc_to_spectrum(doc), v)


def test_empty_spectrum_rejected():
    with pytest.raises(qm.DimensionError):
        fileio.doc_to_spectrum({"values": []})


def test_dumps_is_valid_json():
    doc = {"a": 1, "b": [1.5, float(np.float64(2.25))], "c": {"d": None, "e": True}, "f": "x"}
    assert json.loads(fileio.dumps(doc)) == doc


def test_seventeen_digit_floats():
    third = 1.0 / 3.0
    text = fileio.dumps({"v": third})
    assert "0.33333333333333331" in text
    assert json.loads(text)["v"] == third
    assert fileio.dumps(np.float64(third)) == "0.33333333333333331"  # a float subclass


def test_extreme_magnitude_round_trip():
    rng = qm.PortableRng(13)
    raw = rng.raw(2000)
    # random bit patterns reinterpreted as doubles, non-finite skipped
    vals = raw.view(np.float64)
    vals = vals[np.isfinite(vals)]
    vals = np.concatenate([vals, [5e-324, 1e-308, 1.7976931348623157e308, 0.0, -0.0]])
    for v in vals:
        assert json.loads(fileio.dumps({"v": float(v)}))["v"] == float(v)


# (re, im) pairs: signed zero, the least subnormal, the largest double and
# negative imaginary parts
EDGE_ENTRIES = [
    [(-0.0, -1.5), (5e-324, 0.0), (1.7976931348623157e308, -2.5e-10)],
    [(1 / 3, -0.0), (-1e-300, -1.7976931348623157e308), (2.0, -5e-324)],
]


@pytest.mark.parametrize("transpose", [False, True])
def test_matrix_document_bytes(transpose):
    rows = [list(r) for r in zip(*EDGE_ENTRIES)] if transpose else EDGE_ENTRIES
    a = np.array([[complex(re, im) for re, im in r] for r in EDGE_ENTRIES])
    if transpose:
        a = a.T
        assert not a.flags.c_contiguous
    entries = ", ".join(
        f"[{format(re, '.17g')}, {format(im, '.17g')}]" for r in rows for re, im in r
    )
    want = (f'{{"rows": {len(rows)}, "cols": {len(rows[0])}, "entries": [{entries}], '
            f'"m": {len(rows)}, "n": {len(rows[0])}}}')
    assert fileio.dumps(fileio.matrix_to_doc(a, len(rows), len(rows[0]))) == want


@pytest.mark.parametrize("value", [np.int64(1), np.bool_(True)])
def test_numpy_scalars_rejected(value):
    # documents hold plain Python values; numpy's int and bool are not int subclasses
    with pytest.raises(TypeError):
        fileio.dumps({"v": value})


@pytest.mark.parametrize("shape", [(4,), (2, 2, 2)])
def test_matrix_to_doc_rejects_non_matrix(shape):
    with pytest.raises(qm.DimensionError, match="expected a matrix"):
        fileio.matrix_to_doc(np.zeros(shape))


def test_entries_length_checked():
    with pytest.raises(qm.DimensionError):
        fileio.doc_to_matrix({"rows": 2, "cols": 2, "entries": [[1.0, 0.0]]})


def test_nonfinite_rejected():
    with pytest.raises(ValueError):
        fileio.dumps({"v": float("nan")})


def _per_value(obj):
    """dumps as one call per value: the reference for its one-pass lists."""
    if isinstance(obj, dict):
        return "{" + ", ".join(f"{json.dumps(k)}: {_per_value(v)}" for k, v in obj.items()) + "}"
    if isinstance(obj, (list, tuple)):
        return "[" + ", ".join(_per_value(v) for v in obj) + "]"
    return fileio.dumps(obj)


@pytest.mark.parametrize("items", [
    [], [[]], [0.5, -0.0, 5e-324], [(1 / 3, -2.5), [1e300, -0.0]],
    [1.0, 2], [True, 1.0], [[1.0, 2], [3.0, 4.0]], [[1.0, 2.0, 3.0]], [np.float64(0.1), 0.1],
    [[np.float64(0.1), 0.2]], [None, "x", 1.5], [[0.5, [1.0, 2.0]], [0.25]],
], ids=repr)
def test_float_lists_match_one_value_at_a_time(items):
    assert fileio.dumps({"v": items}) == _per_value({"v": items})


@pytest.mark.parametrize("items, first", [
    ([0.5, float("inf"), float("nan")], "inf"),
    ([[0.5, 0.0], [1.0, float("-inf")], [float("nan"), 0.0]], "-inf"),
    ([[float("nan"), float("inf")]], "nan"),
])
def test_float_lists_name_their_first_nonfinite_value(items, first):
    with pytest.raises(ValueError, match=f"^cannot serialize non-finite value {first}$"):
        fileio.dumps({"v": items})


def test_state_needs_dims(tmp_path):
    path = tmp_path / "plain.json"
    path.write_text(fileio.dumps(fileio.matrix_to_doc(np.eye(4) / 4)) + "\n")
    with pytest.raises(qm.DimensionError):
        fileio.load_state(str(path))
    loaded = fileio.load_state(str(path), m=2, n=2)
    assert loaded.m == 2


@pytest.mark.parametrize("dims", [{"m": 4}, {"n": 4}, {"m": 0}])
def test_state_dims_must_divide(tmp_path, dims):
    path = tmp_path / "six.json"
    path.write_text(fileio.dumps(fileio.matrix_to_doc(np.eye(6) / 6)) + "\n")
    with pytest.raises(qm.DimensionError, match=r"= (4|0) does not divide the matrix dimension 6"):
        fileio.load_state(str(path), **dims)


def test_integral_float_dims_accepted():
    doc = fileio.matrix_to_doc(np.eye(2) / 2)
    doc["rows"], doc["cols"] = 2.0, 2.0
    assert fileio.doc_to_matrix(doc).shape == (2, 2)


@pytest.mark.parametrize("value", [-1, 2.5, float("inf"), float("nan"), True, "2", None])
def test_malformed_dims_name_the_field(value):
    doc = fileio.matrix_to_doc(np.eye(2) / 2)
    doc["rows"] = value
    with pytest.raises(qm.DimensionError, match="rows must be a non-negative integer"):
        fileio.doc_to_matrix(doc)


@pytest.mark.parametrize("m, n, want", [
    (2, None, (2, 3)), (None, 3, (2, 3)), (2, 3, (2, 3)), (1, None, (1, 6)), (None, 1, (6, 1)),
])
def test_factor_dims_derives_or_checks(m, n, want):
    assert fileio.factor_dims(6, m, n) == want


@pytest.mark.parametrize("m, n", [(None, None), (4, None), (None, 0), (2, 2), (-2, -3), (-1, -6)])
def test_factor_dims_rejects(m, n):
    with pytest.raises(qm.DimensionError):
        fileio.factor_dims(6, m, n)
