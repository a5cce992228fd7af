import json

import numpy as np
import pytest

import qmarginal as qm
from qmarginal import fileio


def test_matrix_round_trip(tmp_path):
    rng = qm.PortableRng(1)
    a = rng.complex_normal((3, 5))
    path = tmp_path / "mat.json"
    fileio.save_doc(str(path), fileio.matrix_to_doc(a))
    back = fileio.doc_to_matrix(fileio.load_doc(str(path)))
    assert np.array_equal(a, back)  # 17 significant digits round-trip exactly


def test_bipartite_round_trip(tmp_path):
    state = qm.construct_rank_k(qm.random_density(3, 3, seed=2), 2, 4)
    path = tmp_path / "state.json"
    fileio.save_doc(str(path), fileio.state_to_doc(state))
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


def test_extreme_magnitude_round_trip():
    rng = qm.PortableRng(13)
    raw = rng.raw(2000)
    # random bit patterns reinterpreted as doubles, non-finite skipped
    vals = raw.view(np.float64)
    vals = vals[np.isfinite(vals)]
    vals = np.concatenate([vals, [5e-324, 1e-308, 1.7976931348623157e308, 0.0, -0.0]])
    for v in vals:
        assert json.loads(fileio.dumps({"v": float(v)}))["v"] == float(v)


def test_entries_length_checked():
    with pytest.raises(qm.DimensionError):
        fileio.doc_to_matrix({"rows": 2, "cols": 2, "entries": [[1.0, 0.0]]})


def test_nonfinite_rejected():
    with pytest.raises(ValueError):
        fileio.dumps({"v": float("nan")})


def test_state_needs_dims(tmp_path):
    path = tmp_path / "plain.json"
    fileio.save_doc(str(path), fileio.matrix_to_doc(np.eye(4) / 4))
    with pytest.raises(qm.DimensionError):
        fileio.load_state(str(path))
    loaded = fileio.load_state(str(path), m=2, n=2)
    assert loaded.m == 2


@pytest.mark.parametrize("dims", [{"m": 4}, {"n": 4}, {"m": 0}])
def test_state_dims_must_divide(tmp_path, dims):
    path = tmp_path / "six.json"
    fileio.save_doc(str(path), fileio.matrix_to_doc(np.eye(6) / 6))
    with pytest.raises(qm.DimensionError, match=r"= (4|0) does not divide the matrix dimension 6"):
        fileio.load_state(str(path), **dims)
