import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import qmarginal as qm
from qmarginal import fileio
from qmarginal.cli import main

SRC = str(Path(__file__).resolve().parents[1] / "src")


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    out = json.loads(captured.out) if captured.out.strip() else None
    err = json.loads(captured.err) if captured.err.strip() else None
    return code, out, err


def write(tmp_path, name, doc):
    path = tmp_path / name
    fileio.save_doc(str(path), doc)
    return str(path)


@pytest.fixture
def uniform3(tmp_path):
    return write(tmp_path, "u3.json", fileio.matrix_to_doc(np.eye(3) / 3))


def test_feasible_rank3(capsys):
    code, out, _ = run_cli(capsys, "feasible", "--r", "3", "--m", "2")
    assert code == 0
    assert out == {"k_min": 2, "k_max": 6}


def test_feasible_extreme_flag(capsys):
    code, out, _ = run_cli(capsys, "feasible", "--r", "3", "--m", "2", "--extreme")
    assert code == 0
    assert out == {"k_min": 2, "k_max": 3}


def test_feasible_specific_k(capsys):
    code, out, _ = run_cli(capsys, "feasible", "--r", "3", "--m", "2", "--k", "7")
    assert code == 1
    assert out["feasible"] is False


def test_compat_spiked_pair_fails(tmp_path, capsys):
    lam = write(tmp_path, "lam.json", fileio.spectrum_to_doc([1 / 3, 1 / 3, 1 / 3]))
    mu = write(tmp_path, "mu.json", fileio.spectrum_to_doc([0.5, 0.1, 0.1, 0.1, 0.1, 0.1]))
    code, out, _ = run_cli(capsys, "compat", lam, mu)
    assert code == 1
    assert out["holds"] is False
    assert out["mode"] == "2x3"


def test_compat_2x2_mode(tmp_path, capsys):
    lam = write(tmp_path, "lam.json", fileio.spectrum_to_doc([0.5, 0.5]))
    mu = write(tmp_path, "mu.json", fileio.spectrum_to_doc([0.25, 0.25, 0.25, 0.25]))
    code, out, _ = run_cli(capsys, "compat", lam, mu)
    assert code == 0
    assert out["mode"] == "2x2"
    assert out["holds"] is True


def test_compat_necessary_mode(tmp_path, capsys):
    lam = write(tmp_path, "lam.json", fileio.spectrum_to_doc([0.5, 0.3, 0.2]))
    mu = write(tmp_path, "mu.json", fileio.spectrum_to_doc([1 / 9.0] * 9))
    code, out, _ = run_cli(capsys, "compat", lam, mu)
    assert out["mode"] == "necessary"


def test_approx_worked_example(tmp_path, capsys):
    sig = write(tmp_path, "sig.json", fileio.matrix_to_doc(np.diag([0.4, 0.3, 0.2, 0.1])))
    code, out, _ = run_cli(capsys, "approx", sig, "--m", "2", "--k", "1")
    assert code == 0
    np.testing.assert_allclose(out["residual_spectrum"], [0.2, 0.1, -0.15, -0.15], atol=1e-10)
    assert out["exact"] is False
    np.testing.assert_allclose(out["norms"]["1"], 0.6)
    np.testing.assert_allclose(out["norms"]["inf"], 0.2)


def test_approx_emit_curve(tmp_path, capsys):
    sig = write(tmp_path, "sig.json", fileio.matrix_to_doc(np.diag([0.4, 0.3, 0.2, 0.1])))
    curve = tmp_path / "curve.tsv"
    code, _, _ = run_cli(capsys, "approx", sig, "--m", "2", "--k", "1",
                         "--emit-curve", str(curve))
    assert code == 0
    lines = curve.read_text().strip().splitlines()
    assert lines[0].startswith("k\t")
    assert len(lines) == 3  # header + k=1 and k=2 (exact at ceil(4/2)=2)
    last = lines[-1].split("\t")
    assert float(last[1]) <= 1e-10


def test_validate_reports_density(uniform3, capsys):
    code, out, _ = run_cli(capsys, "validate", uniform3)
    assert code == 0
    assert out["valid"] and out["rank"] == 3


def test_validate_rejects_non_density(tmp_path, capsys):
    bad = write(tmp_path, "bad.json", fileio.matrix_to_doc(np.diag([1.5, -0.5])))
    code, out, err = run_cli(capsys, "validate", bad)
    assert code == 3
    assert out is None
    assert err["error"]["reason"] == "not-psd"


def test_validate_rejects_nan_entry(tmp_path, capsys):
    path = tmp_path / "nan.json"
    path.write_text('{"rows": 2, "cols": 2, "entries": [[NaN, 0], [0, 0], [0, 0], [0.5, 0]]}')
    code, out, err = run_cli(capsys, "validate", str(path))
    assert code == 3
    assert out is None
    assert err["error"]["type"] == "validation"
    assert err["error"]["reason"] == "not-finite"


def test_extreme_with_non_dividing_m(tmp_path, capsys):
    path = write(tmp_path, "six.json", fileio.matrix_to_doc(np.eye(6) / 6))
    code, out, err = run_cli(capsys, "extreme", path, "--m", "4")
    assert code == 2
    assert out is None
    assert err["error"]["type"] == "usage"
    message = err["error"]["message"]
    assert "4" in message and "6" in message
    assert "m*n = 0" not in message


def test_construct_pipeline_round_trip(uniform3, tmp_path, capsys):
    code, state_doc, _ = run_cli(capsys, "construct", uniform3, "--m", "2", "--k", "4")
    assert code == 0
    state_path = write(tmp_path, "state.json", state_doc)

    # emitted matrices re-validate when fed back in
    code, out, _ = run_cli(capsys, "validate", state_path)
    assert code == 0 and out["rank"] == 4

    code, red, _ = run_cli(capsys, "ptrace", state_path, "--side", "first")
    assert code == 0
    np.testing.assert_allclose(fileio.doc_to_matrix(red), np.eye(3) / 3, atol=1e-10)

    code, rep, _ = run_cli(capsys, "extreme", state_path)
    assert code == 0
    assert rep["is_extreme"] is False

    code, parts, _ = run_cli(capsys, "split", state_path)
    assert code == 0
    r1 = fileio.doc_to_matrix(parts["rho1"])
    r2 = fileio.doc_to_matrix(parts["rho2"])
    np.testing.assert_allclose((r1 + r2) / 2, fileio.doc_to_matrix(state_doc), atol=1e-10)


def test_construct_infeasible_rank(uniform3, capsys):
    code, out, err = run_cli(capsys, "construct", uniform3, "--m", "2", "--k", "1")
    assert code == 1
    assert err["error"]["type"] == "infeasible"


def test_purify(tmp_path, capsys):
    sig = write(tmp_path, "sig.json", fileio.matrix_to_doc(np.eye(2) / 2))
    code, out, _ = run_cli(capsys, "purify", sig, "--m", "2")
    assert code == 0
    mat = fileio.doc_to_matrix(out)
    assert np.linalg.matrix_rank(mat, tol=1e-9) == 1


def test_ptrace_rejects_negative_factor_dims(tmp_path, capsys):
    path = write(tmp_path, "i4.json", fileio.matrix_to_doc(np.eye(4) / 4))
    code, out, err = run_cli(capsys, "ptrace", path, "--side", "first", "--m", "-2", "--n", "-2")
    assert code == 2
    assert out is None
    assert err["error"]["type"] == "usage"
    assert "m=-2" in err["error"]["message"]


@pytest.mark.parametrize("argv", [["construct", "--k", "1"], ["purify"]], ids=["construct", "purify"])
def test_state_too_large_to_allocate_is_usage_error(uniform3, capsys, argv):
    # a (300000, 300000) complex state needs 1.31 TiB: the allocation fails at
    # once (under the default overcommit heuristic), so this test uses no memory
    code, out, err = run_cli(capsys, argv[0], uniform3, "--m", "100000", *argv[1:])
    assert code == 2
    assert out is None
    assert err["error"]["type"] == "usage"
    assert "Unable to allocate" in err["error"]["message"]


def test_split_on_extreme_state_refused(tmp_path, capsys):
    sig = write(tmp_path, "sig.json", fileio.matrix_to_doc(np.eye(2) / 2))
    _, state_doc, _ = run_cli(capsys, "purify", sig, "--m", "2")
    state_path = write(tmp_path, "pure.json", state_doc)
    code, _, err = run_cli(capsys, "split", state_path)
    assert code == 1
    assert "extreme" in err["error"]["message"]


def test_spread_spectrum_on_one_by_n_is_extreme(tmp_path, capsys):
    # S(sigma) = {sigma} on a (1, n) system, however spread sigma's spectrum
    d = np.array([1, 0.5, 1e-4, 5e-5])
    state = qm.construct_rank_k(qm.validate_density(np.diag(d / d.sum())), 1, 4)
    state_path = write(tmp_path, "spread.json", fileio.state_to_doc(state))
    code, rep, _ = run_cli(capsys, "extreme", state_path)
    assert code == 0
    assert rep["is_extreme"] is True
    code, out, err = run_cli(capsys, "split", state_path)
    assert code == 1
    assert out is None
    assert err["error"]["type"] == "infeasible"


def test_spectra_construct(tmp_path, capsys):
    lam = write(tmp_path, "lam.json", fileio.spectrum_to_doc([0.5, 0.5]))
    mu = write(tmp_path, "mu.json", fileio.spectrum_to_doc([0.5, 0.5, 0.0, 0.0]))
    code, out, _ = run_cli(capsys, "spectra-construct", lam, mu, "--m", "2")
    assert code == 0
    mat = fileio.doc_to_matrix(out)
    np.testing.assert_allclose(
        np.linalg.eigvalsh(mat)[::-1], [0.5, 0.5, 0, 0], atol=1e-8
    )


def test_construct23_command(tmp_path, capsys):
    lam = write(tmp_path, "lam.json", fileio.spectrum_to_doc([1 / 3, 1 / 3, 1 / 3]))
    mu = write(tmp_path, "mu.json", fileio.spectrum_to_doc([1 / 3, 1 / 3, 1 / 3, 0, 0, 0]))
    code, out, _ = run_cli(capsys, "construct23", lam, mu)
    assert code == 0
    assert (out["m"], out["n"]) == (2, 3)


def test_sample_reproducible(uniform3, capsys):
    code, out1, _ = run_cli(capsys, "sample", uniform3, "--m", "2", "--seed", "5", "--trials", "2")
    code2, out2, _ = run_cli(capsys, "sample", uniform3, "--m", "2", "--seed", "5", "--trials", "2")
    assert code == code2 == 0
    assert out1 == out2
    assert len(out1["states"]) == 2


def test_sample_seed_from_env(uniform3, capsys, monkeypatch):
    monkeypatch.setenv("REDUCED_STATE_SEED", "77")
    code, out, _ = run_cli(capsys, "sample", uniform3, "--m", "2")
    assert code == 0
    assert out["seed"] == 77


def test_demo_s5(capsys):
    code, out, _ = run_cli(capsys, "demo-s5")
    assert code == 0
    assert out["element_ranks"] == {"k_min": 2, "k_max": 6}
    assert out["extreme_point_ranks"] == {"k_min": 2, "k_max": 3}
    assert out["joint_spectrum_feasibility"]["predicate"] == "a2+a3 >= 1/3 >= a4+a5"


def test_purify_infeasible(tmp_path, capsys):
    sig = write(tmp_path, "sig.json", fileio.matrix_to_doc(np.eye(3) / 3))
    code, _, err = run_cli(capsys, "purify", sig, "--m", "2")
    assert code == 1
    assert err["error"]["type"] == "infeasible"


def test_spectra_construct_wrong_regime(tmp_path, capsys):
    lam = write(tmp_path, "lam.json", fileio.spectrum_to_doc([0.5, 0.3, 0.2]))
    mu = write(tmp_path, "mu.json", fileio.spectrum_to_doc(np.full(6, 1 / 6)))
    code, _, err = run_cli(capsys, "spectra-construct", lam, mu, "--m", "2")
    assert code == 1
    assert err["error"]["type"] == "infeasible"


def test_construct23_infeasible_pair(tmp_path, capsys):
    lam = write(tmp_path, "lam.json", fileio.spectrum_to_doc([1 / 3, 1 / 3, 1 / 3]))
    mu = write(tmp_path, "mu.json", fileio.spectrum_to_doc([0.5, 0.1, 0.1, 0.1, 0.1, 0.1]))
    code, _, err = run_cli(capsys, "construct23", lam, mu)
    assert code == 1
    assert err["error"]["type"] == "infeasible"


def test_construct23_agrees_with_compat_at_band_edge(tmp_path, capsys):
    # the slack of lambda1 <= mu1+mu2 is -1e-10: compat_2x3 accepts the pair
    # only inside its MAJ_TOL band
    lam_v = [0.6481379730610417, 0.22166136122884944, 0.13020066571010885]
    mu_v = [0.3915197345887575, 0.2566182383722843, 0.14535394823968167,
            0.10527630286326911, 0.06870245961829173, 0.03252931631771578]
    lam = write(tmp_path, "lam.json", fileio.spectrum_to_doc(lam_v))
    mu = write(tmp_path, "mu.json", fileio.spectrum_to_doc(mu_v))
    code, out, _ = run_cli(capsys, "compat", lam, mu)
    assert code == 0 and out["holds"] is True
    code, out, _ = run_cli(capsys, "construct23", lam, mu)
    assert code == 0
    rho = fileio.doc_to_matrix(out)
    assert np.abs(np.linalg.eigvalsh(rho)[::-1] - mu_v).max() <= 1e-8
    red = np.einsum("aiaj->ij", rho.reshape(2, 3, 2, 3))
    assert np.abs(np.linalg.eigvalsh(red)[::-1] - lam_v).max() <= 1e-10


def test_extreme_cert_out(tmp_path, capsys):
    state = qm.construct_rank_k(qm.validate_density(np.eye(3) / 3), 2, 5)
    state_path = write(tmp_path, "state.json", fileio.state_to_doc(state))
    cert_path = tmp_path / "cert.json"
    code, out, _ = run_cli(capsys, "extreme", state_path, "--cert-out", str(cert_path))
    assert code == 0 and out["is_extreme"] is False
    cert = fileio.doc_to_matrix(fileio.load_doc(str(cert_path)))
    assert cert.shape == (5, 5)


def test_out_flag_writes_document(uniform3, tmp_path, capsys):
    out_path = tmp_path / "out.json"
    code, doc, _ = run_cli(capsys, "construct", uniform3, "--m", "2", "--k", "3",
                           "--out", str(out_path))
    assert code == 0
    assert json.loads(out_path.read_text()) == doc


def test_validate_tolerance_overrides(tmp_path, capsys):
    slightly_off = np.diag([0.5, 0.5 + 2e-9])
    path = write(tmp_path, "m.json", fileio.matrix_to_doc(slightly_off))
    code, _, err = run_cli(capsys, "validate", path)
    assert code == 3 and err["error"]["reason"] == "trace-not-one"
    code, out, _ = run_cli(capsys, "validate", path, "--trace-tol", "1e-6")
    assert code == 0 and out["valid"]


def test_usage_error(capsys):
    code, out, err = run_cli(capsys, "construct", "missing.json", "--m", "2")
    assert code == 2
    assert err["error"]["type"] == "usage"


def test_unknown_flag(capsys):
    code, _, err = run_cli(capsys, "feasible", "--r", "3")
    assert code == 2
    assert err["error"]["type"] == "usage"


def test_malformed_inputs_are_usage_errors(tmp_path, capsys):
    half = '"entries": [[0.5, 0], [0, 0], [0, 0], [0.5, 0]]'
    # (document, text the error message must contain)
    cases = [
        ('{"rows": 2, "cols": 2, "entries": [["a", "b"], [0, 0], [0, 0], [1, 0]]}', ""),
        ('[1, 2, 3]', ""),
        ('{"rows": 2, "cols": 2}', ""),
        ('not json at all', ""),
        ('{"rows": 1e400, "cols": 2, %s}' % half, "rows"),
        ('{"rows": 2.5, "cols": 2, %s}' % half, "rows"),
        ('{"rows": "2", "cols": 2, %s}' % half, "rows"),
        ('{"rows": -1, "cols": -1, "entries": [[1, 0]]}', "rows"),
        ('{"rows": 2, "cols": 2, "m": 1e400, %s}' % half, "m must"),
        ('{"rows": 2, "cols": 2, "m": 2.7, %s}' % half, "m must"),
        ('{"rows": 1, "cols": 1, "entries": [[%s, 0]]}' % ("9" * 400), "OverflowError"),
        ('{"rows": 1, "cols": 1, "entries": [[true, false]]}', "entries[0]"),
        ('{"rows": 2, "cols": 2, "entries": [[0.5, 0], [0, 0], 5, [0.5, 0]]}', "entries[2]"),
        ('[{"rows": 1, "cols": 1, "entries": [[1, 0]]}]', "JSON object"),
    ]
    for i, (text, needle) in enumerate(cases):
        path = tmp_path / f"bad{i}.json"
        path.write_text(text)
        for command in ("validate", "extreme"):
            code, out, err = run_cli(capsys, command, str(path))
            assert code == 2, (command, text)
            assert out is None
            assert err["error"]["type"] == "usage"
            assert needle in err["error"]["message"], (command, text)
    lam = tmp_path / "bool_values.json"
    lam.write_text('{"values": [true]}')
    mu = write(tmp_path, "mu.json", fileio.spectrum_to_doc([0.5, 0.5]))
    code, out, err = run_cli(capsys, "compat", str(lam), mu)
    assert (code, out, err["error"]["type"]) == (2, None, "usage")
    assert "values[0]" in err["error"]["message"]


@pytest.mark.parametrize("command", ["compat", "spectra-construct"])
def test_empty_spectrum_is_usage_error(tmp_path, capsys, command):
    empty = tmp_path / "empty.json"
    empty.write_text('{"values": []}')
    extra = ["--m", "2"] if command == "spectra-construct" else []
    code, out, err = run_cli(capsys, command, str(empty), str(empty), *extra)
    assert code == 2
    assert out is None
    assert err["error"]["type"] == "usage"
    assert "no values" in err["error"]["message"]


def test_spectra_construct_rejects_nan_spectrum(tmp_path, capsys):
    lam = tmp_path / "lam.json"
    lam.write_text('{"values": [NaN, 1.0]}')
    mu = write(tmp_path, "mu.json", fileio.spectrum_to_doc([0.25] * 4))
    code, out, err = run_cli(capsys, "spectra-construct", str(lam), mu, "--m", "2")
    assert code == 2
    assert out is None
    assert err["error"]["type"] == "usage"
    assert "probability vector" in err["error"]["message"]


def test_validate_empty_matrix(tmp_path, capsys):
    path = write(tmp_path, "empty.json", {"rows": 0, "cols": 0, "entries": []})
    code, out, err = run_cli(capsys, "validate", path)
    assert code == 2
    assert out is None
    assert "non-empty square matrix" in err["error"]["message"]


def test_validate_reports_unclipped_min_eigenvalue(tmp_path, capsys):
    path = write(tmp_path, "m.json", fileio.matrix_to_doc(np.diag([1 + 1e-10, -1e-10])))
    code, out, _ = run_cli(capsys, "validate", path)
    assert code == 0
    assert out["min_eigenvalue"] == -1e-10


@pytest.mark.parametrize("argv", [
    ["approx", "SIGMA", "--m", "2", "--k", "1", "--norms", "nan"],
    ["feasible", "--r", "3", "--m", "2", "--out", "MISSING_DIR/x.json"],
    ["purify", "SIGMA", "--m", "0"],
    ["construct", "SIGMA", "--m", "2", "--k", "0"],
    ["spectra-construct", "LAM", "MU", "--m", "0"],
    ["sample", "SIGMA", "--m", "2", "--mix", "0"],
    ["sample", "SIGMA", "--m", "2", "--trials", "0"],
    ["validate", "SIGMA", "--rank-tol-factor", "nan"],
    ["validate", "SIGMA", "--trace-tol", "nan"],
    ["validate", "SIGMA", "--psd-tol", "-1"],
    ["validate", "SIGMA", "--hermit-tol", "inf"],
    ["compat", "LAM", "MU", "--m", "2"],
], ids=["approx-nan-norm", "out-missing-dir", "purify-m0", "construct-k0",
        "spectra-construct-m0", "sample-mix0", "sample-trials0", "rank-tol-factor-nan",
        "trace-tol-nan", "psd-tol-negative", "hermit-tol-inf", "compat-m-mismatch"])
def test_bad_arguments_are_usage_errors(tmp_path, capsys, argv):
    paths = {
        "SIGMA": write(tmp_path, "sig.json", fileio.matrix_to_doc(np.diag([0.4, 0.3, 0.2, 0.1]))),
        "LAM": write(tmp_path, "lam.json", fileio.spectrum_to_doc([1.0])),
        "MU": write(tmp_path, "mu.json", fileio.spectrum_to_doc([0.5, 0.3, 0.2])),
    }
    argv = [paths.get(a, a.replace("MISSING_DIR", str(tmp_path / "missing"))) for a in argv]
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out is None
    assert err["error"]["type"] == "usage"
    flag = next((a for a in argv if "-tol" in a), None)
    assert flag is None or flag in err["error"]["message"]


def test_closed_stdout_prints_no_traceback(tmp_path):
    sigma = qm.random_density(16, 16, seed=3)
    path = write(tmp_path, "sig16.json", fileio.matrix_to_doc(sigma.matrix))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))}
    with subprocess.Popen(
        [sys.executable, "-m", "qmarginal.cli", "approx", path, "--m", "4", "--k", "2"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
    ) as proc:
        proc.stdout.close()  # the reader leaves before the child writes its document
        err = proc.stderr.read().decode()
        code = proc.wait(timeout=120)
    assert "Traceback" not in err and "Exception ignored" not in err, err
    assert 0 <= code <= 3
