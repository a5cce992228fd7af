"""The four workloads: seeded inputs and one round of checked operations each.

A round is a fixed list of operations covering the workload's whole size
grid; it is the benchmark's sample unit. ``build(seed, workdir, traced)``
makes the inputs from the seed alone and returns the round as a list of
``Op``. Operations call qmarginal through module attributes looked up at
call time, so the traced run's wrappers see every call.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import subprocess
import sys
import time
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

import qmarginal as qm
from qmarginal import cli as qcli

import checks


@dataclass(frozen=True)
class Op:
    name: str
    run: Callable[[], Any]
    check: Callable[[Any], "str | None"]


# ---------------------------------------------------------------------------
# seeded inputs, generated with numpy alone
# ---------------------------------------------------------------------------

def _rng(seed: int, *tag: int) -> np.random.Generator:
    return np.random.default_rng([seed, *tag])


def _unitary(n: int, rng: np.random.Generator) -> np.ndarray:
    g = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    q, r = np.linalg.qr(g)
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def _sigma(n: int, r: int, rng: np.random.Generator):
    """Rank-r density matrix with eigenvalues in a 1:3 band (rank is unambiguous)."""
    lam = rng.uniform(0.5, 1.5, r)
    lam /= lam.sum()
    u = _unitary(n, rng)[:, :r]
    mat = (u * lam) @ u.conj().T
    eigs = np.concatenate([np.sort(lam)[::-1], np.zeros(n - r)])
    return qm.validate_density((mat + mat.conj().T) / 2.0), eigs


def _random_state(m: int, n: int, rank: int, rng: np.random.Generator) -> np.ndarray:
    g = rng.normal(size=(m * n, rank)) + 1j * rng.normal(size=(m * n, rank))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


def _spectra_pair(m: int, n: int, rng: np.random.Generator):
    """(marginal, joint) spectra of a random full-rank state: a compatible pair."""
    rho = _random_state(m, n, m * n, rng)
    return checks.eigs_desc(checks.block_ptrace(rho, m, n)), checks.eigs_desc(rho)


def _matrix_doc(mat, m=None, n=None) -> dict:
    mat = np.asarray(mat, dtype=complex)
    doc = {
        "rows": mat.shape[0],
        "cols": mat.shape[1],
        "entries": [[float(z.real), float(z.imag)] for z in mat.reshape(-1)],
    }
    if m is not None:
        doc["m"], doc["n"] = m, n
    return doc


def _doc_matrix(doc) -> np.ndarray:
    a = np.asarray(doc["entries"], dtype=float).reshape(-1, 2)
    return (a[:, 0] + 1j * a[:, 1]).reshape(doc["rows"], doc["cols"])


def _write(path: str, doc: dict) -> None:
    with open(path, "w") as fh:
        json.dump(doc, fh)  # repr floats round-trip exactly


# ---------------------------------------------------------------------------
# construct: the diagonal-basis constructions and their conjugation back
# ---------------------------------------------------------------------------

# (m, n, r) points with every operation: k at ceil(r/m), r and r*m, a
# non-extreme member, and both approximation paths
CONSTRUCT_FULL = [(2, 8, 8), (4, 8, 6), (2, 16, 12), (8, 16, 16)]
# large points up to n = 32 and mn = 128, with one conjugating operation each
# and the inexact approximation, which skips the conjugation
CONSTRUCT_LARGE = [
    (4, 24, 24, "rank_k", 24),
    (2, 32, 32, "nonextreme", 32),
    (4, 32, 32, "rank_k", 8),
]
# (m, n) with m >= n for the prescribed-spectra construction
CONSTRUCT_SPECTRA = [(4, 4), (8, 4), (8, 8), (16, 8)]


def _rank_k_op(sigma, eigs, m, n, k):
    return Op(
        f"construct_rank_k({m},{n},k={k})",
        lambda: qm.construct_rank_k(sigma, m, k),
        lambda out: checks.member(out.matrix, m, n, sigma.matrix, rank=k),
    )


def _nonextreme_op(sigma, eigs, m, n, k):
    return Op(
        f"nonextreme_of_rank_k({m},{n},k={k})",
        lambda: qm.nonextreme_of_rank_k(sigma, m, k),
        lambda out: checks.member(out.matrix, m, n, sigma.matrix, rank=k),
    )


def _optimal_op(sigma, eigs, m, n, k):
    return Op(
        f"optimal_low_rank({m},{n},k={k})",
        lambda: qm.optimal_low_rank(sigma, m, k),
        lambda out: checks.optimal(out, sigma.matrix, eigs, m, k),
    )


def _spectra_op(lam, mu, m, n):
    return Op(
        f"construct_with_spectra({m},{n})",
        lambda: qm.construct_with_spectra(lam, mu, m),
        lambda out: checks.spectra_state(out.matrix, m, n, lam, mu, marginal_is_diag=True),
    )


def build_construct(seed: int, workdir: str, traced: bool) -> list[Op]:
    ops = []
    for idx, (m, n, r) in enumerate(CONSTRUCT_FULL):
        sigma, eigs = _sigma(n, r, _rng(seed, 1, idx))
        lo = math.ceil(r / m)
        for k in (lo, r, r * m):
            ops.append(_rank_k_op(sigma, eigs, m, n, k))
        ops.append(_nonextreme_op(sigma, eigs, m, n, r))
        ops.append(_optimal_op(sigma, eigs, m, n, lo))
        ops.append(_optimal_op(sigma, eigs, m, n, lo - 1))
    makers = {"rank_k": _rank_k_op, "nonextreme": _nonextreme_op}
    for idx, (m, n, r, kind, k) in enumerate(CONSTRUCT_LARGE):
        sigma, eigs = _sigma(n, r, _rng(seed, 2, idx))
        ops.append(makers[kind](sigma, eigs, m, n, k))
        ops.append(_optimal_op(sigma, eigs, m, n, math.ceil(r / m) // 2))
    for idx, (m, n) in enumerate(CONSTRUCT_SPECTRA):
        lam, mu = _spectra_pair(m, n, _rng(seed, 3, idx))
        ops.append(_spectra_op(lam, mu, m, n))
    return ops


# ---------------------------------------------------------------------------
# extreme: extremality certification and splitting on a corpus of known verdicts
# ---------------------------------------------------------------------------

# (m, n, r): the member at the minimum rank ceil(r/m) is extreme (singular
# values only) and the thin member at ceil(r/m) + 1 from nonextreme_of_rank_k
# is not (full SVD of an r^2 x n^2 stack, then a split)
EXTREME_GRID = [(2, 8, 8), (4, 8, 8), (2, 16, 16), (8, 16, 16), (4, 24, 24), (2, 32, 32)]
# rank-one member: r <= m
EXTREME_RANK_ONE = (4, 8, 4)
# members with rank > n, so rank^2 > n^2: the full-U SVD path, which sets
# this workload's peak memory
EXTREME_FULL_U = [(4, 8, 8, 32)]


def _extreme_ops(state, sigma_rank, m, n, min_rank):
    rank = checks.num_rank(state.matrix)
    ops = [Op(
        f"is_extreme({m},{n},rank={rank})",
        lambda: qm.is_extreme(state),
        lambda rep: checks.verdict(rep, rank, n, sigma_rank, min_rank),
    )]
    if not min_rank:
        # the certificate is computed at setup, so a split never depends on a
        # verdict from this round
        cert = qm.is_extreme(state).certificate
        ops.append(Op(
            f"split_nonextreme({m},{n},rank={rank})",
            lambda: qm.split_nonextreme(state, cert),
            lambda halves: checks.split(halves, state.matrix, m, n),
        ))
    return ops


def build_extreme(seed: int, workdir: str, traced: bool) -> list[Op]:
    ops = []
    for idx, (m, n, r) in enumerate(EXTREME_GRID):
        sigma, _ = _sigma(n, r, _rng(seed, 4, idx))
        lo = math.ceil(r / m)
        ops += _extreme_ops(qm.construct_rank_k(sigma, m, lo), r, m, n, True)
        ops += _extreme_ops(qm.nonextreme_of_rank_k(sigma, m, lo + 1), r, m, n, False)
    m, n, r = EXTREME_RANK_ONE
    sigma, _ = _sigma(n, r, _rng(seed, 5, 0))
    ops += _extreme_ops(qm.construct_rank_k(sigma, m, 1), r, m, n, True)
    for idx, (m, n, r, k) in enumerate(EXTREME_FULL_U):
        sigma, _ = _sigma(n, r, _rng(seed, 6, idx))
        ops += _extreme_ops(qm.construct_rank_k(sigma, m, k), r, m, n, False)
    return ops


# ---------------------------------------------------------------------------
# oracle: seeded samplers, kernels and feasibility predicates
# ---------------------------------------------------------------------------

# (m, n, r, k, trials): inexact cases (m*k < r), so the optimum is not zero
ORACLE_COMPETITORS = [(2, 6, 6, 2, 20000), (3, 4, 4, 1, 20000), (2, 8, 8, 3, 10000)]
# (m, n, trials): the exact criteria for (2, 2) and (2, 3), the necessary one for m < n
ORACLE_CENSUS = [(2, 2, 400), (2, 3, 400), (2, 4, 400)]


def _compat(m: int, n: int, lam, mu):
    """The exact criterion where one is known, the necessary conditions otherwise."""
    if (m, n) == (2, 2):
        return qm.compat_2x2(lam, mu)
    if (m, n) == (2, 3):
        return qm.compat_2x3(lam, mu)
    return qm.necessary_spectra_compat(lam, mu, m)


def build_oracle(seed: int, workdir: str, traced: bool) -> list[Op]:
    ops = []
    for idx, (m, n, r, k, trials) in enumerate(ORACLE_COMPETITORS):
        sigma, eigs = _sigma(n, r, _rng(seed, 7, idx))
        closed = checks.closed_form_norms(eigs, m, k)
        opt = qm.optimal_low_rank(sigma, m, k, norms=tuple(closed))
        agree = checks.optimum_norms(opt.norms, closed)
        cfg = qm.SamplerConfig(seed=int(_rng(seed, 8, idx).integers(2**62)), trials=trials)
        for p in closed:
            ops.append(Op(
                f"search_min_norm({m},{n},k={k},p={p})",
                lambda p=p: qm.search_min_norm(sigma, m, k, p, cfg),
                lambda out, p=p: agree or checks.competitor(out, opt.norms[p]),
            ))
    for idx, (m, n, trials) in enumerate(ORACLE_CENSUS):
        cfg = qm.SamplerConfig(seed=int(_rng(seed, 9, idx).integers(2**62)), trials=trials)
        ops.append(Op(
            f"spectra_pair_census({m},{n})",
            lambda m=m, n=n, cfg=cfg: qm.spectra_pair_census(m, n, cfg),
            lambda out, m=m, n=n, t=trials: checks.census(out, m, n, t),
        ))
        # the pairs are fixed at setup so the round's operations never depend
        # on another operation's output
        pairs = qm.spectra_pair_census(m, n, cfg)
        for lam, mu in pairs:
            ops.append(Op(f"compat({m},{n})", lambda lam=lam, mu=mu, m=m, n=n: _compat(m, n, lam, mu),
                          checks.holds))
            if (m, n) == (2, 3):
                ops.append(Op(
                    "construct_23",
                    lambda lam=lam, mu=mu: qm.construct_23(lam, mu),
                    lambda out, lam=lam, mu=mu: checks.spectra_state(
                        out.matrix, 2, 3, lam, mu, marginal_is_diag=False),
                ))
    return ops


# ---------------------------------------------------------------------------
# cli: one qmarginal process per invocation over files written at setup
# ---------------------------------------------------------------------------

def _cli_check(want_code: int, inspect: Callable[[dict], "str | None"]):
    def check(out):
        code, stdout = out
        if code != want_code:
            return f"exit code {code} != {want_code}"
        try:
            doc = json.loads(stdout)
        except ValueError as exc:
            return f"stdout is not JSON: {exc}"
        return inspect(doc)
    return check


def _expect(cond: bool, why: str):
    return None if cond else why


def _cli_calls(seed: int, workdir: str) -> list[tuple[str, list[str], int, Callable]]:
    """(name, argv, documented exit code, checker of the parsed document)."""
    rng = _rng(seed, 10)
    path = lambda name: os.path.join(workdir, name)  # noqa: E731

    m, n = 8, 16
    state = _random_state(m, n, 2, rng)  # marginal rank 16 = 2 * 8: minimum rank, so extreme
    _write(path("state.json"), _matrix_doc(state, m, n))
    sigma, eigs = _sigma(16, 16, rng)
    _write(path("sigma.json"), _matrix_doc(sigma.matrix))
    lam8, mu128 = _spectra_pair(16, 8, rng)
    _write(path("lam8.json"), {"values": lam8.tolist()})
    _write(path("mu128.json"), {"values": mu128.tolist()})
    lam3, mu6 = _spectra_pair(2, 3, rng)
    _write(path("lam3.json"), {"values": lam3.tolist()})
    _write(path("mu6.json"), {"values": mu6.tolist()})
    r, mf = int(rng.integers(5, 41)), int(rng.integers(2, 9))
    sample_seed = int(rng.integers(2**31))
    ptrace = checks.block_ptrace(state, m, n)

    def approx(doc):
        closed = checks.residual_closed_form(eigs, 4, 2)
        rho = _doc_matrix(doc["rho"])
        own = checks.eigs_desc(sigma.matrix - checks.block_ptrace(rho, 4, 16))
        diff = max(np.abs(np.asarray(doc["residual_spectrum"]) - closed).max(),
                   np.abs(own - closed).max())
        return (_expect(doc["exact"] is False, "approx reported exact")
                or _expect(diff <= checks.SPECTRUM_TOL, f"residual off the closed form by {diff:.3e}")
                or _expect(checks.num_rank(rho) <= 2, "approximation rank above k"))

    return [
        ("validate", ["validate", path("state.json")], 0,
         lambda d: _expect(d["valid"] is True and d["dim"] == m * n and d["rank"] == 2,
                           f"validate reported {d}")),
        ("extreme", ["extreme", path("state.json")], 0,
         lambda d: _expect(d["is_extreme"] is True and d["rank"] == 2 and d["certificate"] is None,
                           "minimum-rank state not reported extreme")),
        ("ptrace", ["ptrace", path("state.json"), "--side", "first"], 0,
         lambda d: _expect(np.abs(_doc_matrix(d) - ptrace).max() <= checks.MARGINAL_TOL,
                           "partial trace differs from the block sum")),
        ("construct", ["construct", path("sigma.json"), "--m", "8", "--k", "16"], 0,
         lambda d: checks.member(_doc_matrix(d), 8, 16, sigma.matrix, rank=16)),
        ("approx", ["approx", path("sigma.json"), "--m", "4", "--k", "2"], 0, approx),
        ("sample", ["sample", path("sigma.json"), "--m", "4", "--seed", str(sample_seed)], 0,
         lambda d: checks.member(_doc_matrix(d["states"][0]), 4, 16, sigma.matrix)),
        ("spectra-construct",
         ["spectra-construct", path("lam8.json"), path("mu128.json"), "--m", "16"], 0,
         lambda d: checks.spectra_state(_doc_matrix(d), 16, 8, lam8, mu128, marginal_is_diag=True)),
        ("feasible", ["feasible", "--r", str(r), "--m", str(mf)], 0,
         lambda d: _expect(d["k_min"] == math.ceil(r / mf) and d["k_max"] == r * mf,
                           f"rank range {d} for r={r}, m={mf}")),
        ("feasible-false", ["feasible", "--r", str(r), "--m", str(mf), "--k", str(r * mf + 1)], 1,
         lambda d: _expect(d["feasible"] is False, "rank above r*m reported feasible")),
        ("compat", ["compat", path("lam3.json"), path("mu6.json")], 0,
         lambda d: _expect(d["mode"] == "2x3" and d["holds"] is True,
                           "pair from a real state reported incompatible")),
        ("construct23", ["construct23", path("lam3.json"), path("mu6.json")], 0,
         lambda d: checks.spectra_state(_doc_matrix(d), 2, 3, lam3, mu6, marginal_is_diag=False)),
    ]


def _subprocess_call(argv: list[str]):
    proc = subprocess.run(
        [sys.executable, "-m", "qmarginal.cli", *argv],
        capture_output=True, text=True, timeout=120,
    )
    return proc.returncode, proc.stdout


def _inprocess_call(argv: list[str]):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = qcli.main(argv)
    return code, out.getvalue()


def startup_ns() -> int:
    """Wall time of a fresh interpreter importing the CLI."""
    t0 = time.perf_counter_ns()
    subprocess.run([sys.executable, "-c", "import qmarginal.cli"], check=True, timeout=120)
    return time.perf_counter_ns() - t0


def build_cli(seed: int, workdir: str, traced: bool) -> list[Op]:
    # the traced run calls cli.main in-process on the same argv, so the
    # wrappers see the load, the handler and the dump
    call = _inprocess_call if traced else _subprocess_call
    return [
        Op(f"cli {name}", lambda argv=argv: call(argv), _cli_check(code, inspect))
        for name, argv, code, inspect in _cli_calls(seed, workdir)
    ]


WORKLOADS = {
    "construct": build_construct,
    "extreme": build_extreme,
    "oracle": build_oracle,
    "cli": build_cli,
}
