"""Output checkers, computed apart from qmarginal.

Every checker takes the program's output and what the benchmark itself
knows about the input, and returns ``None`` when the output is right or a
one-line reason when it is not. Only numpy is used here: the partial trace
is the benchmark's own block sum, ranks and spectra come from its own
``eigvalsh``, and the optimal residual is the closed form from the paper.
"""

from __future__ import annotations

import math

import numpy as np

MARGINAL_TOL = 1e-10
SPECTRUM_TOL = 1e-8
RANK_TOL = 1e-9  # eigenvalues below RANK_TOL * largest count as zero
NORM_TOL = 1e-9


def block_ptrace(rho, m: int, n: int) -> np.ndarray:
    """Sum of the m diagonal n x n blocks."""
    rho = np.asarray(rho)
    out = np.zeros((n, n), dtype=complex)
    for a in range(m):
        out += rho[a * n:(a + 1) * n, a * n:(a + 1) * n]
    return out


def eigs_desc(mat) -> np.ndarray:
    mat = np.asarray(mat, dtype=complex)
    return np.linalg.eigvalsh((mat + mat.conj().T) / 2.0)[::-1]


def num_rank(mat) -> int:
    w = eigs_desc(mat)
    return int(np.sum(w > RANK_TOL * max(float(w[0]), 0.0)))


def _max_diff(a, b) -> float:
    return float(np.abs(np.asarray(a) - np.asarray(b)).max())


def member(rho, m: int, n: int, sigma, rank: int | None = None):
    """rho is a state on (m, n) with first marginal sigma and the given rank."""
    rho = np.asarray(rho)
    if rho.shape != (m * n, m * n):
        return f"shape {rho.shape} != ({m * n}, {m * n})"
    if _max_diff(rho, rho.conj().T) > MARGINAL_TOL:
        return "not Hermitian"
    w = eigs_desc(rho)
    if w[-1] < -RANK_TOL:
        return f"negative eigenvalue {w[-1]:.3e}"
    diff = _max_diff(block_ptrace(rho, m, n), sigma)
    if diff > MARGINAL_TOL:
        return f"marginal off by {diff:.3e}"
    got = num_rank(rho)
    if rank is not None and got != rank:
        return f"rank {got} != {rank}"
    return None


def spectra_state(rho, m: int, n: int, lam, mu, marginal_is_diag: bool):
    """Joint spectrum mu; marginal diag(lam) exactly, or with spectrum lam."""
    rho = np.asarray(rho)
    if rho.shape != (m * n, m * n):
        return f"shape {rho.shape} != ({m * n}, {m * n})"
    lam = np.sort(np.asarray(lam, dtype=float))[::-1]
    mu = np.sort(np.asarray(mu, dtype=float))[::-1]
    diff = _max_diff(eigs_desc(rho), mu)
    if diff > SPECTRUM_TOL:
        return f"joint spectrum off by {diff:.3e}"
    red = block_ptrace(rho, m, n)
    if marginal_is_diag:
        diff = _max_diff(red, np.diag(lam))
        if diff > MARGINAL_TOL:
            return f"marginal off diag(lambda) by {diff:.3e}"
    else:
        diff = _max_diff(eigs_desc(red), lam)
        if diff > SPECTRUM_TOL:
            return f"marginal spectrum off by {diff:.3e}"
    return None


def residual_closed_form(sigma_eigs, m: int, k: int) -> np.ndarray:
    """Descending residual spectrum of the optimal rank-<=k approximation.

    Exact (all zeros) when m*k >= r; otherwise the tail eigenvalues
    lambda_{mk+1..r}, then zeros, then m*k copies of -mu_shift with
    mu_shift = (lambda_{mk+1} + ... + lambda_r) / (m*k).
    """
    lam = np.sort(np.asarray(sigma_eigs, dtype=float))[::-1]
    n = lam.size
    r = int(np.sum(lam > RANK_TOL * lam[0]))
    mk = m * k
    if mk >= r:
        return np.zeros(n)
    tail = lam[mk:r]
    shift = tail.sum() / mk
    return np.concatenate([tail, np.zeros(n - tail.size - mk), np.full(mk, -shift)])


def closed_form_norms(sigma_eigs, m: int, k: int) -> dict[float, float]:
    res = np.abs(residual_closed_form(sigma_eigs, m, k))
    return {1.0: float(res.sum()), 2.0: float(np.sqrt((res * res).sum())), math.inf: float(res.max())}


def optimal(res, sigma, sigma_eigs, m: int, k: int):
    """An ApproxResult: rank <= k, exactness flag, residual equal to the closed form."""
    n = sigma.shape[0]
    closed = residual_closed_form(sigma_eigs, m, k)
    r = int(np.sum(np.asarray(sigma_eigs) > RANK_TOL * max(sigma_eigs)))
    exact = m * k >= r
    if bool(res.exact) != exact:
        return f"exact flag {res.exact} != {exact}"
    rho = np.asarray(res.rho.matrix)
    achieved = block_ptrace(rho, m, n)
    if exact:
        why = member(rho, m, n, sigma, rank=math.ceil(r / m))
        if why:
            return "exact path: " + why
    else:
        if num_rank(rho) > k:
            return f"rank {num_rank(rho)} > {k}"
        if abs(np.trace(rho).real - 1.0) > MARGINAL_TOL:
            return "trace is not one"
    diff = _max_diff(eigs_desc(sigma - achieved), closed)
    if diff > SPECTRUM_TOL:
        return f"residual spectrum off the closed form by {diff:.3e}"
    diff = _max_diff(np.asarray(res.residual_spectrum), closed)
    if diff > SPECTRUM_TOL:
        return f"reported residual spectrum off the closed form by {diff:.3e}"
    return None


def competitor(min_norm: float, optimum: float):
    """No sampled competitor beats the optimal approximation."""
    if not math.isfinite(min_norm):
        return f"competitor norm {min_norm}"
    if min_norm < optimum - NORM_TOL * max(1.0, optimum):
        return f"competitor {min_norm!r} beats the optimum {optimum!r}"
    return None


def optimum_norms(res_norms: dict, closed: dict):
    """optimal_low_rank's own norms agree with the closed form."""
    for p, want in closed.items():
        got = res_norms.get(float(p))
        if got is None or abs(got - want) > SPECTRUM_TOL:
            return f"norm p={p}: {got!r} != closed form {want!r}"
    return None


def census(pairs, m: int, n: int, trials: int):
    """trials (lambda, mu) pairs of descending probability vectors."""
    if len(pairs) != trials:
        return f"{len(pairs)} pairs != {trials}"
    for lam, mu in pairs:
        for vec, size in ((lam, n), (mu, m * n)):
            vec = np.asarray(vec)
            if vec.shape != (size,):
                return f"spectrum shape {vec.shape} != ({size},)"
            if abs(vec.sum() - 1.0) > SPECTRUM_TOL or vec.min() < -SPECTRUM_TOL:
                return "spectrum is not a probability vector"
            if np.any(np.diff(vec) > SPECTRUM_TOL):
                return "spectrum is not descending"
    return None


def holds(value):
    """A compatibility predicate returned True (a bool or a CompatReport)."""
    return None if bool(value) is True else "pair from a real state reported incompatible"


def verdict(report, state_rank: int, n: int, sigma_rank: int, min_rank: bool):
    """Acceptance criterion 7 rules, plus the corpus's known verdict.

    The corpus holds members at the minimum rank, which are extreme, and
    members known not to be extreme; ``min_rank`` says which one this is.
    """
    ext = bool(report.is_extreme)
    if report.rank != state_rank:
        return f"report rank {report.rank} != {state_rank}"
    if state_rank == 1 and not ext:
        return "rank-one member reported not extreme"
    if state_rank > n and ext:
        return "member with rank > n reported extreme"
    if ext and state_rank > min(sigma_rank, n):
        return f"extreme verdict at rank {state_rank} > min(r, n)"
    if ext != min_rank:
        return f"verdict {ext} != known {min_rank}"
    if (report.certificate is None) != ext:
        return "certificate present iff not extreme is violated"
    return None


def split(halves, rho, m: int, n: int):
    """The two halves average to rho, keep its marginal and the first drops its rank."""
    rho = np.asarray(rho)
    h1, h2 = (np.asarray(h.matrix) for h in halves)
    diff = _max_diff((h1 + h2) / 2.0, rho)
    if diff > MARGINAL_TOL:
        return f"halves average off the state by {diff:.3e}"
    sigma = block_ptrace(rho, m, n)
    for h in (h1, h2):
        why = member(h, m, n, sigma)
        if why:
            return "half: " + why
    if num_rank(h1) >= num_rank(rho):
        return f"no rank drop: {num_rank(h1)} >= {num_rank(rho)}"
    return None
