"""Explicit constructions of bipartite states with prescribed marginals.

Every construction works in the eigenbasis of the target marginal (where
it is a sparse exact formula) and is conjugated back by ``I_m (x) V``,
which maps states over diag(d) to states over V diag(d) V*.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionError,
    InfeasibleError,
    InternalInvariantError,
    PreconditionError,
    UnsupportedRegimeError,
)
from .feasibility import _sorted_desc, compat_2x3, element_rank_range
from .linalg import (
    BipartiteState,
    DensityMatrix,
    bipartite,
    fold,
    hermitian_eig,
    partial_trace_first,
    unfold,
)
from .majorization import MAJ_TOL, majorizes, schatten_norm

SPECTRUM_TOL = 1e-8
MARGINAL_TOL = 1e-10


@dataclass(frozen=True)
class ApproxResult:
    """Optimal rank-constrained approximation of a target marginal.

    ``residual_spectrum`` is the descending spectrum of
    ``target - achieved_sigma``; when the approximation is not exact it
    consists of the truncated tail eigenvalues, padding zeros, and
    ``m*k`` trailing copies of ``-mu_shift``, and it is majorized by the
    residual spectrum of every competitor of rank at most k.
    """

    rho: BipartiteState
    achieved_sigma: np.ndarray
    residual_spectrum: np.ndarray
    mu_shift: float
    exact: bool
    norms: dict[float, float]


@dataclass(frozen=True)
class GadgetSpec:
    """2x2 real symmetric block with prescribed eigenvalues and (1,1) entry.

    The off-diagonal ``sqrt((eig_hi - corner)(corner - eig_lo))`` makes
    ``[[corner, a], [a, eig_hi + eig_lo - corner]]`` have eigenvalues
    exactly {eig_hi, eig_lo}.
    """

    eig_hi: float
    eig_lo: float
    corner: float

    def __post_init__(self):
        if not self.eig_lo - MAJ_TOL <= self.corner <= self.eig_hi + MAJ_TOL:
            raise PreconditionError(
                f"corner {self.corner} outside [{self.eig_lo}, {self.eig_hi}]"
            )

    @property
    def offdiag(self) -> float:
        prod = (self.eig_hi - self.corner) * (self.corner - self.eig_lo)
        return math.sqrt(max(prod, 0.0))

    @property
    def matrix(self) -> np.ndarray:
        a = self.offdiag
        return np.array(
            [[self.corner, a], [a, self.eig_hi + self.eig_lo - self.corner]]
        )


def gadget(eig_hi: float, eig_lo: float, corner: float) -> np.ndarray:
    """2x2 real symmetric matrix with eigenvalues {eig_hi, eig_lo} and given corner."""
    return GadgetSpec(eig_hi=eig_hi, eig_lo=eig_lo, corner=corner).matrix


def _conjugate_up(rho0: np.ndarray, v: np.ndarray, m: int) -> np.ndarray:
    """(I_m (x) V) rho0 (I_m (x) V)* without forming the Kronecker factor."""
    n = v.shape[0]
    mn = m * n
    blocks = rho0.reshape(m, n, m, n)
    out = np.einsum("pi,aibj,qj->apbq", v, blocks, v.conj(), optimize=True)
    return out.reshape(mn, mn)


def purify(sigma: DensityMatrix, m: int) -> BipartiteState:
    """Rank-one state on an (m, n) system with first marginal sigma; needs m >= rank."""
    r = sigma.rank
    if m < r:
        raise InfeasibleError(
            f"purification needs first-factor dim >= rank: m={m} < rank={r}"
        )
    n = sigma.dim
    w, v = hermitian_eig(sigma.matrix)
    cols = np.zeros((n, m), dtype=complex)
    cols[:, :r] = v[:, :r] * np.sqrt(np.clip(w[:r], 0.0, None))
    vec = unfold(cols)
    return bipartite(np.outer(vec, vec.conj()), m, n)


def _case_split_counts(r: int, k: int) -> tuple[int, int]:
    """r = k*q + s with 0 <= q and 1 <= s <= k."""
    q = (r - 1) // k
    return q, r - k * q


def _low_rank_vectors(d: np.ndarray, n: int, m: int, k: int) -> list[np.ndarray]:
    """k rank-one vectors over diag(d) summing to a rank-k member (case k <= r).

    Vector j superposes the weight-d components at indices i*k + j across
    the first-factor slots i; distinct j touch disjoint components, so the
    vectors are orthogonal and the partial trace telescopes to diag(d).
    """
    r = d.size
    q, s = _case_split_counts(r, k)
    f = np.sqrt(np.clip(d, 0.0, None))
    vecs = []
    for j in range(k):
        reach = q + 1 if j < s else q
        vec = np.zeros(m * n, dtype=complex)
        for i in range(reach):
            ell = i * k + j
            vec[i * n + ell] = f[ell]
        vecs.append(vec)
    return vecs


def _rank_k_in_diagonal_basis(d: np.ndarray, n: int, m: int, k: int) -> np.ndarray:
    r = d.size
    mn = m * n
    if k > r:
        # diagonal mixture: k = q*r + s with 0 < q < m, 0 < s <= r
        q = (k - 1) // r
        s = k - q * r
        diag = np.zeros(mn)
        for j in range(r):
            share = q + 1 if j < s else q
            for i in range(share):
                diag[i * n + j] = d[j] / share
        return np.diag(diag).astype(complex)
    rho0 = np.zeros((mn, mn), dtype=complex)
    for vec in _low_rank_vectors(d, n, m, k):
        rho0 += np.outer(vec, vec.conj())
    return rho0


def construct_rank_k(sigma: DensityMatrix, m: int, k: int) -> BipartiteState:
    """A rank-exactly-k state on an (m, n) system with first marginal sigma.

    Feasible iff ceil(r/m) <= k <= r*m for r = rank(sigma).
    """
    r = sigma.rank
    lo, hi = element_rank_range(r, m)
    if not lo <= k <= hi:
        raise InfeasibleError(
            f"rank {k} not attainable with marginal rank {r} and m={m}; range is [{lo}, {hi}]"
        )
    n = sigma.dim
    w, v = hermitian_eig(sigma.matrix)
    rho0 = _rank_k_in_diagonal_basis(w[:r], n, m, k)
    return bipartite(_conjugate_up(rho0, v, m), m, n)


def optimal_low_rank(
    sigma: DensityMatrix, m: int, k: int, norms=(1.0, 2.0, np.inf)
) -> ApproxResult:
    """Rank-<=k state whose first marginal is closest to sigma.

    Optimal simultaneously in every unitary-similarity-invariant norm: the
    residual spectrum is majorized by that of any rank-<=k competitor.
    Exact when m*k >= rank(sigma); otherwise the top m*k eigenvalues of
    sigma are kept, each raised by mu_shift so the trace stays one.
    """
    if k < 1 or m < 1:
        raise DimensionError(f"m and k must be >= 1, got m={m}, k={k}")
    r = sigma.rank
    n = sigma.dim
    exact = m * k >= r
    if exact:
        state = construct_rank_k(sigma, m, math.ceil(r / m))
        mu_shift = 0.0
    else:
        w, v = hermitian_eig(sigma.matrix)
        lam = w[:r]
        mk = m * k
        mu_shift = float(lam[mk:].sum() / mk)
        weights = lam[:mk] + mu_shift
        total = np.zeros((m * n, m * n), dtype=complex)
        # round-robin split of the mk boosted projectors into k groups of m,
        # each purified separately; any grouping works, this one is deterministic
        for g in range(k):
            idx = np.arange(g, mk, k)
            cols = np.zeros((n, m), dtype=complex)
            cols[:, : idx.size] = v[:, idx] * np.sqrt(weights[idx])
            vec = unfold(cols)
            total += np.outer(vec, vec.conj())
        state = bipartite(total, m, n)
    achieved = partial_trace_first(state)
    resid = sigma.matrix - achieved
    resid_spec = np.linalg.eigvalsh((resid + resid.conj().T) / 2.0)[::-1].copy()
    norm_values = {float(p): schatten_norm(resid, p) for p in norms}
    return ApproxResult(
        rho=state,
        achieved_sigma=achieved,
        residual_spectrum=resid_spec,
        mu_shift=mu_shift,
        exact=exact,
        norms=norm_values,
    )


def constant_diagonal_conjugate(d) -> np.ndarray:
    """Conjugate diag(d) by the DFT unitary: constant diagonal, spectrum d."""
    d = np.asarray(d, dtype=float).reshape(-1)
    mm = d.size
    j = np.arange(mm)
    f = np.exp(2j * np.pi * np.outer(j, j) / mm) / np.sqrt(mm)
    return f.conj().T @ np.diag(d).astype(complex) @ f


def horn_unitary(w, d, tol: float = MAJ_TOL) -> np.ndarray:
    """Unitary U with diag(U* diag(w) U) = d, for d majorized by w.

    Classical inductive construction: take the targets largest first, find
    the adjacent-in-value pair of remaining diagonal entries bracketing the
    target, and apply the real Givens rotation on those two coordinates
    that places the target exactly; the displaced weight joins the
    remaining pool, which still majorizes the remaining targets.
    """
    w = np.asarray(w, dtype=float).reshape(-1)
    d = np.asarray(d, dtype=float).reshape(-1)
    if w.size != d.size:
        raise DimensionError(f"length mismatch {w.size} != {d.size}")
    if not majorizes(d, w, tol=tol).holds:
        raise PreconditionError("targets are not majorized by the spectrum")
    nn = w.size
    u = np.eye(nn)
    vals = w.astype(float).copy()
    active = list(range(nn))
    placement = np.empty(nn, dtype=int)
    for t in np.argsort(-d, kind="stable"):
        target = d[t]
        if len(active) == 1:
            placement[t] = active.pop()
            continue
        act = sorted(active, key=lambda c: -vals[c])
        pick = len(act) - 2
        for a in range(len(act) - 1):
            if vals[act[a]] + tol >= target >= vals[act[a + 1]] - tol:
                pick = a
                break
        p, q = act[pick], act[pick + 1]
        vp, vq = vals[p], vals[q]
        if vp - vq <= 0.0:
            c2 = 1.0
        else:
            c2 = min(max((target - vq) / (vp - vq), 0.0), 1.0)
        if c2 >= 1.0 - 1e-13:
            c, s = 1.0, 0.0
        elif c2 <= 1e-13:
            c, s = 0.0, 1.0
        else:
            c, s = math.sqrt(c2), math.sqrt(1.0 - c2)
        col_p = u[:, p].copy()
        u[:, p] = c * col_p - s * u[:, q]
        u[:, q] = s * col_p + c * u[:, q]
        vals[q] = vp + vq - target
        active.remove(p)
        placement[t] = p
    return u[:, placement].astype(complex)


def construct_with_spectra(lam, mu, m: int) -> BipartiteState:
    """State with joint spectrum mu and first marginal diag(lam); needs m >= n.

    Feasible iff lam is majorized by the consecutive m-block sums of mu.
    Each mu block is spread to constant diagonal on the first factor, the
    block sums are steered onto lam by a prescribed-diagonal unitary on the
    second factor, and a diagonal of m-th roots of unity cancels every
    off-diagonal marginal entry exactly (which needs m >= n). Both spectra
    must be probability vectors; anything else raises DomainError.
    """
    lam = _sorted_desc(lam, "lambda")
    n = lam.size
    if m < n:
        raise UnsupportedRegimeError(
            f"spectra-prescribed construction needs m >= n, got m={m} < n={n}"
        )
    mu = _sorted_desc(mu, "mu", length=m * n)
    blocks = mu.reshape(n, m)
    w = blocks.sum(axis=1)
    if not majorizes(lam, w).holds:
        raise PreconditionError(
            "marginal spectrum is not majorized by the mu block sums"
        )
    mn = m * n
    a = np.zeros((mn, mn), dtype=complex)
    eye_n = np.eye(n)
    for kk in range(n):
        ak = constant_diagonal_conjugate(blocks[kk])
        a += np.kron(ak, np.outer(eye_n[kk], eye_n[kk]))
    u = horn_unitary(w, lam)
    a = _conjugate_up_adjoint(a, u, m)
    phases = np.exp(
        2j * np.pi * np.outer(np.arange(m), np.arange(1, n + 1)) / m
    ).reshape(-1)
    rho = a * np.outer(phases.conj(), phases)
    return bipartite(rho, m, n)


def _conjugate_up_adjoint(rho0: np.ndarray, u: np.ndarray, m: int) -> np.ndarray:
    """(I_m (x) U)* rho0 (I_m (x) U)."""
    return _conjugate_up(rho0, u.conj().T, m)


def _second_stage_options(rem_sorted):
    """(single, lo, hi) assignments of the three leftover indices."""
    a, b, c = rem_sorted  # descending mu values
    return [(a, c, b), (b, c, a), (c, b, a)]


def construct_23(lam, mu) -> BipartiteState:
    """State on a (2, 3) system with joint spectrum mu and marginal spectrum lam.

    Feasible exactly when ``compat_2x3`` holds. The state is assembled from
    two 2x2 gadgets embedded across the blocks plus two uncoupled diagonal
    entries; candidate index assignments are tried in a deterministic
    order (the five bracketing intervals for the top marginal eigenvalue
    first, then an exhaustive sweep) and each candidate is accepted only
    if the assembled matrix reproduces both spectra.
    """
    lam = np.sort(np.asarray(lam, dtype=float).reshape(-1))[::-1]
    mu = np.sort(np.asarray(mu, dtype=float).reshape(-1))[::-1]
    if lam.size != 3 or mu.size != 6:
        raise DimensionError("construct_23 needs spectra of lengths 3 and 6")
    report = compat_2x3(lam, mu)
    if not report.holds:
        failed = [c.name for c in report.checks if not c.passed]
        raise InfeasibleError(f"spectra incompatible for a (2,3) system: {failed}")

    tol = MAJ_TOL
    # five bracketing intervals for the top marginal eigenvalue, as
    # (pivot, lo, hi) 0-based indices into the sorted joint spectrum
    proof_first = [(4, 3, 2), (4, 2, 1), (1, 4, 3), (1, 3, 2), (1, 2, 0)]
    all_first = [
        (p, lo, hi)
        for hi in range(6)
        for lo in range(6)
        if mu[lo] <= mu[hi] and lo != hi
        for p in range(6)
        if p not in (lo, hi)
    ]
    first_candidates = proof_first + [c for c in all_first if c not in proof_first]
    # which marginal eigenvalue each gadget serves: the documented intervals
    # target the largest first, but boundary cases pair another one first
    target_orders = [(0, 1), (0, 2), (1, 0), (1, 2), (2, 0), (2, 1)]

    for t1, t2 in target_orders:
        for p1, lo1, hi1 in first_candidates:
            if not (mu[p1] + mu[lo1] - tol <= lam[t1] <= mu[p1] + mu[hi1] + tol):
                continue
            hat_lo1 = min(max(lam[t1] - mu[p1], mu[lo1]), mu[hi1])
            hat_hi1 = mu[lo1] + mu[hi1] - hat_lo1
            rem = sorted(set(range(6)) - {p1, lo1, hi1})
            target = lam[t2]
            second = []
            for single, lo2, hi2 in _second_stage_options(rem):
                # second pivot is the uncoupled entry
                second.append((single, lo2, hi2, mu[single], "single"))
                # or the displaced half of the first gadget
                second.append((single, lo2, hi2, hat_hi1, "displaced"))
            for single, lo2, hi2, pivot, mode in second:
                if not (pivot + mu[lo2] - tol <= target <= pivot + mu[hi2] + tol):
                    continue
                hat_lo2 = min(max(target - pivot, mu[lo2]), mu[hi2])
                hat_hi2 = mu[lo2] + mu[hi2] - hat_lo2
                if mode == "single":
                    g2a, g2b = hat_lo2, hat_hi2
                else:
                    g2a, g2b = hat_hi2, hat_lo2
                state = _assemble_23(
                    mu[p1], hat_hi1, g2a, hat_lo1, g2b, mu[single],
                    _gadget_offdiag(hat_lo1, hat_hi1, mu[lo1], mu[hi1]),
                    _gadget_offdiag(hat_lo2, hat_hi2, mu[lo2], mu[hi2]),
                )
                if _verify_23(state, lam, mu):
                    return bipartite(state, 2, 3)
    raise InternalInvariantError(
        "no admissible gadget assignment found for a compatible pair; "
        f"lam={lam.tolist()} mu={mu.tolist()}"
    )


def _gadget_offdiag(hat_a, hat_b, mu_a, mu_b) -> float:
    return math.sqrt(max(hat_a * hat_b - mu_a * mu_b, 0.0))


def _assemble_23(d0, d1, d2, d3, d4, d5, a, b) -> np.ndarray:
    out = np.diag(np.array([d0, d1, d2, d3, d4, d5], dtype=float)).astype(complex)
    out[1, 3] = out[3, 1] = a
    out[2, 4] = out[4, 2] = b
    return out


def _verify_23(state, lam, mu) -> bool:
    got_mu = np.linalg.eigvalsh(state)[::-1]
    if np.abs(got_mu - mu).max() > SPECTRUM_TOL:
        return False
    red = partial_trace_first(state, 2, 3)
    got_lam = np.linalg.eigvalsh((red + red.conj().T) / 2.0)[::-1]
    return np.abs(got_lam - lam).max() <= MARGINAL_TOL


def nonextreme_of_rank_k(sigma: DensityMatrix, m: int, k: int) -> BipartiteState:
    """A rank-k member with first marginal sigma that is NOT an extreme point.

    Built from the rank-(k-1) construction by splitting its first vector
    into two halves whose folded outer products coincide, which makes the
    factor-product family linearly dependent. Needs ceil(r/m) < k <= r;
    every member at the minimum rank is extreme, so none exists there.
    """
    r = sigma.rank
    lo = math.ceil(r / m)
    if not lo < k <= r:
        raise InfeasibleError(
            f"non-extreme members of rank {k} need ceil(r/m) < k <= r, "
            f"i.e. {lo} < k <= {r}"
        )
    n = sigma.dim
    w, v = hermitian_eig(sigma.matrix)
    vecs = _low_rank_vectors(w[:r], n, m, k - 1)
    z1 = vecs[0] / np.sqrt(2.0)
    flipped = fold(z1, m, n)
    flipped[:, 0] *= -1.0
    zk = unfold(flipped)
    rho0 = np.outer(z1, z1.conj()) + np.outer(zk, zk.conj())
    for vec in vecs[1:]:
        rho0 += np.outer(vec, vec.conj())
    return bipartite(_conjugate_up(rho0, v, m), m, n)
