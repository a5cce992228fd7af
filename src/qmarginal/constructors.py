"""Explicit constructions of bipartite states with prescribed marginals.

Every low-rank construction is a factor ``Z0`` of k columns over
diag(d), the eigenvalues of the target marginal sigma = V diag(d) V*,
where it is a sparse exact formula. It is lifted by ``I_m (x) V`` to
``Z`` and the state is ``rho = Z Z*``: rank k by construction, with first
marginal sigma. The state is validated from ``Z`` itself, whose SVD gives
the spectrum and eigenvectors of rho (see ``linalg.validate_density``).
The spectra-prescribed construction conjugates its blocks by ``I_m (x) U``
directly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    InfeasibleError,
    InternalInvariantError,
    PreconditionError,
    UnsupportedRegimeError,
)
from .feasibility import (_positive, _sorted_desc, compat_2x3, element_rank_range,
                          exact_low_rank_exists, extreme_rank_range)
from .linalg import BipartiteState, DensityMatrix, bipartite, partial_trace_first
from .majorization import MAJ_TOL, lp_norm, majorizes

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


def gadget(eig_hi: float, eig_lo: float, corner: float) -> np.ndarray:
    """2x2 real symmetric matrix with eigenvalues {eig_hi, eig_lo} and given corner.

    The off-diagonal ``sqrt((eig_hi - corner)(corner - eig_lo))`` makes
    ``[[corner, a], [a, eig_hi + eig_lo - corner]]`` have eigenvalues
    exactly {eig_hi, eig_lo}; needs eig_lo <= corner <= eig_hi.
    """
    if not eig_lo - MAJ_TOL <= corner <= eig_hi + MAJ_TOL:
        raise PreconditionError(f"corner {corner} outside [{eig_lo}, {eig_hi}]")
    a = math.sqrt(max((eig_hi - corner) * (corner - eig_lo), 0.0))
    return np.array([[corner, a], [a, eig_hi + eig_lo - corner]])


def _factor(d: np.ndarray, n: int, m: int, k: int) -> np.ndarray:
    """(m*n, k) factor Z0 with Z0 Z0* of rank k and first marginal diag(d).

    Needs ceil(r/m) <= k <= r*m for r = len(d). Entry t of max(r, k) puts
    weight d[t mod r] into column t mod k at first-factor slot t // min(r, k).
    For k <= r column j superposes the weights j, j+k, ... across slots; for
    k > r (a diagonal mixture) weight d[l] is shared evenly by the one-entry
    columns that carry it. No two entries share a row, so the columns are
    orthogonal, and each block on the diagonal is diagonal, so the partial
    trace sums to diag(d).
    """
    r = d.size
    t = np.arange(max(r, k))
    comp, col = t % r, t % k
    share = np.bincount(comp)[comp]
    z0 = np.zeros((m * n, k), dtype=complex)
    z0[t // min(r, k) * n + comp, col] = np.sqrt(d[comp] / share)
    return z0


def _lifted(z0: np.ndarray, sigma: DensityMatrix, m: int) -> np.ndarray:
    """Z = (I_m (x) V) Z0, where sigma = V diag(d) V*."""
    n = sigma.dim
    return (sigma.eigenvectors @ z0.reshape(m, n, -1)).reshape(m * n, -1)


def _lift(z0: np.ndarray, sigma: DensityMatrix, m: int) -> BipartiteState:
    """The state Z Z* for Z = (I_m (x) V) Z0, where sigma = V diag(d) V*, validated from Z."""
    return bipartite(None, m, sigma.dim, factor=_lifted(z0, sigma, m))


def purify(sigma: DensityMatrix, m: int) -> BipartiteState:
    """Rank-one state on an (m, n) system with first marginal sigma; needs m >= rank."""
    _positive("m", m)
    r = sigma.rank
    if m < r:
        raise InfeasibleError(
            f"purification needs first-factor dim >= rank: m={m} < rank={r}"
        )
    return construct_rank_k(sigma, m, 1)


def construct_rank_k(sigma: DensityMatrix, m: int, k: int) -> BipartiteState:
    """A rank-exactly-k state on an (m, n) system with first marginal sigma.

    Feasible iff ceil(r/m) <= k <= r*m for r = rank(sigma).
    """
    _positive("k", k)
    r = sigma.rank
    lo, hi = element_rank_range(r, m)
    if not lo <= k <= hi:
        raise InfeasibleError(
            f"rank {k} not attainable with marginal rank {r} and m={m}; range is [{lo}, {hi}]"
        )
    return _lift(_factor(sigma.eigenvalues[:r], sigma.dim, m, k), sigma, m)


def optimal_low_rank(
    sigma: DensityMatrix, m: int, k: int, norms=(1.0, 2.0, np.inf)
) -> ApproxResult:
    """Rank-<=k state whose first marginal is closest to sigma.

    Optimal simultaneously in every unitary-similarity-invariant norm: the
    residual spectrum is majorized by that of any rank-<=k competitor.
    Exact when m*k >= rank(sigma); otherwise the top m*k eigenvalues of
    sigma are kept, each raised by mu_shift so the trace stays one.
    """
    r = sigma.rank
    exact = exact_low_rank_exists(r, m, k)
    if exact:
        state = construct_rank_k(sigma, m, element_rank_range(r, m).k_min)
        mu_shift = 0.0
    else:
        lam = sigma.eigenvalues[:r]
        mk = m * k
        mu_shift = float(lam[mk:].sum() / mk)
        # the mk boosted weights, spread over k columns of m slots each
        state = _lift(_factor(lam[:mk] + mu_shift, sigma.dim, m, k), sigma, m)
    achieved = partial_trace_first(state)
    resid = sigma.matrix - achieved
    resid_spec = np.linalg.eigvalsh((resid + resid.conj().T) / 2.0)[::-1].copy()
    # ascending order, as schatten_norm sums them
    norm_values = {float(p): lp_norm(resid_spec[::-1], p) for p in norms}
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


def horn_unitary(w, d) -> np.ndarray:
    """Unitary U with diag(U* diag(w) U) = d, for d majorized by w.

    Classical inductive construction: take the targets largest first, find
    the adjacent-in-value pair of remaining diagonal entries bracketing the
    target, and apply the real Givens rotation on those two coordinates
    that places the target exactly; the displaced weight joins the
    remaining pool, which still majorizes the remaining targets.
    """
    w = np.asarray(w, dtype=float).reshape(-1)
    d = np.asarray(d, dtype=float).reshape(-1)
    if not majorizes(d, w).holds:  # DimensionError unless the lengths agree
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
            if vals[act[a]] + MAJ_TOL >= target >= vals[act[a + 1]] - MAJ_TOL:
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
    _positive("m", m)
    lam = _sorted_desc(lam, "lambda")
    n = lam.size
    if m < n:
        raise UnsupportedRegimeError(
            f"spectra-prescribed construction needs m >= n, got m={m} < n={n}"
        )
    mu = _sorted_desc(mu, "mu", length=m * n)
    blocks = mu.reshape(n, m)
    u = horn_unitary(blocks.sum(axis=1), lam)  # PreconditionError unless majorized
    # (I (x) U)* (A_k (x) e_k e_k*) (I (x) U) = A_k (x) u_k u_k*, u_k* the k-th row of U
    a = np.zeros((m * n, m * n), dtype=complex)
    for kk in range(n):
        ak = constant_diagonal_conjugate(blocks[kk])
        a += np.kron(ak, np.outer(u[kk].conj(), u[kk]))
    phases = np.exp(
        2j * np.pi * np.outer(np.arange(m), np.arange(1, n + 1)) / m
    ).reshape(-1)
    rho = a * np.outer(phases.conj(), phases)
    return bipartite(rho, m, n)


# five bracketing intervals for the top marginal eigenvalue, as (pivot, lo, hi)
# 0-based indices into the descending joint spectrum
_PROOF_FIRST = ((4, 3, 2), (4, 2, 1), (1, 4, 3), (1, 3, 2), (1, 2, 0))
# which marginal eigenvalue each gadget serves: the proof intervals target the
# largest first, but boundary cases pair another one first
_TARGET_ORDERS = ((0, 1), (0, 2), (1, 0), (1, 2), (2, 0), (2, 1))


def construct_23(lam, mu) -> BipartiteState:
    """State on a (2, 3) system with joint spectrum mu and marginal spectrum lam.

    Feasible exactly when ``compat_2x3`` holds. The state is assembled from
    two 2x2 gadgets coupling entries (1, 3) and (2, 4) across the blocks
    plus two uncoupled diagonal entries. Candidate index assignments are
    generated lazily in a deterministic order: the five bracketing
    intervals for the top marginal eigenvalue first, then an exhaustive
    sweep. Both couplings lie off the diagonal blocks, so the marginal of a
    candidate with diagonal d is exactly diag(d0+d3, d1+d4, d2+d5); a
    candidate whose sorted sums miss lam by more than MARGINAL_TOL is
    dropped before any matrix is built. The first one that passes is
    validated by ``bipartite``, and its spectrum from that one
    eigendecomposition must lie within SPECTRUM_TOL of mu.

    ``compat_2x3`` accepts pairs whose inequalities fail by up to MAJ_TOL,
    where a clamped gadget misses lam by the whole marginal tolerance. If
    no candidate passes, the search is run once more on mu moved onto the
    exact feasible set (see ``_feasible_mu``), a shift of a few MAJ_TOL
    that the spectrum tolerance absorbs.
    """
    lam = _sorted_desc(lam, "lambda", length=3)
    mu = _sorted_desc(mu, "mu", length=6)
    report = compat_2x3(lam, mu)
    if not report.holds:
        failed = [c.name for c in report.checks if not c.passed]
        raise InfeasibleError(f"spectra incompatible for a (2,3) system: {failed}")
    lam, mu = lam.tolist(), mu.tolist()
    state = _search_23(lam, mu, mu)
    if state is None:
        state = _search_23(lam, _feasible_mu(lam, mu), mu)
    if state is None:
        raise InternalInvariantError(
            "no admissible gadget assignment found for a compatible pair; "
            f"lam={lam} mu={mu}"
        )
    return state


def _search_23(lam, build_mu, mu) -> BipartiteState | None:
    """The first candidate from build_mu with marginal spectrum lam and spectrum mu."""
    for d, a, b in _candidates_23(lam, build_mu):
        marginal = sorted((d[0] + d[3], d[1] + d[4], d[2] + d[5]), reverse=True)
        if max(abs(x - y) for x, y in zip(marginal, lam)) > MARGINAL_TOL:
            continue
        state = bipartite(_assemble_23(d, a, b), 2, 3)
        got = state.rho.eigenvalues.tolist()
        if max(abs(x - y) for x, y in zip(got, mu)) <= SPECTRUM_TOL:
            return state
    return None


def _first_gadgets(mu):
    """(pivot, lo, hi) of the first gadget: the proof intervals, then every other."""
    yield from _PROOF_FIRST
    for hi in range(6):
        for lo in range(6):
            if lo == hi or mu[lo] > mu[hi]:
                continue
            for p in range(6):
                if p not in (lo, hi) and (p, lo, hi) not in _PROOF_FIRST:
                    yield p, lo, hi


def _candidates_23(lam, mu):
    """(diagonal, coupling (1, 3), coupling (2, 4)) of each gadget assignment, in search order.

    lam and mu are descending lists of floats.
    """
    tol = MAJ_TOL
    for t1, t2 in _TARGET_ORDERS:
        target = lam[t2]
        for p1, lo1, hi1 in _first_gadgets(mu):
            if not (mu[p1] + mu[lo1] - tol <= lam[t1] <= mu[p1] + mu[hi1] + tol):
                continue
            hat_lo1 = min(max(lam[t1] - mu[p1], mu[lo1]), mu[hi1])
            hat_hi1 = mu[lo1] + mu[hi1] - hat_lo1
            a = _gadget_offdiag(hat_lo1, hat_hi1, mu[lo1], mu[hi1])
            x, y, z = (i for i in range(6) if i not in (p1, lo1, hi1))  # descending mu
            for single, lo2, hi2 in ((x, z, y), (y, z, x), (z, y, x)):
                # the second pivot is the uncoupled entry, or the displaced
                # half of the first gadget
                for pivot, displaced in ((mu[single], False), (hat_hi1, True)):
                    if not (pivot + mu[lo2] - tol <= target <= pivot + mu[hi2] + tol):
                        continue
                    hat_lo2 = min(max(target - pivot, mu[lo2]), mu[hi2])
                    hat_hi2 = mu[lo2] + mu[hi2] - hat_lo2
                    g2a, g2b = (hat_hi2, hat_lo2) if displaced else (hat_lo2, hat_hi2)
                    d = (mu[p1], hat_hi1, g2a, hat_lo1, g2b, mu[single])
                    yield d, a, _gadget_offdiag(hat_lo2, hat_hi2, mu[lo2], mu[hi2])


def _feasible_mu(lam, mu) -> list[float]:
    """mu moved onto the exact (2, 3) feasible set for lam, with its sum matched to lam's.

    Each of ``compat_2x3``'s inequalities that fails gets its missing slack
    from one end of mu: raising mu1 and mu2 only helps lambda1 <= mu1+mu2
    and lambda3 <= mu2+mu3, lowering mu5 and mu6 only helps mu4+mu5 <=
    lambda1 and mu5+mu6 <= lambda3, and each move keeps mu descending. The
    trace of the marginal is the trace of the state, so the remaining
    difference of sums goes to mu1 or mu6, which again worsens no
    inequality. For a pair ``compat_2x3`` accepts, the shift is a few
    MAJ_TOL.
    """
    m1, m2, m3, m4, m5, m6 = mu
    l1, _, l3 = lam
    up2 = max(l3 - (m2 + m3), 0.0)
    up1 = max(l1 - (m1 + m2) - up2, m2 + up2 - m1, 0.0)
    down5 = max(m4 + m5 - l1, 0.0)
    down6 = max(m5 + m6 - l3 - down5, down5 - (m5 - m6), 0.0)
    gap = sum(lam) - (sum(mu) + up1 + up2 - down5 - down6)
    if gap > 0.0:
        up1 += gap
    else:
        down6 -= gap
    return [m1 + up1, m2 + up2, m3, m4, m5 - down5, m6 - down6]


def _gadget_offdiag(hat_a, hat_b, mu_a, mu_b) -> float:
    return math.sqrt(max(hat_a * hat_b - mu_a * mu_b, 0.0))


def _assemble_23(d, a, b) -> np.ndarray:
    out = np.diag(np.array(d, dtype=float)).astype(complex)
    out[1, 3] = out[3, 1] = a
    out[2, 4] = out[4, 2] = b
    return out


def nonextreme_of_rank_k(sigma: DensityMatrix, m: int, k: int) -> BipartiteState:
    """A rank-k member with first marginal sigma that is NOT an extreme point.

    Built from the rank-(k-1) construction by splitting its first vector
    into two halves whose folded outer products coincide, which makes the
    factor-product family linearly dependent. Needs ceil(r/m) < k <= r;
    every member at the minimum rank is extreme, so none exists there.
    """
    _positive("m", m)
    _positive("k", k)
    r = sigma.rank
    lo, hi = extreme_rank_range(r, m)
    if not lo < k <= hi:
        raise InfeasibleError(
            f"non-extreme members of rank {k} need ceil(r/m) < k <= r, "
            f"i.e. {lo} < k <= {hi}"
        )
    z0 = _factor(sigma.eigenvalues[:r], sigma.dim, m, k - 1)
    z1 = z0[:, :1] / np.sqrt(2.0)
    zk = z1.copy()
    zk[: sigma.dim] *= -1.0  # flip the first-factor slot 0
    return _lift(np.hstack([z1, zk, z0[:, 1:]]), sigma, m)
