"""Explicit constructions of bipartite states with prescribed marginals.

Every low-rank construction is a factor ``Z0`` of k columns over
diag(d), the eigenvalues of the target marginal sigma = V diag(d) V*,
where it is a sparse exact formula. It is lifted by ``I_m (x) V`` to
``Z`` and the state is ``rho = Z Z*``: rank k by construction, with first
marginal sigma. The state is validated from ``Z`` itself, whatever its
width k (see ``linalg.validate_density``): the columns of a lifted
``_factor`` are orthogonal, so their squared norms are its spectrum and
no decomposition is taken; the split factor of ``nonextreme_of_rank_k``
takes the thin SVD. The spectra-prescribed construction is a closed-form
factor with orthogonal columns too. The
(2, 3) construction is a dense direct sum of two singletons and two 2x2
gadgets, found by one scan of a constant table of assignments and
validated once.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    InfeasibleError,
    InternalInvariantError,
    PreconditionError,
    UnsupportedRegimeError,
)
from .feasibility import (_compat_2x3, _sorted_desc, element_rank_range, exact_low_rank_exists,
                          extreme_rank_range)
from .kernels import _positive
from .linalg import BipartiteState, DensityMatrix, _hermitian_part, bipartite, partial_trace_first
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
    """Z = (I_m (x) V) Z0, where sigma = V diag(d) V*; Z0 is zero past row
    rank(sigma) of each block, so V may hold only the range of sigma."""
    n, v = sigma.dim, sigma.eigenvectors
    return (v @ z0.reshape(m, n, -1)[:, : v.shape[1]]).reshape(m * n, -1)


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
    # an exact approximation takes the least rank ceil(r/m), with no shift
    k = min(k, element_rank_range(r, m).k_min)
    lam = sigma.eigenvalues[:r]
    mk = m * k
    mu_shift = float(lam[mk:].sum() / mk)
    # the mk boosted weights, spread over k columns of m slots each
    state = _lift(_factor(lam[:mk] + mu_shift, sigma.dim, m, k), sigma, m)
    achieved = partial_trace_first(state)
    resid_spec = np.linalg.eigvalsh(_hermitian_part(sigma.matrix - achieved))[::-1].copy()
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
    if not majorizes(d, w).holds:  # raises on unequal lengths or non-finite entries
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
    The state is Z Z* for Z = diag(conj(phases)) (F* (x) U*) diag(sqrt(b)):
    the m-point DFT F spreads each mu block to constant diagonal on the
    first factor, the prescribed-diagonal unitary U steers the block sums
    onto lam, and the m-th roots of unity in phases cancel every
    off-diagonal marginal entry (which needs m >= n). Column j*n + k
    carries b = mu[k*m + j] of the descending mu; only the columns with
    b > 0 are kept. Both spectra must be probability vectors; anything else
    raises DomainError.
    """
    _positive("m", m)
    lam = np.array(_sorted_desc(lam, "lambda"))
    n = lam.size
    if m < n:
        raise UnsupportedRegimeError(
            f"spectra-prescribed construction needs m >= n, got m={m} < n={n}"
        )
    blocks = np.array(_sorted_desc(mu, "mu", length=m * n)).reshape(n, m)
    u = horn_unitary(blocks.sum(axis=1), lam)  # PreconditionError unless majorized
    j = np.arange(m)
    f = np.exp(2j * np.pi * np.outer(j, j) / m) / np.sqrt(m)
    phases = np.exp(2j * np.pi * np.outer(j, np.arange(1, n + 1)) / m).reshape(-1)
    b = blocks.T.reshape(-1)
    keep = b > 0.0  # mu may hold entries in [-MAJ_TOL, 0), which get no column
    z = np.kron(f.conj().T, u.conj().T)[:, keep] * np.sqrt(b[keep])
    return bipartite(None, m, n, factor=phases.conj()[:, None] * z)


# (e, f, p, q, r, s, x, z): mu entries e and f on the singleton slots 0 and 5,
# the gadget {mu_p, mu_q} on slots (1, 3), the gadget {mu_r, mu_s} on slots
# (2, 4), and lambda entries x and z on marginal slots 0 and 2; indices are
# 0-based into the descending spectra, with p < q and r < s. Small lambda and
# mu entries on slot 0 come first, which ends the scan of a census pair after
# about 8 entries on average.
_ASSIGNMENTS_23 = tuple(
    (e, f, p, q, r, s, x, z)
    for x, _, z in itertools.permutations((2, 1, 0))
    for e in range(5, -1, -1)
    for f, p, q, r, s in itertools.permutations([i for i in range(6) if i != e])
    if p < q and r < s
)


def construct_23(lam, mu) -> BipartiteState:
    """State on a (2, 3) system with joint spectrum mu and marginal spectrum lam.

    Feasible exactly when ``compat_2x3`` holds. The state is a direct sum
    of two singleton entries (slots 0 and 5) and two 2x2 gadgets coupling
    slots (1, 3) and (2, 4). Both couplings lie off the diagonal blocks, so
    the marginal of diagonal d is exactly diag(d0+d3, d1+d4, d2+d5). mu is
    first moved onto the exact feasible set (``_feasible_mu``, a shift of
    a few MAJ_TOL at most, with the sum matched to lam's). For each entry
    of ``_ASSIGNMENTS_23`` the marginal then fixes d3 and d2 in closed
    form; the first entry that puts both inside their gadget's eigenvalue
    range is taken, or else the one that misses by least, clamped. That one
    candidate is validated by ``bipartite``: its marginal must lie within
    MARGINAL_TOL of lam and its spectrum, from that one
    eigendecomposition, within SPECTRUM_TOL of mu. The matrix stays dense:
    a factor would need the gadgets' eigenvectors, and at 6 x 6 its
    validation would cost about what the one eigh does.
    """
    lam = _sorted_desc(lam, "lambda", length=3)
    mu = _sorted_desc(mu, "mu", length=6)
    report = _compat_2x3(lam, mu)
    if not report.holds:
        failed = [c.name for c in report.checks if not c.passed]
        raise InfeasibleError(f"spectra incompatible for a (2,3) system: {failed}")
    nu = _feasible_mu(lam, mu)
    least = math.inf
    for entry in _ASSIGNMENTS_23:
        e, f, p, q, r, s, x, z = entry
        d3, d2 = lam[x] - nu[e], lam[z] - nu[f]
        miss = max(nu[q] - d3, d3 - nu[p], 0.0) + max(nu[s] - d2, d2 - nu[r], 0.0)
        if miss < least:
            least, pick = miss, entry
            if miss == 0.0:
                break
    e, f, p, q, r, s, x, z = pick
    d3 = min(max(lam[x] - nu[e], nu[q]), nu[p])
    d2 = min(max(lam[z] - nu[f], nu[s]), nu[r])
    d = (nu[e], nu[p] + nu[q] - d3, d2, d3, nu[r] + nu[s] - d2, nu[f])
    a = _gadget_offdiag(d[1], d3, nu[p], nu[q])
    b = _gadget_offdiag(d2, d[4], nu[r], nu[s])
    state = bipartite(_assemble_23(d, a, b), 2, 3)
    marginal = sorted((d[0] + d[3], d[1] + d[4], d[2] + d[5]), reverse=True)
    marginal_err = max(abs(got - want) for got, want in zip(marginal, lam))
    spectrum_err = max(abs(got - want) for got, want in zip(state.rho.eigenvalues.tolist(), mu))
    if marginal_err > MARGINAL_TOL or spectrum_err > SPECTRUM_TOL:
        raise InternalInvariantError(
            f"(2,3) witness misses its spectra (marginal by {marginal_err:.3e}, "
            f"spectrum by {spectrum_err:.3e}); lam={lam} mu={mu}"
        )
    return state


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
    """Off-diagonal x of the gadget [[hat_a, x], [x, hat_b]] with eigenvalues {mu_a, mu_b}.

    Exact when hat_a + hat_b = mu_a + mu_b and both hats lie between mu_a and
    mu_b; a hat outside that range, by roundoff, clamps x to 0.
    """
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
