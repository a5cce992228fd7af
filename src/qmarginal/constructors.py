"""Explicit constructions of bipartite states with prescribed marginals.

Every member of S(sigma) built here, of every rank, non-extreme or
optimal, is rho = Z Z* for one lifted factor from ``_factor``: a sparse
exact formula ``Z0`` of k columns over the eigenvalues of the target
marginal sigma = V diag(d) V*, lifted by ``I_m (x) V`` to ``Z``. Its
columns are orthogonal, so the state is validated from them (see
``linalg.validate_density``): their squared norms are its spectrum and
no decomposition is taken. The non-extreme member splits one column of
such a factor along first-factor slots, which keeps the columns
orthogonal. The spectra-prescribed construction is a closed-form factor
with orthogonal columns too. The (2, 3) construction is a dense direct
sum of two singletons and two 2x2 gadgets, found by one scan of a
constant table of assignments and validated once.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DomainError,
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


def _factor(sigma: DensityMatrix, m: int, k: int) -> tuple[np.ndarray, float]:
    """Lifted (m*n, k) factor Z = (I_m (x) V) Z0 of a rank-k state, and its shift.

    sigma = V diag(lam) V*. Z0 carries d, the top m*k entries of lam over
    the rank cutoff, each raised by shift = (sum of the rest) / (m*k) so the
    trace stays one; the shift is 0.0 when m*k >= rank, and then Z Z* has
    first marginal sigma. Entry t of max(len(d), k) puts weight
    d[t mod len(d)] into column t mod k at first-factor slot
    t // min(len(d), k): for k <= len(d) column j superposes the weights
    j, j+k, ... across slots; for k > len(d) (a diagonal mixture) weight d[l]
    is shared evenly by the one-entry columns that carry it. No two entries
    share a row, so the columns are orthogonal, and each block on the
    diagonal is diagonal, so the partial trace of Z Z* is V diag(d) V*.
    """
    n, v = sigma.dim, sigma.eigenvectors
    lam = sigma.eigenvalues[: sigma.rank]
    mk = m * k
    shift = float(lam[mk:].sum() / mk)
    d = lam[:mk] + shift
    t = np.arange(max(d.size, k))
    comp, col = t % d.size, t % k
    share = np.bincount(comp)[comp]
    z0 = np.zeros((m, n, k), dtype=complex)
    z0[t // min(d.size, k), comp, col] = np.sqrt(d[comp] / share)
    # Z0 is zero past row rank(sigma) of each block, so V may hold only the range
    return (v @ z0[:, : v.shape[1]]).reshape(m * n, k), shift


def purify(sigma: DensityMatrix, m: int) -> BipartiteState:
    """Rank-one state on an (m, n) system with first marginal sigma; needs m >= rank."""
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
    return bipartite(None, m, sigma.dim, factor=_factor(sigma, m, k)[0])


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
    z, mu_shift = _factor(sigma, m, k)
    state = bipartite(None, m, sigma.dim, factor=z)
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
    raises DomainError. An entry of mu in [-MAJ_TOL, 0) is set to 0 and its
    mass moved onto the largest entry of its m-block, which keeps every
    block sum, and so the trace and the marginal. A block whose largest
    entry would turn negative (a zero block behind rounding noise) moves
    the mass instead onto the largest entry of the last block that can
    take it: the trace stays, and two block sums move by that mass. If
    an entry would move by SPECTRUM_TOL or more, DomainError.
    """
    _positive("m", m)
    lam = np.array(_sorted_desc(lam, "lambda"))
    n = lam.size
    if m < n:
        raise UnsupportedRegimeError(
            f"spectra-prescribed construction needs m >= n, got m={m} < n={n}"
        )
    blocks = np.array(_sorted_desc(mu, "mu", length=m * n)).reshape(n, m)
    low = blocks < 0.0
    if low.any():
        shift = np.where(low, blocks, 0.0).sum(axis=1)
        blocks[low] = 0.0
        own = blocks[:, 0] + shift >= 0.0
        blocks[own, 0] += shift[own]
        spill = shift[~own].sum()
        # never empty: block 0 holds mu's largest entry, at least 1 / (m n)
        takers = np.flatnonzero(blocks[:, 0] + spill >= 0.0)
        if min(shift.min(), spill) <= -SPECTRUM_TOL:
            raise DomainError(
                f"mu's negative entries cannot move onto a largest entry of an {m}-block "
                f"by less than {SPECTRUM_TOL}: moved mass {shift.tolist()}"
            )
        blocks[takers[-1], 0] += spill
    u = horn_unitary(blocks.sum(axis=1), lam)  # PreconditionError unless majorized
    j = np.arange(m)
    f = np.exp(2j * np.pi * np.outer(j, j) / m) / np.sqrt(m)
    phases = np.exp(2j * np.pi * np.outer(j, np.arange(1, n + 1)) / m).reshape(-1)
    b = blocks.T.reshape(-1)
    keep = b > 0.0  # zero entries get no column
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
    MAJ_TOL. ``up1`` leaves out the help ``up2`` gives to lambda1 <=
    mu1+mu2; counting it gives the same result up to rounding (a few ulp
    of mu1). The forms differ only if a = lambda1 - (mu1+mu2) > 0 and
    up2 > 0; there sorted spectra give sum(lam) - sum(mu) >= a + 2 up2, so
    ``gap`` > 0 either way and mu1 ends at mu1 + sum(lam) - sum(mu) - up2 +
    down5 + down6.
    """
    m1, m2, m3, m4, m5, m6 = mu
    l1, _, l3 = lam
    up2 = max(l3 - (m2 + m3), 0.0)
    up1 = max(l1 - (m1 + m2), m2 + up2 - m1, 0.0)
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

    Built from the rank-(k-1) factor by splitting its first column c into
    a, its first-factor slot-0 block, and b, the rest. a a* + b b* is
    (c c* + c' c'*) / 2 for c' = b - a, so the marginal is kept. The folds
    of a and b have disjoint columns, so [a][b]* = 0 and the family of
    factor products is linearly dependent. a, b and the other columns sit
    on disjoint rows of Z0, so the factor keeps orthogonal columns. Needs
    ceil(r/m) < k <= r; every member at the minimum rank is extreme, so
    none exists there.
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
    n = sigma.dim
    z, _ = _factor(sigma, m, k - 1)
    ab = np.zeros((m * n, 2), dtype=complex)
    ab[:n, 0] = z[:n, 0]  # a: the first-factor slot-0 block of column 0
    ab[n:, 1] = z[n:, 0]  # b: the rest of it
    return bipartite(None, m, n, factor=np.hstack([ab, z[:, 1:]]))
