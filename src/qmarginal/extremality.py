"""Extreme-point certification for states with a prescribed first marginal.

A state factored as rho = Z Z* is an extreme point of the set of states
sharing its first marginal exactly when the family of folded products
P_ij = [z_i][z_j]* is linearly independent. Any invertible change of factor
Z -> Z Q keeps the family's span, so the verdict depends only on the range
of rho and is taken on the orthonormal eigenvectors V, not on the scaled
factors Z = V sqrt(lambda): a spread spectrum then cannot shrink the Gram
ratio by (lambda_min / lambda_max)^2.

The test never stacks the r^2 x n^2 products. Their Gram entries
<P_ij, P_kl> are sums over the m x m blocks A_ik = f_i f_k* of the m x n
folds f_i, which costs r^4 m^2 instead of r^4 n^2. Since P_ji = P_ij*, the
map C -> sum C_ij P_ij commutes with C -> C*, so the family is independent
exactly when it is independent on Hermitian coefficients. The Gram is
therefore taken over an orthonormal real basis of the Hermitian r x r
matrices; it is real symmetric and has the complex Gram's spectrum. The
verdict comes from its eigenvalues alone. Only a dependent family pays for
eigenvectors: the null vector H' over V maps to H = H' / (sqrt(lambda_i)
sqrt(lambda_j)) over Z, a Hermitian dependency certificate from which a
proper convex splitting is built. When r > n, any n + 1 factors give
(n+1)^2 > n^2 products, so the same test runs on the first n + 1 factors
and its certificate is zero-padded to r x r.

A certificate is checked by the marginal it would move: sum_ij H_ij
[z_i][z_j]* is tr_1(Z H Z*), whose n x n entries are compared with the
largest product entry, max_{p,i} sum_a |z_i[a n + p]|^2 by Cauchy-Schwarz.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .constructors import MARGINAL_TOL
from .errors import InvalidCertificateError
from .linalg import TRACE_TOL, BipartiteState, bipartite, partial_trace_first

INDEP_TOL = 1e-8
MARGINAL_INDEP_TOL = 1e-6
CERT_RESIDUAL_TOL = 1e-7


@dataclass(frozen=True)
class ExtremalityReport:
    """Verdict plus the Gram evidence and, when dependent, a certificate.

    ``certificate`` is a Hermitian r x r matrix H of unit Frobenius norm with
    sum_ij H[i,j] [z_i][z_j]* = 0 over the scaled factors z = V sqrt(lambda);
    present exactly when not extreme. ``gram_min_eig`` is the smallest
    eigenvalue of the Gram of the products of the orthonormal eigenvectors,
    so it does not scale with lambda_min^2; it is 0.0 when r > n.
    ``marginal`` flags verdicts that flip between the primary and the
    looser re-check threshold, i.e. numerically borderline inputs.
    """

    is_extreme: bool
    rank: int
    gram_min_eig: float
    certificate: np.ndarray | None
    marginal: bool


def _scaled_factors(state: BipartiteState) -> np.ndarray:
    rho = state.rho
    r = rho.rank
    return rho.eigenvectors[:, :r] * np.sqrt(rho.eigenvalues[:r])


def _hermitian_gram(z: np.ndarray, m: int, n: int):
    """Real Gram of the products over an orthonormal basis of Hermitian coefficients.

    The basis is E_ii, then (E_ij + E_ji)/sqrt2 and then i(E_ij - E_ji)/sqrt2
    over the pairs i < j. Returns (gram, iu, ju), where (iu, ju) lists the
    pairs (i, i) and then (i, j), i < j, in basis order.
    """
    r = z.shape[1]
    f = z.T.reshape(r * m, n)  # row i*m + a is row a of the m x n fold f_i of z_i
    a = (f @ f.conj().T).reshape(r, m, r, m).transpose(0, 2, 1, 3).reshape(r * r, m * m)
    # a[i*r + k] holds A_ik = f_i f_k*, and flat entry i r^3 + k r^2 + j r + l
    # of a a* is sum_ab A_ik[a,b] conj(A_jl[a,b]) = conj(<P_ij, P_kl>)
    # for the products P_ij = [z_i][z_j]* under <X, Y> = tr(X* Y)
    aa = (a @ a.conj().T).reshape(-1)
    diag = np.arange(r)
    upper = np.nonzero(np.tri(r, k=-1, dtype=bool).T)
    iu = np.concatenate([diag, upper[0]])
    ju = np.concatenate([diag, upper[1]])
    lead = (iu * r**3 + ju * r)[:, None]
    g1 = aa[lead + iu * r * r + ju]  # conj <P_ij, P_kl> over the listed pairs
    g2 = aa[lead + ju * r * r + iu]  # conj <P_ij, P_lk>
    del aa
    # a basis element u E_ij + conj(u) E_ji has u = 1/2 on the diagonal and
    # 1/sqrt2 or i/sqrt2 off it; its entry with u' E_kl + conj(u') E_lk is
    # 2 Re(conj(u) u' <P_ij, P_kl> + conj(u) conj(u') <P_ij, P_lk>). With
    # w = sqrt2 |u|, the symmetric block is w w' Re(g1 + g2), the mixed one
    # -w w' Im(g1 + g2) and the antisymmetric one Re(g1 - g2)
    w = np.ones(iu.size)
    w[:r] = np.sqrt(0.5)
    herm = (g1 + g2) * np.outer(w, w)
    p = iu.size
    gram = np.empty((r * r, r * r))
    gram[:p, :p] = herm.real
    gram[p:, :p] = -herm.imag[r:]
    gram[:p, p:] = gram[p:, :p].T
    gram[p:, p:] = g1.real[r:, r:] - g2.real[r:, r:]
    return gram, iu, ju


def is_extreme(state: BipartiteState) -> ExtremalityReport:
    """Certify whether a state is extreme among states with its first marginal."""
    rho = state.rho
    r = rho.rank
    # (n+1)^2 products in the n^2-dimensional product space are dependent,
    # so for r > n the first n + 1 factors already give a certificate
    head = min(r, state.n + 1)
    gram, iu, ju = _hermitian_gram(rho.eigenvectors[:, :head], state.m, state.n)
    w = np.linalg.eigvalsh(gram)
    gram_max = float(w[-1])
    gram_min = max(float(w[0]), 0.0) if r <= state.n else 0.0
    extreme = gram_min > INDEP_TOL * gram_max
    marginal = extreme != (gram_min > MARGINAL_INDEP_TOL * gram_max)
    if extreme:
        return ExtremalityReport(True, r, gram_min, None, marginal)
    # the null vector's coordinates in the Hermitian basis give the dependency
    # over the eigenvectors; dividing by sqrt(lambda_i lambda_j) moves it to z
    null = np.linalg.eigh(gram)[1][:, 0]
    p = iu.size
    coef = null[:p].astype(complex)
    coef[head:] = (coef[head:] + 1j * null[p:]) * np.sqrt(0.5)
    coef /= np.sqrt(rho.eigenvalues[iu] * rho.eigenvalues[ju])
    cert = np.zeros((r, r), dtype=complex)
    cert[ju, iu] = coef.conj()
    cert[iu, ju] = coef
    return ExtremalityReport(False, r, gram_min, cert / np.linalg.norm(cert), marginal)


def split_nonextreme(
    state: BipartiteState, certificate: np.ndarray
) -> tuple[BipartiteState, BipartiteState]:
    """Split a non-extreme state into (rho1 + rho2)/2 with rank(rho1) < rank(state).

    Both halves keep the first marginal. The step size t = 1/max|eig(cert)|
    makes I +- t*cert singular on one side; rho1 takes the singular side.
    With cert = Q diag(eta) Q*, each half Z (I +- t*cert) Z* + T T* is
    validated from its factor [Z Q diag(sqrt(1 +- t*eta)), T], whose singular
    side has an exact zero column; T = V sqrt(lambda) over the positive
    eigenvalues under the rank cutoff, so the halves average to the state. A
    certificate whose step would move the marginal by more than MARGINAL_TOL,
    or a half's trace by more than TRACE_TOL, is rejected before either half
    is built.
    """
    cert = np.asarray(certificate, dtype=complex)
    z = _scaled_factors(state)
    r = z.shape[1]
    if cert.shape != (r, r):
        raise InvalidCertificateError(
            f"certificate shape {cert.shape} does not match rank {r}"
        )
    m, n = state.m, state.n
    # sum_ij H_ij [z_i][z_j]* is the marginal tr_1(z H z*) that H would move;
    # the largest product entry, by Cauchy-Schwarz, sits on some [z_i][z_i]*
    moved = partial_trace_first(z @ cert @ z.conj().T, m, n)
    residual = float(np.abs(moved).max())
    largest = float((np.abs(z) ** 2).reshape(m, n, r).sum(axis=0).max())
    scale = float(np.abs(cert).max()) * largest + 1e-300
    if residual > CERT_RESIDUAL_TOL * scale:
        raise InvalidCertificateError(
            f"certificate does not annihilate the factor products (residual {residual:.3e})"
        )
    eta, q = np.linalg.eigh((cert + cert.conj().T) / 2.0)
    extreme_eig = eta[-1] if abs(eta[-1]) >= abs(eta[0]) else eta[0]
    step = 1.0 / abs(extreme_eig)
    if residual * step > MARGINAL_TOL:
        raise InvalidCertificateError(
            f"certificate step moves the marginal by {residual * step:.3e}, "
            f"more than {MARGINAL_TOL}"
        )
    rho = state.rho
    positive = int(np.count_nonzero(rho.eigenvalues))
    tail = rho.eigenvectors[:, r:positive] * np.sqrt(rho.eigenvalues[r:positive])
    trace = float(np.vdot(z, z).real + np.vdot(tail, tail).real)
    trace_shift = abs(float(np.trace(moved).real)) * step
    if abs(trace - 1.0) + trace_shift > TRACE_TOL:
        raise InvalidCertificateError(
            f"certificate step moves a half's trace by {trace_shift:.3e} from {trace!r}"
        )
    zq = z @ q
    # |eta_i| <= |extreme_eig|, so 1 +- eta_i * step lies in [0, 2] exactly
    plus = zq * np.sqrt(1.0 + eta * step)
    minus = zq * np.sqrt(1.0 - eta * step)
    singular, other = (minus, plus) if extreme_eig > 0 else (plus, minus)
    return (bipartite(None, m, n, factor=np.hstack([singular, tail])),
            bipartite(None, m, n, factor=np.hstack([other, tail])))
