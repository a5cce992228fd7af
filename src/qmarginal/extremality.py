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
verdict comes from its eigenvalues alone. A dependent family takes no second
decomposition: its smallest eigenvalue is known, so two solves with the Gram
shifted just below it (inverse iteration) give a null vector H' over V. H'
maps to H = H' / (sqrt(lambda_i) sqrt(lambda_j)) over Z, a Hermitian
dependency certificate from which a proper convex splitting is built. When
r > n, any n + 1 factors give (n+1)^2 > n^2 products, so the same test runs
on the first n + 1 factors and its certificate is zero-padded to r x r.

A certificate is checked by the marginal it would move: sum_ij H_ij
[z_i][z_j]* is tr_1(Z H Z*) = sum_a Z_a H Z_a* over the n x r blocks Z_a of
Z, whose n x n entries are compared with the largest product entry,
max_{p,i} sum_a |z_i[a n + p]|^2 by Cauchy-Schwarz.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .constructors import MARGINAL_TOL
from .errors import InvalidCertificateError
from .linalg import TRACE_TOL, BipartiteState, _hermitian_part, bipartite

INDEP_TOL = 1e-8
MARGINAL_INDEP_TOL = 1e-6
CERT_RESIDUAL_TOL = 1e-7
# total weight of the smallest eigenvalues a split may leave out of both halves:
# the roundoff of a state validated from its matrix, not its spectrum
ROUNDOFF_TAIL = 1e-2 * MARGINAL_TOL
# the certificate's inverse iteration shifts the Gram so that its smallest
# eigenvalue sits this fraction of its largest above zero
INVERSE_SHIFT = 1e-12
# bytes of the product behind one band of Gram rows, at 16 r^3 bytes per
# first index but at least one index: Grams up to r = 10 take one band
GRAM_BAND_BYTES = 2**18


@dataclass(frozen=True)
class ExtremalityReport:
    """Verdict plus the Gram evidence and, when dependent, a certificate.

    ``certificate`` is a Hermitian r x r matrix H of unit Frobenius norm with
    sum_ij H[i,j] [z_i][z_j]* = 0 over the scaled factors z = V sqrt(lambda);
    present exactly when not extreme. ``gram_min_eig`` is the smallest
    eigenvalue of the Gram of the products of the orthonormal eigenvectors,
    so it does not scale with lambda_min^2; it is 0.0 when r > n and 1.0
    when m = 1.
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
    pairs (i, i) and then (i, j), i < j, in basis order. The rows are built in
    bands of first indices i, each from one product of GRAM_BAND_BYTES or
    less, or of one index's 16 r^3 bytes when that is more.
    """
    r = z.shape[1]
    f = z.T.reshape(r * m, n)  # row i*m + a is row a of the m x n fold f_i of z_i
    # a[i*r + k] holds A_ik = f_i f_k*
    a = (f @ f.conj().T).reshape(r, m, r, m).transpose(0, 2, 1, 3).reshape(r * r, m * m)
    ac = a.conj().T
    diag = np.arange(r)
    upper = np.nonzero(np.tri(r, k=-1, dtype=bool).T)
    iu = np.concatenate([diag, upper[0]])
    ju = np.concatenate([diag, upper[1]])
    p = iu.size
    # a basis element u E_ij + conj(u) E_ji has u = 1/2 on the diagonal and
    # 1/sqrt2 or i/sqrt2 off it; its entry with u' E_kl + conj(u') E_lk is
    # 2 Re(conj(u) u' <P_ij, P_kl> + conj(u) conj(u') <P_ij, P_lk>). With
    # w = sqrt2 |u|, the symmetric block is w w' Re(g1 + g2), the mixed one
    # -w w' Im(g1 + g2) and the antisymmetric one Re(g1 - g2)
    w = np.ones(p)
    w[:r] = np.sqrt(0.5)
    lead = iu * r**3 + ju * r
    cols1 = iu * r * r + ju
    cols2 = ju * r * r + iu
    band = min(r, max(1, GRAM_BAND_BYTES // (16 * r**3)))
    rows = band * r  # a band has at most band * r pairs
    # one block holds the Gram, a band's product and its two gathers. It is
    # the call's largest, above the copy eigvalsh makes, so glibc keeps its
    # memory between calls instead of trimming it and faulting it back in
    work = np.empty(r**4 + 2 * rows * (r * r + 2 * p))
    gram = work[:r**4].reshape(r * r, r * r)
    buf = work[r**4:].view(complex)
    prod = buf[:rows * r * r].reshape(rows, r * r)
    g1_buf, g2_buf = buf[rows * r * r:].reshape(2, rows, p)
    for i0 in range(0, r, band):
        i1 = min(i0 + band, r)
        d = i1 - i0
        # the band's pairs: diagonal rows i0:i1, then upper pairs t0:t1, which
        # are rows r + t of the symmetric block and p + t of the antisymmetric
        t0, t1 = (i * (2 * r - i - 1) // 2 for i in (i0, i1))
        # flat entry (i - i0) r^3 + k r^2 + j r + l of the band's product is
        # sum_ab A_ik[a,b] conj(A_jl[a,b]) = conj(<P_ij, P_kl>) for the
        # products P_ij = [z_i][z_j]* under <X, Y> = tr(X* Y)
        aa = np.matmul(a[i0 * r:i1 * r], ac, out=prod[:d * r]).reshape(-1)
        offs = np.concatenate([lead[i0:i1], lead[r + t0:r + t1]])[:, None] - i0 * r**3
        # the indices are in range; "clip" only spares take a buffered copy
        g1 = aa.take(offs + cols1, mode="clip", out=g1_buf[:d + t1 - t0])  # conj <P_ij, P_kl>
        g2 = aa.take(offs + cols2, mode="clip", out=g2_buf[:d + t1 - t0])  # conj <P_ij, P_lk>
        np.subtract(g1.real[d:, r:], g2.real[d:, r:], out=gram[p + t0:p + t1, p:])
        # summed and weighted in place; w is sqrt(1/2) on the band's diagonal
        # rows and 1 on its upper ones
        herm = g1
        herm += g2
        herm[:d] *= w[0] * w
        herm[d:] *= w
        gram[i0:i1, :p] = herm.real[:d]
        gram[r + t0:r + t1, :p] = herm.real[d:]
        np.negative(herm.imag[d:], out=gram[p + t0:p + t1, :p])
    gram[:p, p:] = gram[p:, :p].T
    return gram, iu, ju


def is_extreme(state: BipartiteState) -> ExtremalityReport:
    """Certify whether a state is extreme among states with its first marginal.

    The test takes O(r^6) time, for the eigenvalues of the r^2 x r^2 Gram,
    with r = min(rank, n + 1). Its memory peaks at about 16 r^4 bytes: the
    real Gram and the copy that eigvalsh makes of it, since the Gram is
    built in bands of rows (see GRAM_BAND_BYTES). A state with
    m = 1 is reported extreme with gram_min_eig = 1.0 and no Gram: S(sigma)
    is the one point sigma, and the products of its orthonormal
    eigenvectors are orthonormal.
    """
    rho = state.rho
    r = rho.rank
    if state.m == 1:
        return ExtremalityReport(True, r, 1.0, None, False)
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
    # inverse iteration with the spectrum shifted to start at d = INVERSE_SHIFT
    # gram_max: each solve damps an eigenvector of w_i against one of w_0 by
    # d / (w_i - w_0 + d), and the error of the near-singular solve lies along
    # the wanted direction. cos(0), cos(1), ... satisfy no linear relation with
    # rational coefficients, the kind a structured null space has
    gram.flat[:: gram.shape[0] + 1] -= w[0] - INVERSE_SHIFT * gram_max
    null = np.cos(np.arange(gram.shape[0]))
    for _ in range(2):
        null = np.linalg.solve(gram, null)
        null /= np.linalg.norm(null)
    # the null vector's coordinates in the Hermitian basis give the dependency
    # over the eigenvectors; dividing by sqrt(lambda_i lambda_j) moves it to z
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
    eigenvalues under the rank cutoff, so the halves average to the state,
    except for the smallest ones whose sum stays under ROUNDOFF_TAIL. A
    certificate is rejected before either half is built if its step is not
    a normal number (a zero or subnormal certificate, or max|eig| of its
    Hermitian part cert/2 + cert*/2 above 1/tiny, about 4.5e307), or would
    move the marginal by more than MARGINAL_TOL or a half's trace by more
    than TRACE_TOL.
    """
    try:
        cert = np.asarray(certificate, dtype=complex)
    except (TypeError, ValueError) as exc:
        raise InvalidCertificateError(f"certificate is not a complex array: {exc}") from None
    z = _scaled_factors(state)
    r = z.shape[1]
    if cert.shape != (r, r):
        raise InvalidCertificateError(
            f"certificate shape {cert.shape} does not match rank {r}"
        )
    if not np.isfinite(cert).all():
        raise InvalidCertificateError("certificate has a non-finite entry")
    m, n = state.m, state.n
    # sum_ij H_ij [z_i][z_j]* is the marginal tr_1(z H z*) = sum_a z_a H z_a*
    # that H would move, over the n x r blocks z_a of z; the largest product
    # entry, by Cauchy-Schwarz, sits on some [z_i][z_i]*
    za = z.reshape(m, n, r)
    moved = (za @ cert @ za.conj().transpose(0, 2, 1)).sum(axis=0)
    residual = float(np.abs(moved).max())
    largest = float((np.abs(za) ** 2).sum(axis=0).max())
    scale = float(np.abs(cert).max()) * largest + 1e-300
    if residual > CERT_RESIDUAL_TOL * scale:
        raise InvalidCertificateError(
            f"certificate does not annihilate the factor products (residual {residual:.3e})"
        )
    eta, q = np.linalg.eigh(_hermitian_part(cert))
    extreme_eig = eta[-1] if abs(eta[-1]) >= abs(eta[0]) else eta[0]
    with np.errstate(divide="ignore", over="ignore"):
        step = 1.0 / abs(extreme_eig)
    if not np.finfo(float).tiny <= step < np.inf:
        raise InvalidCertificateError(
            f"certificate step 1/max|eig| = {step:.3e} is not finite, or subnormal"
        )
    if residual * step > MARGINAL_TOL:
        raise InvalidCertificateError(
            f"certificate step moves the marginal by {residual * step:.3e}, "
            f"more than {MARGINAL_TOL}"
        )
    rho = state.rho
    positive = int(np.count_nonzero(rho.eigenvalues))
    # eigenvalues of about 1e-16 from an eigh would give each half a column apiece
    smallest_first = np.cumsum(rho.eigenvalues[r:positive][::-1])
    positive -= int(np.searchsorted(smallest_first, ROUNDOFF_TAIL, side="right"))
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
